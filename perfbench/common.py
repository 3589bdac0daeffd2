"""Shared plumbing: building the program, child processes, statistics."""

import os
import statistics
import subprocess
import sys
import time

CLI = os.path.join("_build", "default", "bin", "liquid_cli.exe")
TRACER = os.path.join("_build", "default", "perfbench", "tracer", "tracer.exe")
EXPECTED_DIR = os.path.join("perfbench", "expected")
# Scratch space for traced-run inputs and span files (git-ignored).
WORK_DIR = ".perfbench"


class BuildError(Exception):
    pass


def build():
    """Build the CLI and the tracer from the sources in the current
    directory. Dune's output goes to stderr so stdout stays the result."""
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "liquid_cli.ml"))):
        raise BuildError("no liquid_simd source tree in %s" % os.getcwd())
    cmd = [
        "dune", "build", "--root", ".", "--cache=disabled", "-j", "2",
        "bin/liquid_cli.exe", "perfbench/tracer/tracer.exe",
    ]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BuildError("dune build failed: %s" % e)
    if done.returncode != 0:
        raise BuildError("dune build exited with %d" % done.returncode)


def domains():
    """Worker domains for every child: never more than the CPUs this
    process may run on, and at most 2 so the traffic shape does not
    change with the host."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def now():
    return time.perf_counter()


class Child:
    """A child process whose peak RSS is read from its own rusage when
    it is reaped (ru_maxrss is the VmHWM high-water mark, in KiB)."""

    def __init__(self, argv, stdin=False):
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
        )
        self.peak_rss_mb = None

    def send(self, data):
        self.proc.stdin.write(data)
        self.proc.stdin.flush()

    def readline(self):
        return self.proc.stdout.readline()

    def reap(self):
        """Close our ends, wait for the exit, return the exit code."""
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        rest = self.proc.stdout.read()
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        return self.proc.returncode, rest

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.reap()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.kill()
        return False


def median(xs):
    return statistics.median(xs)


def percentile(xs, q):
    """The q-th percentile (q in 1..99), interpolated between ranks."""
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def geomean(xs):
    return statistics.geometric_mean(xs)
