"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root. Runs every workload once at reduced size
(--seconds 1), untraced and traced, and checks that:
  - the result line carries exactly the BENCHMARK.json metrics, with
    their units, and reports no error;
  - every end-to-end metric of the workload is printed by name with its
    unit in the human-readable lines;
  - a deliberately corrupted pinned row (patched into checks.load_rows,
    with run.main called in-process) is reported as an error: non-zero
    exit, correct = false, the row named in the output.
Exits non-zero on the first failed expectation.
"""

import contextlib
import io
import json
import subprocess
import sys

sys.dont_write_bytecode = True

import checks  # noqa: E402
import run  # noqa: E402

# The end-to-end figures of each workload, printed by name and unit.
PRINTED = {
    "setup_s": ("s", "all"), "jobs_per_s": ("jobs/s", "all"),
    "job_p50_ms": ("ms", "all"), "job_p90_ms": ("ms", "all"),
    "peak_rss_mb": ("MB", "all"), "error_rate": ("fraction", "all"),
    "sim_minsn_per_s": ("Minsn/s", "sweep"), "sim_cycles": ("cycles", "sweep"),
    "sim_speedup_geomean": ("x", "sweep"), "report_s": ("s", "report"),
    "fuzz_cases_per_s": ("cases/s", "fuzz"),
}


def run_cli(workload, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().split("\n")
    return done.returncode, lines[:-1], json.loads(lines[-1])


def fail(msg):
    sys.exit("selftest FAILED: " + msg)


def expect_metrics(result, spec, what):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    if got != want:
        fail("%s: metrics %s, BENCHMARK.json wants %s" % (what, sorted(got.items()), sorted(want.items())))
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            fail("%s: %s is not a number" % (what, k))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for wl in bench["workloads"]:
        name = wl["name"]
        code, human, res = run_cli(name, 0)
        what = "%s --trace 0" % name
        if code != 0 or not res["correct"] or res["failed"]:
            fail("%s: exit %d, result %r\n%s" % (what, code, res, "\n".join(human)))
        expect_metrics(res, bench["end_to_end"], what)
        for metric, (unit, where) in PRINTED.items():
            if where not in ("all", name.split("-")[0]):
                continue
            if not any(line.split()[:3][0::2] == [metric, unit] for line in human if line.startswith("  ")):
                fail("%s: %s [%s] not printed" % (what, metric, unit))
        code, human, res = run_cli(name, 1)
        what = "%s --trace 1" % name
        if code != 0 or not res["correct"] or res["failed"]:
            fail("%s: exit %d, result %r\n%s" % (what, code, res, "\n".join(human)))
        expect_metrics(res, bench["per_layer"], what)
        print("ok   %s" % name)

    # A corrupted pinned row, patched into the checks in-process.
    pinned = checks.load_rows()
    pinned["FFT|liquid:8"]["cycles"] += 1
    checks.load_rows = lambda: pinned
    human = io.StringIO()
    with contextlib.redirect_stdout(human):
        code = run.main(["--workload", "sweep-short", "--seed", "1", "--seconds", "1", "--trace", "0"])
    lines = human.getvalue().strip().split("\n")
    res = json.loads(lines[-1])
    if code == 0 or res["correct"] or res["failed"] == 0:
        fail("corrupted row passed: exit %d, result %r" % (code, res))
    if not any("FFT|liquid:8" in line and line.startswith("ERROR") for line in lines):
        fail("corrupted row not named in the errors")
    print("ok   corrupted pinned row is reported (exit %d, %d failed)" % (code, res["failed"]))


if __name__ == "__main__":
    main()
