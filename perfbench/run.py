"""perfbench: the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds bin/liquid_cli.exe and
the tracer, measures the program's set-up, drives the workload for S
seconds with the real CLI as child processes, checks every output
against perfbench/expected/, and prints one JSON result as the last line
of stdout: the end-to-end metrics with --trace 0, the per-layer metrics
(from a separate traced replay) with --trace 1. Exits non-zero when any
correctness check fails, and without a result when the build fails.
See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import json
import sys

sys.dont_write_bytecode = True

import checks  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402
from common import CLI, BuildError, Child, build, domains, median, now  # noqa: E402

WORKLOADS = ["sweep-heavy", "sweep-short", "report", "fuzz"]
SETUP_REPEATS = 41

# The bounded metrics every workload reports (BENCHMARK.json end_to_end).
END_TO_END = [("setup_s", "s"), ("jobs_per_s", "jobs/s"), ("job_p50_ms", "ms"),
              ("job_p90_ms", "ms"), ("peak_rss_mb", "MB")]


def measure_setup(dom, out):
    """Spawn `liquid_cli serve` until it answers a leading metrics probe,
    SETUP_REPEATS times; the program's own start-up, the same on every
    workload."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = now()
        with Child([CLI, "serve", "--domains", str(dom)], stdin=True) as ch:
            ch.send(b'{"op": "metrics"}\n')
            line = ch.readline()
            samples.append(now() - t0)
            code, _ = ch.reap()
        try:
            ok = json.loads(line).get("schema") == "liquid-service-metrics/1"
        except ValueError:
            ok = False
        if not ok or code != 0:
            out.errors.append("serve did not answer its metrics probe (exit %d)" % code)
            out.failed += 1
        out.attempted += 1
    return samples


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        build()
    except BuildError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    dom = domains()
    rows = checks.load_rows()
    pinned_report = checks.load_report()
    pinned_fuzz = checks.load_fuzz()
    pin_errors = []
    checks.check_pins(rows, pin_errors)

    setup = workloads.Outcome()
    setup_samples = measure_setup(dom, setup)
    started = now()
    if args.workload == "sweep-heavy":
        out = workloads.run_sweep(workloads.heavy_round, args.seed, args.seconds, dom, rows)
    elif args.workload == "sweep-short":
        out = workloads.run_sweep(workloads.short_round, args.seed, args.seconds, dom, rows)
    elif args.workload == "report":
        out = workloads.run_report(args.seed, args.seconds, pinned_report)
    else:
        out = workloads.run_fuzz(args.seed, args.seconds, dom, pinned_fuzz)
    measured_s = now() - started
    out.put("setup_s", median(setup_samples), "s", len(setup_samples))
    out.errors = pin_errors + setup.errors + out.errors
    out.attempted += setup.attempted
    out.failed += setup.failed

    per_layer, top = {}, []
    if args.trace and out.rounds:
        per_layer, top = traced.trace(args.workload, out, dom, pinned_report, pinned_fuzz)
    error_rate = out.failed / max(1, out.attempted)
    out.put("error_rate", error_rate, "fraction", out.attempted)

    print("perfbench %s seed=%d domains=%d measured=%.1fs rounds=%d"
          % (args.workload, args.seed, dom, measured_s, len(out.rounds)))
    for name, (value, unit, n) in out.metrics.items():
        kind = "median of " if unit in ("ms", "s", "MB") else ""
        print("  %-24s %14.6g %-8s (%sn=%s)" % (name, value, unit, kind, n))
    for name, secs in top:
        print("  top self time: %-28s %10.3f ms" % (name, secs * 1e3))
    for e in out.errors[:50]:
        print("ERROR: %s" % e)
    correct = not out.errors and out.failed == 0

    if args.trace:
        names = {name for name, _ in traced.PER_LAYER}
        per_layer.update({n: v for n, (v, _, _) in out.metrics.items() if n in names})
        metrics = {name: {"value": per_layer.get(name, 0), "unit": unit}
                   for name, unit in traced.PER_LAYER}
    else:
        metrics = {name: {"value": out.metrics[name][0], "unit": unit}
                   for name, unit in END_TO_END if name in out.metrics}
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
