"""Regenerate the pinned reference outputs in perfbench/expected/.

    python3 perfbench/pin.py

Run from the repository root, only after a change that is meant to alter
simulated results, the report text or the fuzz reports; review the diff
of perfbench/expected/ like any golden-file change. run.py cross-checks
rows.json against test/serve_golden.jsonl on every run.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

import checks  # noqa: E402
import workloads  # noqa: E402
from common import CLI, EXPECTED_DIR, build  # noqa: E402


def pin_rows():
    names = subprocess.run([CLI, "list"], capture_output=True, text=True, check=True).stdout
    every = [line[:14].strip() for line in names.splitlines() if line.strip()]
    jobs = [{"id": "%s|%s" % (w, v), "workload": w, "variant": v}
            for w in every for v in workloads.VARIANTS]
    # one sync per workload keeps the queue under the shedding mark
    script = "".join(json.dumps(j) + "\n" + ('{"op": "sync"}\n' if j["variant"] == workloads.VARIANTS[-1] else "")
                     for j in jobs)
    done = subprocess.run([CLI, "serve", "--domains", "1"], input=script,
                          capture_output=True, text=True, check=True)
    rows = {}
    for line in done.stdout.splitlines():
        r = json.loads(line)
        if r.get("status") != "ok":
            sys.exit("pin.py: job %s replied %r" % (r.get("id"), r))
        rows[r["id"]] = {f: r[f] for f in checks.ROW_FIELDS}
    if len(rows) != len(jobs):
        sys.exit("pin.py: %d replies for %d jobs" % (len(rows), len(jobs)))
    return rows


def main():
    build()
    rows = pin_rows()
    errors = []
    checks.check_pins(rows, errors)
    if errors:
        sys.exit("pin.py: " + "; ".join(errors))
    with open(os.path.join(EXPECTED_DIR, "rows.json"), "w") as f:
        json.dump(rows, f, indent=1, sort_keys=True)
        f.write("\n")
    report = subprocess.run([CLI, "report"], capture_output=True, text=True, check=True).stdout
    with open(os.path.join(EXPECTED_DIR, "report.txt"), "w") as f:
        f.write(report)
    fuzz = {}
    for seed in workloads.FUZZ_SEEDS:
        out = subprocess.run([CLI, "fuzz", "--json", "--seed", str(seed), "--cases",
                              str(workloads.FUZZ_CASES), "--domains", "1"],
                             capture_output=True, text=True, check=True).stdout
        fuzz[str(seed)] = json.loads(out)
    with open(os.path.join(EXPECTED_DIR, "fuzz.json"), "w") as f:
        json.dump(fuzz, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


if __name__ == "__main__":
    main()
