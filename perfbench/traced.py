"""The traced run: replay one round's inputs in-process under the tracer
(perfbench/tracer), then derive the per-layer metrics from its spans and
from the exact counters the program returns. End-to-end numbers never
come from here."""

import json
import os

from common import TRACER, WORK_DIR, Child, median
from workloads import FUZZ_CASES

# Layer spans under a "job" (or "offline") span must cover at least this
# share of it, summed over the run.
CONSERVATION_FRAC = 0.05

HARNESS = ["table2", "table5", "table6", "figure6", "code_size", "ucode_cache",
           "latency_ablation", "overhead_convergence", "translator_kind_ablation",
           "ucode_entries_ablation", "buffer_ablation", "bus_ablation",
           "interrupt_ablation"]

# Per-layer metric -> the span whose total duration it is.
SPAN_MS = {
    "workloads.find_ms": "workloads.find",
    "service.parse_ms": "service.parse",
    "service.fingerprint_ms": "service.fingerprint",
    "faults.hash_ms": "faults.hash",
    "obs.reply_ms": "obs.reply",
    "scalarize.codegen_ms": "scalarize.codegen",
    "prog.image_ms": "prog.image",
    "pipeline.simulate_ms": "pipeline.simulate",
    "translate.offline_ms": "translate.offline",
    "fuzz.generate_ms": "fuzz.generate",
    "fuzz.run_case_ms": "fuzz.run_case",
}
SPAN_MS.update({"harness.%s_ms" % h: "harness." + h for h in HARNESS})

# Every per-layer metric with its unit, in BENCHMARK.json order. A layer
# the workload does not exercise reads 0.
PER_LAYER = [(name, "ms") for name in SPAN_MS] + [
    ("workloads.find_calls", "count"),
    ("service.envelope_ms", "ms"),
    ("service.dedup_hit_ratio", "ratio"),
    ("service.retries", "count"),
    ("service.shed", "count"),
    ("pipeline.ns_per_insn", "ns"),
    ("pipeline.retired", "count"),
    ("pipeline.fetches", "count"),
    ("pipeline.uops_retired", "count"),
    ("pipeline.blocks_compiled", "count"),
    ("pipeline.block_execs", "count"),
    ("pipeline.superblocks_compiled", "count"),
    ("pipeline.superblock_iters", "count"),
    ("pipeline.superblock_bailouts", "count"),
    ("pipeline.block_speedup", "x"),
    ("pipeline.super_speedup", "x"),
    ("translate.started", "count"),
    ("translate.aborted", "count"),
    ("translate.abort_ratio", "ratio"),
    ("translate.ucode_installs", "count"),
    ("translate.busy_cycles", "cycles"),
    ("machine.icache_miss_ratio", "ratio"),
    ("machine.dcache_miss_ratio", "ratio"),
    ("machine.mispredict_ratio", "ratio"),
    ("machine.ucode_hit_ratio", "ratio"),
    ("harness.memo_hit_ratio", "ratio"),
    ("harness.memo_evictions", "count"),
    ("fuzz.runs", "count"),
    ("fuzz.installs", "count"),
    ("trace_overhead_frac", "fraction"),
    # Whole-workload figures the untraced run measures on only some
    # workloads (0 elsewhere); see README.md for why they sit here.
    ("report_s", "s"),
    ("fuzz_cases_per_s", "cases/s"),
    ("sim_minsn_per_s", "Minsn/s"),
    ("sim_cycles", "cycles"),
    ("sim_speedup_geomean", "x"),
    ("error_rate", "fraction"),
]


def ratio(a, b):
    return a / b if b else 0.0


class Spans:
    def __init__(self, path):
        with open(path) as f:
            self.spans = [json.loads(line) for line in f if line.strip()]
        self.children = {}
        for s in self.spans:
            s["dur"] = s["end"] - s["start"]
            self.children.setdefault(s["parent"], []).append(s)

    def total(self, name):
        return sum(s["dur"] for s in self.spans if s["name"] == name)

    def count(self, name):
        return sum(1 for s in self.spans if s["name"] == name)

    def self_times(self):
        """Span name -> summed self time (duration minus the part its
        child spans cover)."""
        out = {}
        for s in self.spans:
            covered = sum(c["dur"] for c in self.children.get(s["id"], []))
            out[s["name"]] = out.get(s["name"], 0.0) + s["dur"] - covered
        return out

    def conservation(self):
        """(covered share, spans below the threshold, spans checked) over
        every span that groups layer calls."""
        total = covered = 0.0
        low = checked = 0
        for s in self.spans:
            if s["name"] not in ("job", "offline"):
                continue
            kids = sum(c["dur"] for c in self.children.get(s["id"], []))
            total += s["dur"]
            covered += kids
            checked += 1
            if kids < (1 - CONSERVATION_FRAC) * s["dur"]:
                low += 1
        return ratio(covered, total), low, checked

    def job_durations(self):
        return {s["job"]: s["dur"] for s in self.spans if s["name"] == "job"}


def run_tracer(args, out):
    ch = Child([TRACER] + args)
    try:
        code, text = ch.reap()
    finally:
        ch.kill()
    lines = text.decode().strip().split("\n")
    if code != 0 or not lines[-1].startswith("{"):
        out.errors.append("tracer %s exited with %d" % (args[0], code))
        return None
    return json.loads(lines[-1])


def counter_metrics(m, c):
    m["pipeline.retired"] = c["retired"]
    m["pipeline.fetches"] = c["fetches"]
    m["pipeline.uops_retired"] = c["uops_retired"]
    for k in ("blocks_compiled", "block_execs", "superblocks_compiled",
              "superblock_iters", "superblock_bailouts"):
        m["pipeline." + k] = c[k]
    m["translate.started"] = c["translations_started"]
    m["translate.aborted"] = c["translations_aborted"]
    m["translate.ucode_installs"] = c["ucode_installs"]
    m["translate.busy_cycles"] = c["translation_busy_cycles"]
    m["machine.icache_miss_ratio"] = ratio(c["icache_misses"], c["icache_hits"] + c["icache_misses"])
    m["machine.dcache_miss_ratio"] = ratio(c["dcache_misses"], c["dcache_hits"] + c["dcache_misses"])
    m["machine.mispredict_ratio"] = ratio(c["branch_mispredicts"], c["branches"])
    m["machine.ucode_hit_ratio"] = ratio(c["ucode_hits"], c["region_calls"])


def trace(workload, outcome, domains, pinned_report, pinned_fuzz):
    """Replay round 0 of [outcome] under the tracer. Returns the per-layer
    metrics and the spans' top self times; errors go to [outcome]."""
    os.makedirs(WORK_DIR, exist_ok=True)
    spans_path = os.path.join(WORK_DIR, "spans.jsonl")
    m = {name: 0 for name, _ in PER_LAYER}
    rnd = outcome.rounds[0]
    if workload.startswith("sweep"):
        script = os.path.join(WORK_DIR, "script.jsonl")
        with open(script, "w") as f:
            f.write(rnd["script"])
        summary = run_tracer(["sweep", script, str(domains), spans_path], outcome)
        if summary is None:
            return m, []
        replies = [json.loads(r) for r in summary["replies"]]
        outcome.attempted += len(rnd["replies"])
        mismatched = sum(1 for a, b in zip(replies, rnd["replies"]) if a != b)
        mismatched += abs(len(replies) - len(rnd["replies"]))
        if mismatched:
            outcome.errors.append("traced replay: %d replies differ from the server's" % mismatched)
        twins = summary["twins"]
        if twins["mismatches"]:
            outcome.errors.append("engine twins moved %d counters" % twins["mismatches"])
        outcome.failed += mismatched + twins["mismatches"]
        c = summary["counters"]
        counter_metrics(m, c)
        m["pipeline.block_speedup"] = ratio(twins["noblocks_s"], twins["on_s"])
        m["pipeline.super_speedup"] = ratio(twins["nosuper_s"], twins["on_s"])
        untraced_wall = rnd["wall"]
    elif workload == "report":
        text_path = os.path.join(WORK_DIR, "report.txt")
        summary = run_tracer(["report", spans_path, text_path], outcome)
        if summary is None:
            return m, []
        with open(text_path) as f:
            outcome.attempted += 1
            if f.read() != pinned_report:
                outcome.errors.append("traced report text differs from the pinned copy")
                outcome.failed += 1
        memo = summary["memo"]
        m["harness.memo_hit_ratio"] = ratio(memo["hits"], memo["hits"] + memo["misses"])
        m["harness.memo_evictions"] = memo["evictions"]
        untraced_wall = median([r["wall"] for r in outcome.rounds])
    else:
        seed = rnd["seed"]
        summary = run_tracer(["fuzz", str(seed), str(FUZZ_CASES), str(domains), spans_path], outcome)
        if summary is None:
            return m, []
        want = pinned_fuzz[str(seed)]
        outcome.attempted += FUZZ_CASES
        got = (summary["runs"], summary["installs"], summary["divergent"])
        if got != (want["runs"], want["installs"], want["divergent_cases"]):
            outcome.errors.append("traced campaign %d: runs/installs/divergent %r, pinned %r"
                                  % (seed, got, (want["runs"], want["installs"], want["divergent_cases"])))
            outcome.failed += FUZZ_CASES
        m["fuzz.runs"] = summary["runs"]
        m["fuzz.installs"] = summary["installs"]
        m["translate.ucode_installs"] = summary["installs"]
        m["translate.aborted"] = summary["aborts"]
        m["translate.started"] = summary["installs"] + summary["aborts"]
        untraced_wall = rnd["wall"]
    if "offline" in summary:
        print("offline translation: %(calls)d sessions, %(regions)d regions, "
              "%(aborted)d aborted, %(errors)d raised" % summary["offline"])
    m["translate.abort_ratio"] = ratio(m["translate.aborted"], m["translate.started"])
    m["trace_overhead_frac"] = summary["wall_s"] / untraced_wall - 1

    spans = Spans(spans_path)
    for metric, name in SPAN_MS.items():
        m[metric] = spans.total(name) * 1e3
    m["workloads.find_calls"] = spans.count("workloads.find")
    if m["pipeline.retired"]:
        m["pipeline.ns_per_insn"] = spans.total("pipeline.simulate") * 1e9 / m["pipeline.retired"]
    if workload.startswith("sweep"):
        traced = spans.job_durations()
        gaps = [(rnd["latency"][j] - d) * 1e3 for j, d in traced.items() if j in rnd["latency"]]
        m["service.envelope_ms"] = median(gaps) if gaps else 0
    # report's harness spans are leaves: no layer is traced inside them
    share, low, checked = spans.conservation()
    if checked:
        print("trace: layer spans cover %.4f of %d job/offline spans (%d below %.2f)"
              % (share, checked, low, 1 - CONSERVATION_FRAC))
    if checked and share < 1 - CONSERVATION_FRAC:
        outcome.errors.append("trace conservation: layer spans cover only %.4f of job time" % share)
    top = sorted(spans.self_times().items(), key=lambda kv: -kv[1])[:6]
    return m, top
