"""The four workloads: seeded inputs and the untraced measurement.

Every workload drives the real program from outside, as a user does:
`liquid_cli serve` over its JSONL stdin/stdout, or `liquid_cli report`
and `liquid_cli fuzz` as child processes. A run is a sequence of rounds
(one child process each) until the time budget is spent; round r's
inputs depend only on (seed, r), so the same seed gives the same inputs.
The program is never helped: no workload is resolved, cache warmed or
lookup batched on its behalf.
"""

import json
import random

import checks
from common import CLI, Child, geomean, median, now, percentile

SPECFP = ["052.alvinn", "056.ear", "093.nasa7", "101.tomcatv",
          "104.hydro2d", "171.swim", "172.mgrid", "179.art"]
SHORT = ["MPEG2 Dec.", "MPEG2 Enc.", "GSM Dec.", "GSM Enc.", "FFT", "LU"]
VARIANTS = ["baseline", "liquid:4", "liquid:8", "liquid:16",
            "vla:8", "vla:16", "rvv:8", "oracle:8"]

HEAVY_BATCH = 8  # jobs per sync: work for every domain of the pool
MIN_SWEEP_JOBS = 100  # per run and per latency window: p90 has 10 samples beyond it

# Campaigns whose reports are pinned in expected/fuzz.json.
FUZZ_SEEDS = [101, 202, 303, 404, 505, 606, 707, 808,
              909, 1010, 1111, 1212, 1313, 1414, 1515, 1616]
FUZZ_CASES = 50


def rng_for(name, seed, r=0):
    return random.Random("%s/%d/%d" % (name, seed, r))


def heavy_round(seed, r):
    """sweep-heavy: one closed-loop client sending the 8 SPECfp programs
    x 8 variants in seeded order, no repeats, HEAVY_BATCH jobs per sync.
    The baseline trace put about 75% of job time in pipeline simulation
    and about a fifth in Workload.find, and every batch gives the
    dispatch pool work for all its domains. A faster simulator or pool
    shows here; so does a Workload.find fix, at about a fifth of the
    weight it has on sweep-short. The reply cache is never hit."""
    jobs = [(w, v) for w in SPECFP for v in VARIANTS]
    rng_for("sweep-heavy", seed, r).shuffle(jobs)
    lines = [{"id": "h%d-%d" % (r, i), "workload": w, "variant": v}
             for i, (w, v) in enumerate(jobs)]
    return [lines[i:i + HEAVY_BATCH] for i in range(0, len(lines), HEAVY_BATCH)]


def short_round(seed, r):
    """sweep-short: one closed-loop client, one job per sync, over the
    MediaBench programs, FFT and LU x the same variants; about half the
    lines repeat an earlier job (seeded) and are answered from the reply
    cache. Simulation is only 0.2-2 ms per job, so the fixed per-job
    costs set the latency: workload lookup, codegen, image load, state
    hashing, reply encoding and the service envelope."""
    rng = rng_for("sweep-short", seed, r)
    fresh = [(w, v) for w in SHORT for v in VARIANTS]
    rng.shuffle(fresh)
    sent, lines = [], []
    while fresh:
        if sent and rng.random() < 0.5:
            job = rng.choice(sent)
        else:
            job = fresh.pop()
            sent.append(job)
        lines.append({"id": "s%d-%d" % (r, len(lines)), "workload": job[0], "variant": job[1]})
    return [[line] for line in lines]


def script_text(batches):
    """The JSONL a round sends, sync lines included."""
    out = []
    for batch in batches:
        out.extend(json.dumps(job) for job in batch)
        out.append('{"op": "sync"}')
    return "\n".join(out) + "\n"


class Outcome:
    """What one run measured: samples per metric, the error list and the
    per-round detail the traced run compares against."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.rounds = []
        self.metrics = {}  # name -> (value, unit, samples)

    def put(self, name, value, unit, samples):
        self.metrics[name] = (value, unit, samples)


# --- sweeps ---------------------------------------------------------------

def serve_round(batches, rows, domains, out):
    """Push one round through a fresh `liquid_cli serve`: every job is
    timed from writing its line to reading its reply line."""
    sent = [job for batch in batches for job in batch]
    latency, replies = {}, []
    ch = Child([CLI, "serve", "--domains", str(domains)], stdin=True)
    try:
        ch.send(b'{"op": "metrics"}\n')
        json.loads(ch.readline())
        t0 = now()
        for batch in batches:
            payload = "".join(json.dumps(job) + "\n" for job in batch) + '{"op": "sync"}\n'
            t_write = now()
            ch.send(payload.encode())
            for job in batch:
                line = ch.readline()
                latency[job["id"]] = now() - t_write
                replies.append(json.loads(line))
        wall = now() - t0
        ch.send(b'{"op": "metrics"}\n')
        doc = json.loads(ch.readline())
        code, _ = ch.reap()
    except (ValueError, OSError) as e:
        out.errors.append("serve round died after %d replies: %s" % (len(replies), e))
        out.attempted += len(sent)
        out.failed += len(sent)
        return None
    finally:
        ch.kill()
    if code != 0:
        out.errors.append("serve exited with %d" % code)
    bad = {job["id"] for job, reply in zip(sent, replies)
           if not checks.check_reply(reply, job, rows, out.errors)}
    bad |= checks.check_bit_identical(sent, replies, out.errors)
    jobs = doc.get("jobs", {})
    if jobs.get("ok") != len(sent) or jobs.get("failed") or jobs.get("shed"):
        out.errors.append("metrics document counts %r for %d jobs sent" % (jobs, len(sent)))
        bad |= {job["id"] for job in sent}
    if doc.get("invariants", {}).get("violations"):
        out.errors.append("service invariants violated: %r" % doc["invariants"]["violations"])
    out.attempted += len(sent)
    out.failed += len(bad)
    rnd = {"wall": wall, "latency": latency, "replies": replies, "metrics": doc,
           "rss": ch.peak_rss_mb, "script": script_text(batches)}
    out.rounds.append(rnd)
    return rnd


def latency_windows(lat):
    """Group the rounds' latency lists into consecutive windows of at
    least MIN_SWEEP_JOBS samples; a short tail joins the last window."""
    wins, cur = [], []
    for round_lat in lat:
        cur = cur + round_lat
        if len(cur) >= MIN_SWEEP_JOBS:
            wins.append(cur)
            cur = []
    if cur and wins:
        wins[-1] = wins[-1] + cur
    elif cur:
        wins.append(cur)
    return wins


def run_sweep(make_round, seed, seconds, domains, rows):
    out = Outcome()
    start = now()
    r = 0
    while r == 0 or now() - start < seconds or out.attempted < MIN_SWEEP_JOBS:
        if serve_round(make_round(seed, r), rows, domains, out) is None:
            break
        r += 1
    if not out.rounds:
        return out
    walls = sum(rnd["wall"] for rnd in out.rounds)
    lat = [[v * 1e3 for v in rnd["latency"].values()] for rnd in out.rounds]
    jobs = sum(len(round_lat) for round_lat in lat)
    uncached = [rep["retired"] for rnd in out.rounds for rep in rnd["replies"]
                if rep.get("status") == "ok" and not rep.get("cached")]
    distinct = {(rep["workload"], rep["variant"]): rep["cycles"]
                for rep in out.rounds[0]["replies"] if rep.get("status") == "ok"}
    speedups = [distinct[(w, "baseline")] / c for (w, v), c in distinct.items()
                if v != "baseline" and (w, "baseline") in distinct]
    # Each round is one server session. The typical session's figures
    # (median over rounds) stay put when the host slows down during a
    # minority of the rounds.
    out.put("jobs_per_s", median([len(l) / rnd["wall"] for l, rnd in zip(lat, out.rounds)]),
            "jobs/s", len(out.rounds))
    # Latency percentiles are taken per window of consecutive rounds
    # holding at least MIN_SWEEP_JOBS jobs, so each p90 has at least 10
    # samples beyond it, and the median over windows is reported.
    wins = latency_windows(lat)
    n = "%d jobs, %d windows of >=%d" % (jobs, len(wins), min(len(w) for w in wins))
    out.put("job_p50_ms", median([median(w) for w in wins]), "ms", n)
    out.put("job_p90_ms", median([percentile(w, 90) for w in wins]), "ms", n)
    out.put("peak_rss_mb", median([rnd["rss"] for rnd in out.rounds]), "MB", len(out.rounds))
    out.put("sim_minsn_per_s", sum(uncached) / walls / 1e6, "Minsn/s", len(uncached))
    out.put("sim_cycles", sum(distinct.values()), "cycles", len(distinct))
    out.put("sim_speedup_geomean", geomean(speedups) if speedups else 0.0, "x", len(speedups))
    # Service counters of round 0, the round the traced run replays, so
    # they repeat exactly at a given seed.
    doc, sent = out.rounds[0]["metrics"], len(out.rounds[0]["replies"])
    out.put("service.dedup_hit_ratio", doc["dedup"]["hits"] / sent, "ratio", sent)
    out.put("service.retries", doc["supervision"]["retries"], "count", sent)
    out.put("service.shed", doc["jobs"]["shed"], "count", sent)
    return out


# --- report ---------------------------------------------------------------

def figure6_geomean(text):
    """Geometric mean of every speedup cell of the Figure 6 section
    (fixed, VLA and RVV columns; the native-ISA delta column excluded)."""
    cells = []
    for block in checks.report_blocks(text):
        if block.strip().startswith("Figure 6"):
            for line in block.strip().split("\n")[2:]:
                for group in line.split("|")[1:-1]:
                    cells.extend(float(x) for x in group.split())
    return geomean(cells) if cells else 0.0


def report_round(pinned_blocks, out):
    """One full `liquid_cli report` regeneration: one job."""
    t0 = now()
    ch = Child([CLI, "report"])
    try:
        code, text = ch.reap()
    finally:
        ch.kill()
    wall = now() - t0
    text = text.decode()
    blocks = checks.report_blocks(text)
    out.attempted += 1
    bad = sum(1 for i, b in enumerate(pinned_blocks) if i >= len(blocks) or blocks[i] != b)
    if code != 0 or bad or len(blocks) != len(pinned_blocks):
        out.errors.append("report exited with %d; %d of %d sections differ from the pinned copy (%d produced)"
                          % (code, bad, len(pinned_blocks), len(blocks)))
        out.failed += 1
    rnd = {"wall": wall, "text": text, "rss": ch.peak_rss_mb}
    out.rounds.append(rnd)
    return rnd


def run_report(seed, seconds, pinned_text):
    """report: a full regeneration per round, each one job. The
    paper-reproduction path and the only traffic that loads the harness
    memo (Runner.run_cached), the Runner.run_many fan-out and the
    ablation sweeps with live translation at several translation_cpi
    values. The seed does not change this workload's input: `report`
    takes none."""
    out = Outcome()
    pinned_blocks = checks.report_blocks(pinned_text)
    start = now()
    while not out.rounds or now() - start < seconds:
        report_round(pinned_blocks, out)
    walls = [rnd["wall"] for rnd in out.rounds]
    lat = [w * 1e3 for w in walls]
    out.put("jobs_per_s", median([1 / w for w in walls]), "jobs/s", len(walls))
    out.put("job_p50_ms", median(lat), "ms", len(lat))
    out.put("job_p90_ms", percentile(lat, 90), "ms", len(lat))
    out.put("peak_rss_mb", median([rnd["rss"] for rnd in out.rounds]), "MB", len(out.rounds))
    out.put("report_s", median(walls), "s", len(walls))
    out.put("sim_speedup_geomean", figure6_geomean(out.rounds[0]["text"]), "x", 1)
    return out


# --- fuzz -----------------------------------------------------------------

def fuzz_seeds(seed):
    """The campaign seeds of a run: the pinned pool in seeded order."""
    pool = list(FUZZ_SEEDS)
    rng_for("fuzz", seed).shuffle(pool)
    return pool


def fuzz_round(campaign_seed, domains, pinned, out):
    t0 = now()
    ch = Child([CLI, "fuzz", "--json", "--seed", str(campaign_seed),
                "--cases", str(FUZZ_CASES), "--domains", str(domains)])
    try:
        code, text = ch.reap()
    finally:
        ch.kill()
    wall = now() - t0
    out.attempted += FUZZ_CASES
    try:
        doc = json.loads(text)
    except ValueError:
        doc = {}
    divergent = doc.get("divergent_cases")
    if code != 0 or divergent != 0:
        out.errors.append("fuzz seed %d: exit %d, divergent_cases %r" % (campaign_seed, code, divergent))
        out.failed += divergent if isinstance(divergent, int) and divergent > 0 else FUZZ_CASES
    elif doc != pinned.get(str(campaign_seed)):
        out.errors.append("fuzz seed %d: report differs from the pinned one" % campaign_seed)
        out.failed += FUZZ_CASES
    rnd = {"wall": wall, "seed": campaign_seed, "doc": doc, "rss": ch.peak_rss_mb}
    out.rounds.append(rnd)
    return rnd


def run_fuzz(seed, seconds, domains, pinned):
    """fuzz: seeded `liquid_cli fuzz --json` campaigns across the whole
    53-cell matrix (lib/fuzz -> scalarize -> translate -> short
    simulations). Without it translate and lib/fuzz go unmeasured: a
    sweep job makes at most a few translation sessions among 1e5-1e6
    retired instructions, while a campaign installs thousands of
    microcode regions. Each generated case is one job."""
    out = Outcome()
    seeds = fuzz_seeds(seed)
    start = now()
    while not out.rounds or now() - start < seconds:
        fuzz_round(seeds[len(out.rounds) % len(seeds)], domains, pinned, out)
    walls = [rnd["wall"] for rnd in out.rounds]
    per_case = [w * 1e3 / FUZZ_CASES for w in walls]
    rates = [FUZZ_CASES / w for w in walls]
    out.put("jobs_per_s", median(rates), "jobs/s", len(out.rounds))
    out.put("job_p50_ms", median(per_case), "ms", len(per_case))
    out.put("job_p90_ms", percentile(per_case, 90), "ms", len(per_case))
    out.put("peak_rss_mb", median([rnd["rss"] for rnd in out.rounds]), "MB", len(out.rounds))
    out.put("fuzz_cases_per_s", median(rates), "cases/s", len(out.rounds))
    return out
