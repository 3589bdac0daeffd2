"""Reference data and the correctness checks that count into errors.

The pinned files under perfbench/expected/ were produced by pin.py from
this source tree. Every check appends a message to an error list; an
empty list is the only passing outcome, so nothing passes silently.
"""

import json
import os

from common import EXPECTED_DIR

ROW_FIELDS = ("cycles", "retired", "regs_hash", "mem_hash")
GOLDEN = os.path.join("test", "serve_golden.jsonl")


def row_key(workload, variant):
    return "%s|%s" % (workload, variant)


def load_rows():
    with open(os.path.join(EXPECTED_DIR, "rows.json")) as f:
        return json.load(f)


def load_report():
    with open(os.path.join(EXPECTED_DIR, "report.txt")) as f:
        return f.read()


def load_fuzz():
    with open(os.path.join(EXPECTED_DIR, "fuzz.json")) as f:
        return json.load(f)


def check_pins(rows, errors):
    """The pinned rows must agree with themselves (every variant of a
    workload leaves the scalar baseline's memory) and with every row they
    share with the service's golden transcript."""
    for key, row in rows.items():
        workload, _ = key.split("|", 1)
        base = rows.get(row_key(workload, "baseline"))
        if base is None:
            errors.append("pinned rows: no baseline row for %s" % workload)
        elif row["mem_hash"] != base["mem_hash"]:
            errors.append("pinned rows: %s mem_hash differs from baseline" % key)
    shared = 0
    try:
        with open(GOLDEN) as f:
            golden = [json.loads(line) for line in f if line.strip()]
    except (OSError, ValueError) as e:
        errors.append("cannot read %s: %s" % (GOLDEN, e))
        return
    for g in golden:
        if g.get("status") not in ("ok", "degraded"):
            continue
        key = row_key(g["workload"], g["ran"])
        if key not in rows:
            continue
        shared += 1
        for field in ROW_FIELDS:
            if rows[key][field] != g[field]:
                errors.append("pinned row %s disagrees with %s on %s: %r vs %r"
                              % (key, GOLDEN, field, rows[key][field], g[field]))
    if shared == 0:
        errors.append("pinned rows share no row with %s" % GOLDEN)


def check_reply(reply, job, rows, errors):
    """One sweep reply against the job that was sent: it must carry the
    job's id, workload and variant, and match the job's pinned row on all
    four fields exactly. The row is looked up by the sent job, so a reply
    served for the wrong job (e.g. from the reply cache) cannot pass.
    Returns True when it passes every check."""
    before = len(errors)
    key = row_key(job["workload"], job["variant"])
    if reply.get("id") != job["id"]:
        errors.append("reply id %r for job %r" % (reply.get("id"), job["id"]))
    if (reply.get("workload"), reply.get("variant")) != (job["workload"], job["variant"]):
        errors.append("job %s (%s): reply is for %s|%s"
                      % (job["id"], key, reply.get("workload"), reply.get("variant")))
    if reply.get("status") != "ok":
        errors.append("job %s: status %r (%s)" % (job["id"], reply.get("status"), reply.get("reason")))
    else:
        want = rows.get(key)
        if want is None:
            errors.append("job %s: no pinned row for %s" % (job["id"], key))
        else:
            for field in ROW_FIELDS:
                if reply.get(field) != want[field]:
                    errors.append("job %s (%s): %s = %r, pinned %r"
                                  % (job["id"], key, field, reply.get(field), want[field]))
    return len(errors) == before


def check_bit_identical(sent, replies, errors):
    """The paper's claim, with the scalar run as the oracle: every ok
    reply leaves the same memory as the baseline reply of its workload
    from the same server session. Replies are keyed by the job that was
    sent, not by what the reply says it ran."""
    base = {job["workload"]: r["mem_hash"] for job, r in zip(sent, replies)
            if r.get("status") == "ok" and job["variant"] == "baseline"}
    bad = set()
    for job, r in zip(sent, replies):
        if r.get("status") != "ok":
            continue
        if job["workload"] not in base:
            errors.append("job %s: no baseline reply for %s in its session" % (job["id"], job["workload"]))
            bad.add(job["id"])
        elif r.get("mem_hash") != base[job["workload"]]:
            errors.append("job %s: mem_hash %r differs from the baseline run's %d"
                          % (job["id"], r.get("mem_hash"), base[job["workload"]]))
            bad.add(job["id"])
    return bad


def report_blocks(text):
    """Split report output into its sections (blank-line separated)."""
    return [b for b in text.split("\n\n") if b.strip()]
