"""bmdl benchmark: time to a certified verdict, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process runs a closed loop, one goal
at a time: each goal goes through the public pipeline of the prove or
consistent verb (pipeline.py) with the CLI's default step budget and a
wall-clock limit, then its report is rechecked outside the timed region.
Goals come from the workload's fixed pool (workloads.py, spec.json): the
loop runs whole cycles through it, each in a new order drawn from --seed,
until the workload's min_cycles are done and the timed goals add up to
--seconds.  The exact counts are taken over the first min_cycles cycles.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, with every time
taken at reference speed (speed.py): a reference loop sampled all through
the run cancels the drift of a shared host's speed.  --trace 1 runs
each goal of the counted cycles once untraced and once traced (tracing.py)
and prints the per-layer metrics; the spans go to perfbench/out/.  The
last line of stdout is one JSON object; the lines before it start with
"#".  --scale tiny shrinks the pools for the self-test.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Runs in a fresh interpreter: import bmdl and build the pool, then
# print the time that took and the time at reference speed.  The reference
# loop runs before and after, and speed.py is imported before the clock
# starts, so the measured region is the same as without it.
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[2])
import speed
refs = [speed.time_reference() for _ in range(15)]
start = speed.perf_counter()
sys.path.insert(0, sys.argv[1])
import bmdl, workloads
workloads.Stream(workloads.load_spec(), sys.argv[3], int(sys.argv[4]), sys.argv[5] == "tiny").next_cycle()
took = speed.perf_counter() - start
refs += [speed.time_reference() for _ in range(15)]
print(took, took * speed.scale_of(refs))
"""


def measure_setup(workload: str, seed: int, scale: str, samples: int) -> list[tuple[float, float]]:
    """Import bmdl and build the workload's pool in fresh interpreters:
    (seconds, seconds at reference speed) for each."""
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR), workload, str(seed), scale],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        wall, at_ref = proc.stdout.split()
        times.append((float(wall), float(at_ref)))
    return times


def run_goal(goal, clock, hard_deadline: float, tracer=None) -> dict:
    """Time one goal, then recheck its report outside the timed region.
    Traced goals are not rechecked: their reports are compared with the
    untraced ones instead.  "latency" leaves out the clock's sampling;
    "latency_ref" (set by at_reference_speed) is the same at reference speed."""
    from bmdl.search import BudgetExceeded

    import pipeline
    from speed import GoalTimeout

    limit = min(goal.limit_s, hard_deadline - time.perf_counter())
    rec = {"gid": goal.gid, "status": "ok", "latency": 0.0, "span": (0.0, 0.0), "worlds": 0, "nodes": 0,
           "detail": "", "wrong": False, "bad": False, "report": None, "verify_s": 0.0}
    if limit <= 0:
        rec["status"] = "timeout"
        return rec
    paused = clock.paused
    start = tracer.begin_goal(goal.gid) if tracer else time.perf_counter()
    clock.deadline = start + limit
    try:
        try:
            rec["report"] = pipeline.execute(goal)
        finally:
            clock.deadline = math.inf
    except BudgetExceeded:
        rec["status"] = "budget"
    except GoalTimeout:
        rec["status"] = "timeout"
    except Exception as e:  # a crash is a failed goal, not the end of the run
        where = traceback.extract_tb(e.__traceback__)[-1]
        rec["status"] = "error"
        rec["detail"] = f"{type(e).__name__}: {e} ({Path(where.filename).name}:{where.lineno})"
    end = tracer.end_goal() if tracer else time.perf_counter()
    rec["latency"] = end - start - (clock.paused - paused)
    rec["span"] = (start, end)
    if rec["report"] is not None and tracer is None:
        t0 = time.perf_counter()
        check = pipeline.recheck(goal, rec["report"])
        rec["verify_s"] = time.perf_counter() - t0
        rec.update(wrong=check.wrong_verdict, bad=check.bad_certificate, worlds=check.worlds,
                   nodes=check.nodes, detail=check.detail)
    return rec


def certified(rec: dict) -> bool:
    return rec["status"] == "ok" and not rec["wrong"] and not rec["bad"]


def run_cycle(goals, clock, hard_deadline: float) -> list[dict]:
    recs = [run_goal(g, clock, hard_deadline) for g in goals]
    for r in recs:
        r["report"] = None  # rechecked already; a growing heap would slow later goals
    return recs


def at_reference_speed(recs: list[dict], clock) -> None:
    for r in recs:
        r["latency_ref"] = r["latency"] * clock.scale(*r["span"])


# A percentile is read as the mean of the sorted values ranked from
# pct - PCT_BAND to pct + PCT_BAND: the value at one rank moves with
# whichever goal lands there, the mean over the band moves less.
PCT_BAND = 5


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """The sorted values' percentile, as the mean over the band around it,
    and the number of values beyond its nearest rank."""

    def rank(p: float) -> int:
        return min(len(values), max(1, math.ceil(len(values) * p / 100)))

    band = values[rank(pct - PCT_BAND) - 1 : rank(pct + PCT_BAND)]
    return statistics.fmean(band), len(values) - rank(pct)


def latency_order(recs: list[dict], key: str) -> list[float]:
    """Latencies in ms, failed goals after every success."""
    ok = sorted(r[key] for r in recs if certified(r))
    bad = sorted(r[key] for r in recs if not certified(r))
    return [1000 * t for t in ok + bad]


def timings(recs: list[dict], tail_pct: float, key: str) -> tuple[float, float, float, int]:
    """goals_per_s, latency_p50_ms, latency_tail_ms and the number of goals
    beyond the tail percentile, from the latencies under key."""
    rate = sum(certified(r) for r in recs) / sum(r[key] for r in recs)
    lat = latency_order(recs, key)
    tail, beyond = percentile(lat, tail_pct)
    return rate, percentile(lat, 50)[0], tail, beyond


def end_to_end(
    cycles: list[list[dict]], counted: int, tail_pct: float, setup: list[tuple[float, float]], peak_rss_mb: float
) -> tuple[dict, list[str]]:
    recs = [r for c in cycles for r in c]
    rate, p50, tail, beyond = timings(recs, tail_pct, "latency_ref")
    raw = timings(recs, tail_pct, "latency")
    cert = [r for c in cycles[:counted] for r in c if certified(r)]
    metrics = {
        "goals_per_s": rate,
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "certified_frac": sum(certified(r) for r in recs) / len(recs),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(at_ref for _, at_ref in setup),
        "cert_size": sum(r["worlds"] + r["nodes"] for r in cert),
    }
    notes = [
        f"latency_tail_ms is p{tail_pct:g} over {len(recs)} goals, {beyond} beyond it"
        + ("" if beyond >= 10 else " (fewer than ten: too few goals for this percentile)"),
        f"{len(cycles)} cycles through a pool of {len(cycles[0])} goals; {sum(r['latency'] for r in recs):.1f} s timed,"
        f" {sum(r['verify_s'] for r in recs):.1f} s rechecking",
        f"in wall time, not at reference speed: goals_per_s {raw[0]:.6g}, latency_p50_ms {raw[1]:.6g},"
        f" latency_tail_ms {raw[2]:.6g}, setup_s {statistics.median(wall for wall, _ in setup):.6g}",
        f"cert_size counts {sum(r['worlds'] for r in cert)} worlds and {sum(r['nodes'] for r in cert)}"
        f" derivation nodes over the first {counted} cycles",
    ]
    return metrics, notes


def failure_counts(recs: list[dict]) -> dict:
    return {
        "budget.exhausted": sum(r["status"] == "budget" for r in recs),
        "bench.timeouts": sum(r["status"] == "timeout" for r in recs),
        "bench.errors": sum(r["status"] == "error" for r in recs),
        "verify.wrong_verdicts": sum(r["wrong"] for r in recs),
        "verify.bad_certificates": sum(r["bad"] for r in recs),
    }


def traced_run(cycles, clock, hard_deadline: float, args) -> tuple[list[dict], dict, list[str]]:
    """Run each goal of the counted cycles untraced and traced, in turns
    that alternate which goes first, and split the traced time by layer.
    The traced reports must equal the untraced ones."""
    import tracing

    tracer = tracing.Tracer()
    plain, traced = [], []
    for i, goal in enumerate(g for c in cycles for g in c):
        if i % 2:
            plain.append(run_goal(goal, clock, hard_deadline))
        tracer.install()
        try:
            traced.append(run_goal(goal, clock, hard_deadline, tracer))
        finally:
            tracer.uninstall()
        if not i % 2:
            plain.append(run_goal(goal, clock, hard_deadline))
    for a, b in zip(plain, traced):
        if certified(a) and b["report"] is not None and a["report"] != b["report"]:
            a["bad"], a["detail"] = True, "tracing changed the report"
    both = [(a, b) for a, b in zip(plain, traced) if certified(a) and b["report"] is not None]
    values = tracing.layer_metrics(tracer.spans, tracer.aggs, {b["gid"] for _, b in both})
    values.update(failure_counts(plain))
    cert = [r for r in plain if certified(r)]
    values.update(
        {
            "failed_frac": sum(not certified(r) for r in plain) / len(plain),
            "cert_worlds": sum(r["worlds"] for r in cert),
            "cert_nodes": sum(r["nodes"] for r in cert),
            "verify.s": sum(r["verify_s"] for r in plain),
            "trace.overhead_frac": (
                sum(b["latency"] for _, b in both) / sum(a["latency"] for a, _ in both) - 1 if both else 0.0
            ),
        }
    )
    span_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(span_file)
    notes = [f"spans written to {span_file.relative_to(ROOT)}"]
    for a, b in sorted(both, key=lambda ab: -ab[1]["latency"])[:3]:
        split = tracing.layer_metrics(tracer.spans, tracer.aggs, {b["gid"]})
        notes.append(
            f"slow goal {b['gid']}: {a['latency']:.3f} s untraced, {b['latency']:.3f} s traced; top-level search "
            f"{split['search.s']:.3f} s, {split['countermodel.oracle_calls']} oracle calls {split['countermodel.oracle_s']:.3f} s"
        )
    return plain, values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: the self-test's small pools")
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "bmdl" / "__init__.py").is_file():
        print(f"perfbench: no bmdl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import speed
    import workloads

    spec = workloads.load_spec()
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    tiny = args.scale == "tiny"
    params = workloads.workload_params(spec, args.workload, tiny)
    # No cycle starts after the soft deadline; the hard one cuts goals short.
    soft_deadline = started + spec["run_cap_s"]["soft"]
    hard_deadline = started + spec["run_cap_s"]["hard"]

    setup = measure_setup(args.workload, args.seed, args.scale, spec["setup_samples"])
    stream = workloads.Stream(spec, args.workload, args.seed, tiny)
    counted = params["min_cycles"]
    notes = [f"workload {args.workload}, seed {args.seed}, scale {args.scale}"]

    clock = speed.Clock(sample=args.trace == 0)
    clock.start()
    try:
        if args.trace == 0:
            cycles, timed = [], 0.0
            while (len(cycles) < counted or timed < args.seconds) and time.perf_counter() < soft_deadline:
                cycles.append(run_cycle(stream.next_cycle(), clock, hard_deadline))
                timed += sum(r["latency"] for r in cycles[-1])
                if len(cycles) == counted:
                    # Taken here, as the records of later cycles would add the benchmark's own memory.
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            counted_cycles = [stream.next_cycle() for _ in range(counted)]
            recs, values, more = traced_run(counted_cycles, clock, hard_deadline, args)
    finally:
        clock.stop()
    if args.trace == 0:
        recs = [r for c in cycles for r in c]
        at_reference_speed(recs, clock)
        values, more = end_to_end(cycles, counted, params["tail_percentile"], setup, peak_rss_mb)
        wanted = declared["end_to_end"]
    else:
        wanted = declared["per_layer"]
    notes += more

    fails = [r for r in recs if not certified(r)]
    for r in fails[:20]:
        notes.append(f"failed {r['gid']}: {r['status']}{' wrong verdict' if r['wrong'] else ''} {r['detail']}".rstrip())
    correct = not any(r["wrong"] or r["bad"] or r["status"] == "error" for r in recs)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for line in notes:
        print("# " + line)
    print(json.dumps({"correct": correct, "attempted": len(recs), "failed": len(fails), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
