"""Benchmark of hgforge: one closed-loop client calling the package in-process.

    python3 perfbench/run.py --workload battery|walks|reject --seed N --seconds S --trace 0|1

Run from the root of a source checkout; hgforge is imported from its
src/ directory and nowhere else.  Each request is sent after the previous
one finishes, in a single thread.  The workload's inputs are built from
the seed; set-up runs SETUPS times, each time importing hgforge afresh,
and the median is reported as setup_s.  The timed loop then runs whole
rounds of the workload until another round would end well past S
seconds, so every run measures the same mix.  Every answer is checked
against ground truth known by construction (see workloads.py).

Output: one info line, then the result line.  With --trace 0 the result
carries the end-to-end metrics: requests per second, mean check and
recover latency, set-up time and peak memory.  The info line adds the
p50 and tail latency of each request kind with their sample counts, the
wrong share, the environment, the inputs' operand widths and computed
multiply-adds, and a SHA-256 over the first report of every input, for
byte-for-byte comparison of two commits.  With --trace 1 the result
carries per-layer metrics from spans around each layer's calls, and the
tracing overhead: round 0's traced time minus its untraced time, with
each item run both ways back to back.  Spans go to .perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUPS = 5
TAIL_MIN_BEYOND = 10


def import_hgforge():
    """Import hgforge from the checkout's src/, discarding any earlier import."""
    for name in [m for m in sys.modules if m == "hgforge" or m.startswith("hgforge.")]:
        del sys.modules[name]
    hg = importlib.import_module("hgforge")
    importlib.import_module("hgforge.cli")
    if Path(hg.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"hgforge imported from {hg.__file__}, not from {SRC}")
    return hg


def setup(workload, seed, workdir, tracer=None):
    """Import, build groups, sample measures, derive cubes, write files."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    start = perf_counter()
    hg = import_hgforge()
    if tracer is not None:
        tracer.install(hg)
    rounds = workloads.BUILDERS[workload](hg, random.Random(seed), str(workdir))
    return hg, rounds, perf_counter() - start


def run_round(runner, hg, items, tracer, round_index):
    outcomes = []
    for position, item in enumerate(items):
        if tracer is not None:
            tracer.request = f"r{round_index}.{position}"
            tracer.stats = item.stats
        outcomes.append(runner(hg, item))
    return outcomes


def timed_loop(runner, hg, rounds, seconds, tracer=None, done=()):
    """Whole rounds, cycling through the inputs, after any rounds already done;
    stop when the next round would be expected to end more than half a round
    past the deadline."""
    results = list(done)  # (round index, duration, outcomes)
    start = perf_counter() - sum(duration for _, duration, _ in results)
    while not results or perf_counter() - start + results[-1][1] / 2 < seconds:
        r = len(results)
        round_start = perf_counter()
        outcomes = run_round(runner, hg, rounds[r % len(rounds)], tracer, r)
        results.append((r, perf_counter() - round_start, outcomes))
    return results, perf_counter() - start


def paired_round(runner, plain, traced, tracer):
    """Round 0 with each item run untraced and traced back to back, in
    alternating order, so that both totals see the same machine state;
    returns the traced outcomes and both totals."""
    (hg_plain, items_plain), (hg, items) = plain, traced
    outcomes = []
    totals = {"untraced": 0.0, "traced": 0.0}
    for position, (plain_item, item) in enumerate(zip(items_plain, items)):
        tracer.request = f"r0.{position}"
        tracer.stats = item.stats
        calls = [("untraced", hg_plain, plain_item), ("traced", hg, item)]
        for kind, module, entry in calls if position % 2 == 0 else calls[::-1]:
            start = perf_counter()
            outcome = runner(module, entry)
            totals[kind] += perf_counter() - start
            if kind == "traced":
                outcomes.append(outcome)
    return outcomes, totals["untraced"], totals["traced"]


def tail(samples_ms):
    """Highest percentile with at least ten samples beyond it; None below 20 samples."""
    n = len(samples_ms)
    if n < 2 * TAIL_MIN_BEYOND:
        return None
    rank = n - TAIL_MIN_BEYOND
    return {"percentile": round(100 * rank / n, 2), "value": sorted(samples_ms)[rank - 1]}


def judge(rounds, results):
    """Wrong answers, and the digest of the first report of every input.

    Later runs of the same input must repeat its report byte for byte.
    """
    first = {}
    wrong_requests = 0
    problems = []
    for r, _, outcomes in results:
        for position, outcome in enumerate(outcomes):
            key = (r % len(rounds), position)
            wrong = list(outcome.wrong)
            if key not in first:
                first[key] = outcome.report
            elif first[key] != outcome.report:
                wrong.append("report differs from the first run of this input")
            wrong_requests += max(outcome.wrong_requests, 1 if wrong else 0)
            if wrong:
                problems.append({"round": r, "item": rounds[key[0]][position].key, "problems": wrong})
    covered = b"".join(first[key] for key in sorted(first))
    digest = {
        "sha256": hashlib.sha256(covered).hexdigest(),
        "inputs_covered": len(first),
        "inputs": sum(len(items) for items in rounds),
    }
    return wrong_requests, problems, digest


def environment(hg):
    git_sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            git_sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            git_sha = ref
    rational = type(hg.rat(1))
    return {
        "python": platform.python_version(),
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
        "rational_type": f"{rational.__module__}.{rational.__qualname__}",
        "hgforge_file": hg.__file__,
        "hgforge_in_checkout": Path(hg.__file__).resolve().is_relative_to(ROOT),
        "git_sha": git_sha,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def latency(samples_ms):
    """Median and tail of one request kind, with the sample count."""
    return {"p50_ms": statistics.median(samples_ms), "tail_ms": tail(samples_ms), "samples": len(samples_ms)}


def end_to_end(results, elapsed, setup_s):
    check_ms = [o.check_s * 1000 for _, _, outs in results for o in outs]
    recover_ms = [o.recover_s * 1000 for _, _, outs in results for o in outs]
    requests = sum(o.requests for _, _, outs in results for o in outs)
    metrics = {
        "ops_per_s": (requests / elapsed, "1/s"),
        "check_mean_ms": (statistics.fmean(check_ms), "ms"),
        "recover_mean_ms": (statistics.fmean(recover_ms), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, {"check": latency(check_ms), "recover": latency(recover_ms)}, requests


def main(args):
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    runner = workloads.RUNNERS[args.workload]
    if args.trace:
        # an untraced copy of the inputs, then a traced set-up and loop
        hg_plain, rounds_plain, _ = setup(args.workload, args.seed, workdir / "plain")
        tracer = spans.Tracer()
        hg, rounds, _ = setup(args.workload, args.seed, workdir / "traced", tracer)
        paths = [item.path for items in rounds for item in items if item.path]
        tracer.file_sizes = {path: os.path.getsize(path) for path in paths}
        plain, traced = (hg_plain, rounds_plain[0]), (hg, rounds[0])
        outcomes, untraced_s, traced_s = paired_round(runner, plain, traced, tracer)
        results, elapsed = timed_loop(runner, hg, rounds, args.seconds, tracer, [(0, traced_s, outcomes)])
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        metrics["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")
        span_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(span_path)
        info["spans_file"] = str(span_path.relative_to(ROOT))
        info["untraced_first_round_s"] = untraced_s
        info["traced_first_round_s"] = traced_s
        requests = sum(o.requests for _, _, outs in results for o in outs)
    else:
        setup_times = []
        for _ in range(SETUPS):
            hg, rounds, seconds = setup(args.workload, args.seed, workdir)
            setup_times.append(seconds)
        results, elapsed = timed_loop(runner, hg, rounds, args.seconds)
        metrics, latencies, requests = end_to_end(results, elapsed, statistics.median(setup_times))
        info["setup_times_s"] = setup_times
        info["latency"] = latencies

    wrong_requests, problems, digest = judge(rounds, results)
    info.update(
        env=environment(hg),
        inputs=workloads.describe_inputs(rounds),
        round_s=[duration for _, duration, _ in results],
        timed_s=elapsed,
        requests=requests,
        wrong_share=wrong_requests / requests,
        wrong=problems[:10],
        report_digest=digest,
    )
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": requests,
        "failed": wrong_requests,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


if __name__ == "__main__":
    cli_args = parse_args()
    if not (SRC / "hgforge" / "__init__.py").is_file():
        print(f"error: no hgforge sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main(cli_args))
