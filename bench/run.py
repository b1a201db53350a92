"""Benchmark for the kbonacci command-line tool.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the code under test is the src/ next to this bench/
directory.  Each request is one `kbonacci <command> ...` call made the way
a user makes it: a fresh interpreter (bench/worker.py) imports kbonacci.cli
from src/ and calls main(argv) with stdout captured.  Requests are sent in a
closed loop by one client: the next worker starts when the previous one has
exited, so one worker runs at a time.  Workloads and their reasons are in
workloads.py and BENCHMARK.json.

--trace 0 (timed run) sends whole rounds of requests (workloads.py) until
the round boundary nearest to --seconds, and at least the workload's minimum
number of requests, and reports per workload:

  setup_s          median time from spawning a worker until main can be called
  latency_p50_s    median time inside main(argv)
  latency_tail_s   the tail percentile of the same (which one, and the sample
                   count, are printed; see tail_percentile)
  throughput_rps   requests completed / summed time inside main
  peak_rss_mb      highest worker peak RSS (VmHWM; see worker.peak_rss)
  error_rate       requests whose exit code or output fails reference.check,
                   over requests attempted (printed, and carried by the
                   "failed" field of the result rather than as a metric,
                   because it is 0 on a correct program)

--trace 1 (traced run) takes every second request of the seed's first round
in design order, an even spread over the request sizes, and sends each one
plain and then with spans and counters (tracing.py); their untraced and
traced throughput give the tracing overhead.  Every fourth request of the
round is sent once more with tracemalloc, which slows a request about
18-fold.  It reports the per-layer metrics listed in BENCHMARK.json.  The
requests are fixed by the seed, so every count repeats exactly for the same
seed.

Every run checks every output against reference.py, checks that kbonacci
was imported from this checkout's src/, and writes its records with an
environment stamp to bench/out/.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
REQUEST_TIMEOUT_S = 120
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)

# Which end-to-end metric each layer's metrics should move, on which workload.
LAYER_TARGETS = {
    "cli": "latency_p50_s on numeric-mix (triangle dumps) and on the "
    "--show-matrix requests of prove-ladder; negligible on sweep-ranges",
    "prover": "latency_tail_s and throughput_rps on prove-ladder, throughput_rps "
    "on sweep-ranges; nothing on numeric-mix",
    "triangles": "latency_p50_s and latency_tail_s on prove-ladder, throughput_rps "
    "on sweep-ranges; peak_rss_mb on numeric-mix (useful_ratio near 1 there)",
    "intpoly": "latency_tail_s on sweep-ranges (Bareiss), and the decimate share "
    "of numeric-mix; a small share on prove-ladder",
    "decimation": "latency_tail_s and throughput_rps on sweep-ranges, latency_p50_s "
    "on numeric-mix; nothing on prove-ladder",
    "sequences": "throughput_rps and peak_rss_mb on numeric-mix; small on "
    "sweep-ranges; nothing on prove-ladder",
    "memory (<layer>.peak_mb)": "peak_rss_mb, mainly on numeric-mix",
}


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


# --- environment ---------------------------------------------------------------


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
    }


# --- requests ------------------------------------------------------------------


def send(argv: list[str], mode: str = "plain", keep_output: bool = False) -> dict:
    """Run one request in a fresh worker, check that the code under test came
    from this checkout, and check its output against the reference."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), mode, *argv]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"request timed out after {REQUEST_TIMEOUT_S} s: {argv}")
    if proc.returncode != 0:
        raise BenchError(f"worker failed on {argv}: {proc.stderr.strip()[-500:]}")
    head, spans = proc.stdout.split("\n", 1)
    report = json.loads(head)
    report["spans"] = spans.strip()
    module = Path(report["module"]).resolve()
    if not module.is_relative_to(SRC.resolve()):
        raise BenchError(f"kbonacci was imported from {module}, not from {SRC}")
    report["setup"] = report["ready"] - spawned
    report["argv"] = argv
    report["error"] = reference.check(argv, report["code"], report["output"])
    if not keep_output:
        del report["output"]  # triangle dumps run to megabytes
    return report


def error_rate(reports: list[dict]) -> float:
    return sum(r["error"] is not None for r in reports) / len(reports)


def self_test(argv: list[str]) -> None:
    """Send one request untimed (it also fills src/**/__pycache__).  The
    checker must pass it, and must flag the same output with its last number
    changed and the same output with a wrong exit code; both must count in
    error_rate."""
    report = send(argv, keep_output=True)
    if report["error"] is not None:
        return  # a wrong answer: the timed requests will count it
    code, output = report["code"], report["output"]
    bad = [
        {"error": reference.check(argv, c, o)}
        for c, o in [(code, reference.corrupt(output)), (code + 1, output)]
    ]
    if error_rate(bad) != 1:
        raise BenchError(f"reference checker missed a corrupted output of {argv}")


# --- timed run -----------------------------------------------------------------


def tail_percentile(minimum: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it, taken
    at the workload's minimum request count so that it stays the same when
    the program gets faster and a run makes more requests."""
    return max(p for p in TAIL_LADDER if minimum * (100 - p) / 100 >= 10)


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def timed_run(workload: str, seed: int, seconds: float) -> tuple[list[dict], dict]:
    minimum = workloads.WORKLOADS[workload][1]
    stream = workloads.shuffled_rounds(workload, seed)
    first = next(stream)
    self_test(first[0])
    reports: list[dict] = []
    start = time.perf_counter()
    rnd = first
    while True:
        began = time.perf_counter()
        reports.extend(send(argv) for argv in rnd)
        # stop at the round boundary nearest to --seconds, so that only whole
        # rounds (and so the same mix of request sizes) are measured
        now = time.perf_counter()
        if len(reports) >= minimum and now - start >= seconds - (now - began) / 2:
            break
        rnd = next(stream)
    latencies = [r["seconds"] for r in reports]
    p = tail_percentile(minimum)
    metrics = {
        "setup_s": statistics.median(r["setup"] for r in reports),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": nearest_rank(latencies, p),
        "throughput_rps": len(reports) / sum(latencies),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in reports) * 1024 / 1e6,
    }
    info = {"tail_percentile": p, "samples": len(reports), "error_rate": error_rate(reports)}
    return reports, {"metrics": metrics, **info}


# --- traced run ----------------------------------------------------------------


def traced_run(workload: str, seed: int, spans_path: Path) -> tuple[list[dict], dict]:
    requests = next(workloads.rounds(workload, seed))[::2]
    self_test(requests[0])
    plain, timed = [], []
    with gzip.open(spans_path, "wt", compresslevel=1) as dump:
        for i, argv in enumerate(requests):
            # plain and traced alternate, so drift in host speed falls on both
            plain.append(send(argv))
            report = send(argv, "time")
            head = json.dumps({"request": i, "argv": argv})[:-1]
            dump.write(f'{head}, "spans": {report.pop("spans")}}}\n')
            timed.append(report)
    memory = [send(argv, "memory") for argv in requests[::2]]

    table: dict[str, float] = defaultdict(int)
    for report in timed:
        trace = report["trace"]
        for name, ns in trace["self_ns"].items():
            table[f"{name.partition('.')[0]}.self_s"] += ns / 1e9
            if not name.endswith(".import"):
                table[f"{name}.self_s"] += ns / 1e9
        for name, n in trace["calls"].items():
            table[f"{name}.calls"] += n
        for name, n in trace["counts"].items():
            if name.endswith("_bits"):
                table[name] = max(table[name], n)
            else:
                table[name] += n
        table["cli.output_bytes"] += trace["output_bytes"]
    built = table["triangles.entries_built"]
    table["triangles.useful_ratio"] = (
        table["triangles.entries_returned"] / built if built else 0.0
    )
    for report in memory:
        for layer, peak in report["trace"]["peak_bytes"].items():
            table[f"{layer}.peak_mb"] = max(table[f"{layer}.peak_mb"], peak / 1e6)
    plain_rps = len(plain) / sum(r["seconds"] for r in plain)
    traced_rps = len(timed) / sum(r["seconds"] for r in timed)
    table["tracing.overhead_rps"] = plain_rps - traced_rps
    info = {
        "untraced_throughput_rps": plain_rps,
        "traced_throughput_rps": traced_rps,
        "error_rate": error_rate(plain + timed + memory),
        "layer_targets": LAYER_TARGETS,
    }
    return plain + timed + memory, {"metrics": dict(sorted(table.items())), **info}


# --- main ----------------------------------------------------------------------


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kbonacci" / "cli.py").is_file():
        print(f"error: no kbonacci sources under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    env = environment(args.workload, args.seed)
    try:
        if args.trace:
            reports, summary = traced_run(
                args.workload, args.seed, OUT / f"{stem}.spans.jsonl.gz"
            )
        else:
            reports, summary = timed_run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    declared = declared_metrics(bool(args.trace))
    table = summary["metrics"]
    metrics = {
        m["name"]: {"value": table.get(m["name"], 0), "unit": m["unit"]} for m in declared
    }
    failed = sum(r["error"] is not None for r in reports)
    record = {
        "environment": env,
        **summary,
        "requests": [
            {k: r[k] for k in ("argv", "setup", "seconds", "code", "peak_rss_kb", "error")}
            for r in reports
        ],
    }
    kind = "layers" if args.trace else "e2e"
    (OUT / f"{stem}.{kind}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("environment: " + json.dumps(env))
    if args.trace:
        for name, value in table.items():
            print(f"{args.workload}  {name} = {value:.6g}")
        print(f"{args.workload}  tracing overhead: {table['tracing.overhead_rps']:.6g} 1/s "
              f"(untraced {summary['untraced_throughput_rps']:.6g}, "
              f"traced {summary['traced_throughput_rps']:.6g})")
    else:
        for name, m in metrics.items():
            print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
        print(f"{args.workload}  latency_tail_s is p{summary['tail_percentile']:g} "
              f"of {summary['samples']} requests")
        print(f"{args.workload}  error_rate = {summary['error_rate']:.6g} "
              f"({failed} of {len(reports)})")
    for r in reports:
        if r["error"] is not None:
            print(f"FAILED {' '.join(r['argv'])}: {r['error']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reports),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
