"""The repository benchmark: end-to-end and per-layer serving metrics.

One workload per run::

    python3 darbench/run.py --workload fleet --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of an untraced,
time-bounded drive.  ``--trace 1`` runs a fixed-length drive twice,
untraced and traced, and reports per-layer self time and counts.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when an output check fails.

Every workload, one row per workload::

    python3 darbench/run.py --workload all

See ``darbench/README.md`` for the metrics, workloads and layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

# One BLAS thread: the serving path is single-threaded (``workers=0``),
# and on a host of two or so shared CPUs a second BLAS thread measures the
# scheduler.  Set before numpy loads; provenance records the caps.
for _cap in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_cap] = "1"

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_out")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")

#: The seed runs use unless told otherwise, and the seed held out for
#: checking a claimed gain on inputs not used while writing the change.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Ticks at the start of a timed drive left out of its metrics.
WARMUP_TICKS = 40
#: Ticks per block: the drive after warm-up is cut into blocks of at
#: least this many ticks: latency p50 is the mean of the per-block p50s,
#: p95 the median of the per-block p95s.
BLOCK_TICKS = 100
#: Ticks a timed drive runs at least: warm-up plus two blocks, so that
#: ten ticks lie beyond p95.
MIN_TICKS = WARMUP_TICKS + 2 * BLOCK_TICKS
#: Fixed drive length of a traced run, per workload.
TRACE_TICKS = {"fleet": 320, "durable-mixed": 200, "edge": 240}

END_TO_END_UNITS = {
    "verdicts_per_s": "verdicts/s",
    "verdict_latency_p50_ms": "ms",
    "verdict_latency_p95_ms": "ms",
    "delivered_ratio": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> unit.  Seconds are self time summed over
#: the traced drive unless the README says otherwise.
LAYER_UNITS = {
    "scenarios.synth_s": "s",
    "model.build_s": "s",
    "sessions.ingest_s": "s",
    "sessions.ingests": "count",
    "admission.request_s": "s",
    "admission.rejected": "count",
    "scheduler.batches": "count",
    "scheduler.rows_per_batch": "rows/batch",
    "scheduler.queue_wait_s": "s",
    "scheduler.shed": "count",
    "server.step_s": "s",
    "server.dispatch_overhead_s": "s",
    "core.forward_s": "s",
    "core.forward_calls": "count",
    "core.forward_rows": "count",
    "nn.cnn_s": "s",
    "nn.cnn_calls": "count",
    "nn.cnn_rows": "count",
    "nn.rnn_s": "s",
    "nn.rnn_calls": "count",
    "nn.rnn_rows": "count",
    "core.combine_s": "s",
    "supervisor.request_s": "s",
    "supervisor.step_s": "s",
    "supervisor.overhead_s": "s",
    "checkpoint.take_s": "s",
    "checkpoint.takes": "count",
    "journal.append_s": "s",
    "journal.appends": "count",
    "journal.sync_s": "s",
    "journal.syncs": "count",
    "journal.pump_s": "s",
    "journal.bytes": "bytes",
    "privacy.distort_s": "s",
    "edge.step_s": "s",
    "edge.spool_append_s": "s",
    "edge.spool_appends": "count",
    "edge.spool_ack_s": "s",
    "edge.spool_sync_s": "s",
    "edge.upload_step_s": "s",
    "edge.drain_ticks": "count",
    "uplink.packets_sent": "count",
    "uplink.retransmissions": "count",
    "uplink.useful_ratio": "fraction",
    "uplink.receive_s": "s",
    "trace.ticks": "count",
    "trace.drive_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "fraction",
}

#: Per-layer metric -> the span it reads (``_s`` self time, ``s`` calls).
SPAN_METRICS = {
    "sessions.ingest_s": "sessions.ingest",
    "admission.request_s": "admission.request",
    "server.step_s": "server.step",
    "core.forward_s": "core.forward",
    "nn.cnn_s": "nn.cnn",
    "nn.rnn_s": "nn.rnn",
    "core.combine_s": "core.combine",
    "supervisor.request_s": "supervisor.request",
    "supervisor.step_s": "supervisor.step",
    "checkpoint.take_s": "checkpoint.take",
    "journal.append_s": "journal.append",
    "journal.sync_s": "journal.sync",
    "journal.pump_s": "journal.pump",
    "privacy.distort_s": "privacy.distort",
    "edge.step_s": "edge.step",
    "edge.spool_append_s": "edge.spool_append",
    "edge.spool_ack_s": "edge.spool_ack",
    "edge.spool_sync_s": "edge.spool_sync",
    "edge.upload_step_s": "edge.upload_step",
    "uplink.receive_s": "uplink.receive",
}
CALL_METRICS = {
    "sessions.ingests": "sessions.ingest",
    "core.forward_calls": "core.forward",
    "nn.cnn_calls": "nn.cnn",
    "nn.rnn_calls": "nn.rnn",
    "checkpoint.takes": "checkpoint.take",
    "journal.syncs": "journal.sync",
}
ROW_METRICS = {
    "core.forward_rows": "core.forward",
    "nn.cnn_rows": "nn.cnn",
    "nn.rnn_rows": "nn.rnn",
}


def _import_program():
    """Put the program and the shared benchmark helpers on the path."""
    for path in (HERE, ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro  # noqa: F401 — fail early, before any output

    from benchmarks.provenance import host_provenance
    return host_provenance


def provenance() -> dict:
    """Host and revision context, with a digest of the program source."""
    host = _import_program()()
    hasher = hashlib.sha256()
    source = os.path.join(ROOT, "src")
    for directory, dirs, files in sorted(os.walk(source)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    hasher.update(handle.read())
    host["nproc"] = len(os.sched_getaffinity(0))
    host["source_sha256"] = hasher.hexdigest()[:16]
    return host


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def drive_timing(marks: list[tuple[float, int]],
                 latencies: list[float]) -> dict[str, float]:
    """Verdict rate after warm-up, and latency p50/p95 over blocks.

    ``marks`` holds (wall clock, latency samples so far) at the drive's
    start and after each tick; every latency sample is one verdict.  The
    host switches between fast and slow spells lasting seconds: a p50 of
    the whole drive jumps between them as their shares cross one half,
    while the mean of per-block p50s moves in proportion.  A burst of
    contention sets the p95 of the block it falls in; the median over
    blocks leaves it out.
    """
    edges = np.linspace(WARMUP_TICKS, len(marks) - 1,
                        max(1, (len(marks) - 1 - WARMUP_TICKS)
                            // BLOCK_TICKS) + 1).round().astype(int)
    p50s, p95s = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        block_ms = [1e3 * value
                    for value in latencies[marks[lo][1]:marks[hi][1]]]
        p50s.append(float(np.percentile(block_ms, 50)))
        p95s.append(float(np.percentile(block_ms, 95)))
    (start, first), (end, last) = marks[WARMUP_TICKS], marks[-1]
    return {"verdicts_per_s": (last - first) / (end - start),
            "verdict_latency_p50_ms": statistics.fmean(p50s),
            "verdict_latency_p95_ms": statistics.median(p95s),
            "blocks": len(p50s)}


def measure(name: str, seed: int, seconds: float, workdir: str) -> dict:
    """End-to-end metrics of one untraced, time-bounded drive."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    try:
        setups = [workload.setup()["setup_s"] for _ in range(SETUPS)]
        ticks, wall = workload.drive(seconds=seconds, min_ticks=MIN_TICKS)
        violations = workload.check()
        timing = drive_timing(workload.marks, workload.latencies)
        attempted = workload.requested
        delivered = workload.delivered()
        metrics = {
            "verdicts_per_s": timing["verdicts_per_s"],
            "verdict_latency_p50_ms": timing["verdict_latency_p50_ms"],
            "verdict_latency_p95_ms": timing["verdict_latency_p95_ms"],
            "delivered_ratio": delivered / attempted,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": _peak_rss_mb(),
        }
        return {
            "metrics": metrics, "attempted": attempted,
            "failed": attempted - delivered, "violations": violations,
            "detail": {"ticks": ticks, "drive_s": wall,
                       "latency_samples": len(workload.latencies),
                       "blocks": timing["blocks"],
                       "verdicts_over_drive_per_s": workload.verdicts() / wall,
                       "setup_samples_s": setups,
                       "digest": workload.digest},
        }
    finally:
        workload.close()


def measure_traced(name: str, seed: int, ticks: int, workdir: str,
                   spans_path: str | None = None) -> dict:
    """Per-layer metrics: the same fixed drive untraced, then traced."""
    from spans import SpanRecorder
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    try:
        workload.setup()
        _, untraced_wall = workload.drive(ticks=ticks)
        violations = workload.check()
        timings = workload.setup()
        recorder = SpanRecorder()
        workload.shim(recorder)
        with workload.traced_module(recorder):
            _, wall = workload.drive(ticks=ticks, recorder=recorder)
        totals = recorder.layer_totals()
        counts = workload.counts()
        if spans_path is not None:
            recorder.dump(spans_path)

        def total(span: str, field: str) -> float:
            return totals.get(span, {}).get(field, 0)

        metrics = {name_: 0 for name_ in LAYER_UNITS}
        metrics.update(
            {metric: total(span, "self_s")
             for metric, span in SPAN_METRICS.items()})
        metrics.update(
            {metric: total(span, "calls")
             for metric, span in CALL_METRICS.items()})
        metrics.update(
            {metric: total(span, "rows")
             for metric, span in ROW_METRICS.items()})
        metrics.update(counts)
        metrics.update({
            "scenarios.synth_s": timings["scenarios.synth_s"],
            "model.build_s": timings["model.build_s"],
            "server.dispatch_overhead_s": (
                total("server.step", "inclusive_s")
                - recorder.inclusive_under("core.forward", "server.step")),
            "supervisor.overhead_s": (
                total("supervisor.step", "inclusive_s")
                - recorder.inclusive_under("server.step", "supervisor.step")),
            "trace.ticks": ticks,
            "trace.drive_s": wall,
            "trace.unattributed_s": wall - recorder.top_level_seconds(),
            "trace.overhead_ratio": (wall - untraced_wall) / untraced_wall,
        })
        violations += workload.check()
        attempted = workload.requested
        return {
            "metrics": metrics, "attempted": attempted,
            "failed": attempted - workload.delivered(),
            "violations": violations,
            "detail": {"ticks": ticks, "untraced_drive_s": untraced_wall,
                       "digest": workload.digest,
                       "spans": len(recorder.spans)},
        }
    finally:
        workload.close()


def run_one(args) -> int:
    host = provenance()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(TMP_DIR, f"{args.workload}-{os.getpid()}")
    stem = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(workdir)
    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed,
                                    TRACE_TICKS[args.workload], workdir,
                                    spans_path=stem + ".spans.jsonl")
            units = LAYER_UNITS
        else:
            result = measure(args.workload, args.seed, args.seconds, workdir)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(TMP_DIR)
        except OSError:
            pass  # another run still uses it
    correct = not result["violations"]
    result.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, correct=correct,
                  host=host)
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, default=str)
    print(f"host: {json.dumps(host, sort_keys=True, default=str)}")
    print(f"detail: {json.dumps(result['detail'], default=str)}")
    for violation in result["violations"]:
        print(f"VIOLATION: {violation}")
    for metric, unit in units.items():
        print(f"{args.workload:14s} {metric:28s} "
              f"{result['metrics'][metric]:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {metric: {"value": result["metrics"][metric],
                             "unit": unit}
                    for metric, unit in units.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one row per workload."""
    from workloads import WORKLOADS

    rows, status = [], 0
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, capture_output=True, text=True,
                                   check=False)
        lines = completed.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.stderr.write(completed.stderr)
            print(f"{name}: no result (exit {completed.returncode})")
            status = 1
            continue
        detail = next((json.loads(line[len("detail: "):]) for line in lines
                       if line.startswith("detail: ")), {})
        status |= completed.returncode
        rows.append((name, result, detail))
        for line in lines:
            if line.startswith("VIOLATION"):
                print(f"{name}: {line}")
    metrics = list(rows[0][1]["metrics"]) if rows else []
    units = {m: rows[0][1]["metrics"][m]["unit"] for m in metrics}
    if args.trace:
        # Per-layer metrics are many: one row per metric reads better.
        print(f"{'metric':28s} {'unit':10s} " + " ".join(
            f"{name:>14s}" for name, _, _ in rows))
        for metric in metrics:
            print(f"{metric:28s} {units[metric]:10s} " + " ".join(
                f"{result['metrics'][metric]['value']:>14.6g}"
                for _, result, _ in rows))
        return status
    print(f"{'workload':14s} {'correct':7s} {'attempted':>9s} "
          f"{'failed':>6s} {'ticks':>5s} {'samples':>7s} " + " ".join(
              f"{metric} [{units[metric]}]" for metric in metrics))
    for name, result, detail in rows:
        print(f"{name:14s} {str(result['correct']):7s} "
              f"{result['attempted']:>9d} {result['failed']:>6d} "
              f"{detail['ticks']:>5d} {detail['latency_samples']:>7d} "
              + " ".join(f"{result['metrics'][metric]['value']:.6g}"
                         for metric in metrics))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="fleet, durable-mixed, edge, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed drive")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as error:
        sys.stderr.write(f"darbench: cannot import the program: {error}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in TRACE_TICKS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
