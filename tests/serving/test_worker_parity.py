"""Worker parity: the parallel path changes wall-clock, never verdicts.

Two layers of proof.  The golden-fixture tests pin the *absolute*
delivered sequence: a replay through N persistent workers must match the
committed ``replay_golden_verdicts.json`` byte for byte, under every
float backend.  The invariance tests pin the
*relative* claim: for any worker count — including mixed privacy levels
routing sessions to different model variants, each with its own
executor — the verdict stream is identical to the in-process one.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.serving import (
    InferenceServer,
    ServingModelRegistry,
    replay_concurrent_drives,
)

GOLDEN_PATH = Path(__file__).parent.parent / "fixtures" / \
    "replay_golden_verdicts.json"

#: Must stay in lockstep with test_replay_golden.REPLAY_ARGS — both files
#: compare against the same committed fixture.
REPLAY_ARGS = dict(drivers=2, duration=3.0, kill_camera=1, seed=11)


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["numpy-compiled"])
@pytest.mark.parametrize("workers", [1, 2])
def test_worker_replay_matches_golden_fixture(serving_ensemble, workers,
                                              backend):
    """N workers deliver the exact committed verdict sequence.

    This is the strongest parity statement available: not merely
    "workers agree with in-process" but "workers agree with the pinned
    fixture that every backend and every past commit agreed with".
    """
    report = replay_concurrent_drives(serving_ensemble, backend=backend,
                                      workers=workers, **REPLAY_ARGS)
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["replay_args"] == REPLAY_ARGS
    assert len(report.verdict_log) == len(golden["verdicts"])
    for index, (got, want) in enumerate(
            zip(report.verdict_log, golden["verdicts"])):
        assert got == want, (
            f"verdict #{index} diverged with {workers} workers "
            f"under {backend}")


def test_worker_counts_deliver_identical_verdict_streams(serving_ensemble):
    """0, 1, and 2 workers: one verdict log, bit for bit."""
    reports = {
        workers: replay_concurrent_drives(
            serving_ensemble, drivers=3, duration=2.0, seed=23,
            workers=workers)
        for workers in (0, 1, 2)
    }
    baseline = reports[0]
    assert baseline.verdicts > 0
    for workers in (1, 2):
        report = reports[workers]
        assert report.workers == workers
        assert report.verdict_log == baseline.verdict_log
        assert report.degraded_verdicts == baseline.degraded_verdicts
        assert report.verdicts_per_session == baseline.verdicts_per_session


@pytest.mark.slow
def test_four_workers_match_in_process_replay(serving_ensemble):
    """More workers than drivers still shards cleanly and agrees."""
    baseline = replay_concurrent_drives(serving_ensemble, drivers=3,
                                        duration=2.0, seed=29, workers=0)
    pooled = replay_concurrent_drives(serving_ensemble, drivers=3,
                                      duration=2.0, seed=29, workers=4)
    assert pooled.verdict_log == baseline.verdict_log


def _mixed_privacy_verdicts(ensemble, dataset, *, workers: int):
    """Delivered (session, sequence, predicted) under privacy routing.

    Two registered variants (the same trained weights under two names)
    bound to different privacy rungs force the server to keep one
    executor per variant; sessions at None/"medium"/"high" then exercise
    routing and per-variant worker pools in one step loop.
    """
    registry = ServingModelRegistry()
    registry.register("full", ensemble)
    registry.register("med", ensemble)
    registry.bind(None, "full")
    registry.bind("medium", "med")
    server = InferenceServer(registry, max_batch=8, workers=workers)
    try:
        levels = [None, "medium", "high", None, "medium", "high"]
        sids = [server.open_session(d, privacy=level)
                for d, level in enumerate(levels)]
        delivered = []
        for k in range(4):
            now = 0.25 * k
            for index, sid in enumerate(sids):
                window = dataset.imu[index]
                server.ingest_imu(sid, now, window[k % window.shape[0]])
                server.ingest_frame(sid, now, dataset.images[index])
            if k == 3:
                for sid in sids:
                    assert server.request_verdict(sid, now)
                for verdict in server.drain(now):
                    delivered.append((verdict.session_id, verdict.sequence,
                                      verdict.predicted, verdict.degraded,
                                      verdict.model_key))
        return delivered
    finally:
        server.close()


def test_mixed_privacy_levels_are_worker_count_invariant(
        serving_ensemble, tiny_driving_dataset):
    """Privacy-routed sessions get identical verdicts at 0/1/2 workers."""
    baseline = _mixed_privacy_verdicts(serving_ensemble,
                                       tiny_driving_dataset, workers=0)
    assert len(baseline) == 6
    assert {key for *_, key in baseline} == {"full", "med"}
    for workers in (1, 2):
        assert _mixed_privacy_verdicts(
            serving_ensemble, tiny_driving_dataset,
            workers=workers) == baseline
