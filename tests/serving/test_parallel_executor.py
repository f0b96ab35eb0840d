"""ParallelExecutor: persistent workers, tickets, telemetry, lifecycle."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.serving import ParallelExecutor, default_worker_count
from repro.serving.executor import RING_SLOTS, _encode_meta


def test_negative_workers_rejected(serving_ensemble):
    with pytest.raises(ConfigurationError):
        ParallelExecutor(serving_ensemble, workers=-1)


def test_zero_workers_runs_in_process(serving_ensemble,
                                      tiny_driving_dataset):
    """workers=0 is the plain path: bit-exact, no processes, no shards."""
    images = tiny_driving_dataset.images[:12]
    windows = tiny_driving_dataset.imu[:12]
    direct = serving_ensemble.predict_degraded(images=images, imu=windows)
    with ParallelExecutor(serving_ensemble, workers=0) as executor:
        ticket = executor.submit(images=images, imu=windows)
        assert ticket.inproc is not None and ticket.jobs == []
        pooled = executor.collect(ticket)
        assert executor.last_shards == []
    np.testing.assert_array_equal(direct.probabilities, pooled.probabilities)
    np.testing.assert_array_equal(direct.predictions, pooled.predictions)


def test_single_worker_is_bit_exact(serving_ensemble, tiny_driving_dataset):
    """One worker gets the whole batch: same row count, same GEMM, bit
    for bit the same probabilities back through the response ring."""
    images = tiny_driving_dataset.images[:12]
    windows = tiny_driving_dataset.imu[:12]
    direct = serving_ensemble.predict_degraded(images=images, imu=windows)
    with ParallelExecutor(serving_ensemble, workers=1) as executor:
        pooled = executor.predict_degraded(images=images, imu=windows)
    np.testing.assert_array_equal(direct.probabilities, pooled.probabilities)
    np.testing.assert_array_equal(direct.predictions, pooled.predictions)


def test_four_workers_match_in_process(serving_ensemble,
                                       tiny_driving_dataset):
    """Shard execution must not change verdicts, order, or metadata.

    Probabilities are compared to BLAS rounding (GEMM blocking depends
    on the row count), predictions exactly.
    """
    images = tiny_driving_dataset.images[:13]  # uneven split across 4
    windows = tiny_driving_dataset.imu[:13]
    direct = serving_ensemble.predict_degraded(images=images, imu=windows)
    with ParallelExecutor(serving_ensemble, workers=4) as executor:
        pooled = executor.predict_degraded(images=images, imu=windows)
        again = executor.predict_degraded(images=images, imu=windows)
        imu_only = executor.predict_degraded(imu=windows)
    np.testing.assert_allclose(direct.probabilities, pooled.probabilities,
                               atol=1e-7)
    np.testing.assert_array_equal(direct.predictions, pooled.predictions)
    assert pooled.degraded == direct.degraded
    assert pooled.missing == direct.missing
    # The rings are reused across calls without corrupting results.
    np.testing.assert_array_equal(pooled.probabilities, again.probabilities)
    # Degraded metadata survives the worker round-trip, through a
    # geometry that gained the imu-only modality after spawn.
    direct_imu = serving_ensemble.predict_degraded(imu=windows)
    np.testing.assert_allclose(direct_imu.probabilities,
                               imu_only.probabilities, atol=1e-7)
    assert imu_only.degraded and "frames" in imu_only.missing


def test_submit_overlaps_batches_before_collect(serving_ensemble,
                                                tiny_driving_dataset):
    """The async front-end: several tickets in flight, collected later
    in submission order — the server's two-phase step in miniature."""
    images = tiny_driving_dataset.images
    windows = tiny_driving_dataset.imu
    direct = [serving_ensemble.predict_degraded(
        images=images[lo:lo + 6], imu=windows[lo:lo + 6])
        for lo in (0, 6, 12)]
    with ParallelExecutor(serving_ensemble, workers=2) as executor:
        tickets = [executor.submit(images=images[lo:lo + 6],
                                   imu=windows[lo:lo + 6])
                   for lo in (0, 6, 12)]
        assert all(len(t.jobs) == 2 for t in tickets)
        results = [executor.collect(t) for t in tickets]
    for want, got in zip(direct, results):
        np.testing.assert_array_equal(want.predictions, got.predictions)


def test_workers_report_shard_and_ring_telemetry(serving_ensemble,
                                                 tiny_driving_dataset):
    """Shard intervals, histograms, status blocks, occupancy gauges."""
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    images = tiny_driving_dataset.images[:10]
    windows = tiny_driving_dataset.imu[:10]
    with ParallelExecutor(serving_ensemble, workers=2,
                          metrics=registry) as executor:
        executor.predict_degraded(images=images, imu=windows)
        shards = list(executor.last_shards)
        occupancy = executor.ring_occupancy()
        statuses = [executor.worker_status(i) for i in range(2)]
    assert [(lo, hi) for lo, hi, _, _ in shards] == [(0, 5), (5, 10)]
    assert all(end >= start for _, _, start, end in shards)
    shard_hist = registry.get("serving_executor_shard_seconds")
    assert shard_hist is not None and shard_hist.count == 2
    handoff = registry.get("serving_executor_handoff_seconds")
    assert handoff is not None and handoff.count == 2
    # Between steps both rings are drained.
    assert occupancy == {0: (0, 0), 1: (0, 0)}
    assert registry.get("serving_ring_occupancy", worker="0",
                        ring="request").value == 0
    for status in statuses:
        assert status["alive"] and status["plans_pinned"]
        assert status["jobs_done"] == 1
        assert status["busy_seconds"] > 0


def test_worker_metrics_drain_back_to_parent(serving_ensemble,
                                             tiny_driving_dataset):
    """Telemetry recorded inside the forked workers (sampled per-layer
    forward timings) rides the response meta and merges into the parent
    registry — the fork doesn't black-hole observability."""
    from repro.nn.runtime import profiled_layers, set_layer_profiling
    from repro.obs.metrics import get_registry

    def layer_samples() -> int:
        return sum(metric.count for metric in get_registry().metrics()
                   if metric.name == "nn_layer_forward_seconds")

    images = tiny_driving_dataset.images[:10]
    windows = tiny_driving_dataset.imu[:10]
    with profiled_layers(1):
        with ParallelExecutor(serving_ensemble, workers=2) as executor:
            # The first flush forks the workers, which inherit sampling.
            executor.predict_degraded(images=images, imu=windows)
            # The parent stops sampling: new samples can only be the
            # workers', drained back with their responses.
            set_layer_profiling(0)
            before = layer_samples()
            executor.predict_degraded(images=images, imu=windows)
            assert layer_samples() > before


def test_single_sample_batch_round_trips(serving_ensemble,
                                         tiny_driving_dataset):
    """count < workers: the batch collapses to one shard, one worker."""
    images = tiny_driving_dataset.images[:1]
    windows = tiny_driving_dataset.imu[:1]
    direct = serving_ensemble.predict_degraded(images=images, imu=windows)
    with ParallelExecutor(serving_ensemble, workers=4) as executor:
        ticket = executor.submit(images=images, imu=windows)
        assert len(ticket.jobs) == 1
        pooled = executor.collect(ticket)
    np.testing.assert_array_equal(direct.probabilities, pooled.probabilities)


def test_larger_batch_rebuilds_geometry(serving_ensemble,
                                        tiny_driving_dataset):
    """A batch beyond max_rows forces a one-time ring rebuild."""
    images = tiny_driving_dataset.images
    windows = tiny_driving_dataset.imu
    with ParallelExecutor(serving_ensemble, workers=1,
                          max_rows=4) as executor:
        small = executor.predict_degraded(images=images[:3],
                                          imu=windows[:3])
        big = executor.predict_degraded(images=images[:9],
                                        imu=windows[:9])
    direct = serving_ensemble.predict_degraded(images=images[:9],
                                               imu=windows[:9])
    assert small.predictions.shape == (3,)
    np.testing.assert_array_equal(direct.predictions, big.predictions)


def test_rebuild_deferred_while_tickets_in_flight(serving_ensemble,
                                                  tiny_driving_dataset):
    """A batch needing a ring rebuild mid-step must not tear the rings
    down under earlier, uncollected tickets: it serves in-process, the
    in-flight ticket collects unharmed (no spurious crash, no timeout),
    and the rebuild lands once the step drains."""
    images = tiny_driving_dataset.images[:4]
    windows = tiny_driving_dataset.imu[:4]
    direct_imu = serving_ensemble.predict_degraded(imu=windows)
    direct_both = serving_ensemble.predict_degraded(images=images,
                                                    imu=windows)
    with ParallelExecutor(serving_ensemble, workers=1) as executor:
        first = executor.submit(imu=windows)    # spawns imu-only rings
        assert first.jobs
        second = executor.submit(images=images, imu=windows)
        assert second.inproc is not None        # rebuild deferred
        got_first = executor.collect(first, timeout=10.0)
        got_second = executor.collect(second)
        assert executor.worker_status(0)["crashes"] == 0
        third = executor.submit(images=images, imu=windows)
        assert third.jobs                       # rebuilt after the drain
        got_third = executor.collect(third, timeout=10.0)
    np.testing.assert_array_equal(direct_imu.predictions,
                                  got_first.predictions)
    np.testing.assert_array_equal(direct_both.predictions,
                                  got_second.predictions)
    np.testing.assert_array_equal(direct_both.predictions,
                                  got_third.predictions)


def test_deep_backlog_is_backpressure_not_a_crash(serving_ensemble,
                                                  tiny_driving_dataset):
    """More batches in one phase than the rings can pipeline (request
    slots + response slots + one in compute): submit drains finished
    responses to keep the worker moving instead of misreading the full
    ring as a crash and shooting a healthy process."""
    images = tiny_driving_dataset.images[:2]
    windows = tiny_driving_dataset.imu[:2]
    direct = serving_ensemble.predict_degraded(images=images, imu=windows)
    with ParallelExecutor(serving_ensemble, workers=1) as executor:
        tickets = [executor.submit(images=images, imu=windows)
                   for _ in range(3 * RING_SLOTS)]
        assert all(t.inproc is None and t.jobs for t in tickets)
        results = [executor.collect(t, timeout=10.0) for t in tickets]
        assert executor.worker_status(0)["crashes"] == 0
    for got in results:
        np.testing.assert_array_equal(direct.predictions, got.predictions)


def test_encode_meta_truncates_instead_of_overflowing():
    """A model error whose repr exceeds the meta slab degrades to a
    truncated report — never an oversized blob that would crash the
    worker on the slab slice assignment."""
    meta_max = 1 << 16
    small = _encode_meta("ValueError('bad row')", None, meta_max)
    assert pickle.loads(small) == {"error": "ValueError('bad row')"}
    huge = _encode_meta("ValueError(" + "x" * (4 * meta_max) + ")",
                        None, meta_max)
    assert len(huge) <= meta_max
    assert pickle.loads(huge)["error"].startswith("ValueError(")


def test_close_is_idempotent(serving_ensemble, tiny_driving_dataset):
    executor = ParallelExecutor(serving_ensemble, workers=2)
    executor.predict_degraded(images=tiny_driving_dataset.images[:4],
                              imu=tiny_driving_dataset.imu[:4])
    executor.close()
    executor.close()  # second close must be a no-op, not an error


def test_close_before_first_submit(serving_ensemble):
    """No lazy spawn ever happened: nothing to tear down, no error."""
    ParallelExecutor(serving_ensemble, workers=2).close()


def test_default_worker_count_is_cores_minus_one(monkeypatch):
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert default_worker_count() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert default_worker_count() == 0
