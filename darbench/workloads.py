"""The three benchmark workloads, driven closed loop through the public API.

Every workload builds its objects with the program's own defaults
(default backend, ``workers=0``, observability on, default batch,
journal and checkpoint settings), synthesizes its traces once per
set-up through ``compile_scenario(spec).traces()``, and then advances a
simulated 4 Hz clock one tick at a time: tick ``k`` runs at ``k * 0.25``
simulated seconds and starts only after tick ``k - 1``'s verdicts came
back.  The synthesized 10 s paper-sweep drive is replayed in passes
(trace instant ``k mod 40``) for as long as the run lasts.

* ``fleet`` — 32 drivers, one :class:`InferenceServer`, one variant.
* ``durable-mixed`` — 32 drivers through the default
  :class:`ShardSupervisor`, four privacy variants, a quarter of the
  drivers losing their camera from mid-pass on.
* ``edge`` — 8 :class:`EdgeAgent` s over lossy uplinks into a controller
  :class:`VerdictJournal`.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import os
import time

import numpy as np

import repro.edge.agent as edge_agent
from repro.core import CnnConfig, DarNetEnsemble, RnnConfig
from repro.core.privacy import PrivacyLevel, distort_restore
from repro.datasets import generate_driving_dataset
from repro.edge.agent import EdgeAgent
from repro.edge.spool import EdgeSpool
from repro.edge.uploader import EdgeUplinkReceiver, EdgeUploader
from repro.obs.metrics import MetricsRegistry
from repro.scenarios.compiler import DriverTrace, compile_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.serving.journal import (
    KIND_DEFERRED,
    KIND_VERDICT,
    StoreAndForwardSink,
    VerdictJournal,
    replay_journal,
)
from repro.serving.registry import ServingModelRegistry
from repro.serving.server import InferenceServer
from repro.serving.supervisor import ShardSupervisor
from repro.streaming.reliability import reliable_link

from checks import ForwardSampler, check_reference, digest, duplicates

_perf = time.perf_counter
#: The latency clock: CPU time of this process, which runs the program on
#: one thread.  On a small shared host the wall-clock tail of a verdict
#: is set by fsync waits on the virtual disk and by the hypervisor taking
#: the CPU away; both still count in ``verdicts_per_s``, which is wall
#: time, and in the traced run's ``journal.sync_s``/``edge.spool_sync_s``.
_clock = time.process_time

GRID = 0.25
#: Simulated seconds of synthesized drive; the drive loops over it.
PASS_SECONDS = 10.0
#: Privacy rungs in driver/agent order: full, low, medium, high.
LEVELS = (None, PrivacyLevel.LOW, PrivacyLevel.MEDIUM, PrivacyLevel.HIGH)
VARIANT_NAMES = ("full", "low", "medium", "high")
#: The model is not a workload input: one fixed seed for every run.
MODEL_SEED = 42


def build_ensemble() -> DarNetEnsemble:
    """The small CNN+RNN ensemble the serving benchmarks share."""
    rng = np.random.default_rng(MODEL_SEED)
    dataset = generate_driving_dataset(90, num_drivers=2, rng=rng)
    ensemble = DarNetEnsemble(
        "cnn+rnn", cnn_config=CnnConfig(epochs=1, width=0.5),
        rnn_config=RnnConfig(hidden_units=8, epochs=1), rng=rng)
    ensemble.fit(dataset)
    return ensemble


def build_variants() -> list[DarNetEnsemble]:
    """One distinct ensemble object per privacy rung (full first)."""
    base = build_ensemble()
    return [base] + [copy.deepcopy(base) for _ in LEVELS[1:]]


def _rows(args, kwargs) -> int:
    return len(args[0] if args else next(iter(kwargs.values())))


def _forward_rows(args, kwargs) -> int:
    images = kwargs.get("images")
    return len(images if images is not None else kwargs["imu"])


def shim_model(recorder, model) -> None:
    """Trace one ensemble's forward, its two members and its combiner."""
    recorder.shim(model, "predict_degraded", "core.forward", _forward_rows)
    recorder.shim(model.cnn, "predict_proba", "nn.cnn", _rows)
    recorder.shim(model.imu_model, "predict_proba", "nn.rnn", _rows)
    for attribute in ("predict_proba", "predict_proba_cnn_only",
                      "predict_proba_imu_only"):
        recorder.shim(model.combiner, attribute, "core.combine")


class Workload:
    """One set-up plus the closed-loop drive over it."""

    name = ""
    #: Upper bound on ticks a drive may run.
    max_ticks = 1 << 30

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        self.setups = 0
        self.sampler = ForwardSampler()
        self.latencies: list[float] = []
        #: (wall clock, latency samples so far) at the start of the drive
        #: and at the end of each of its ticks.
        self.marks: list[tuple[float, int]] = []
        self.log: list[tuple] = []
        self.requested = 0
        self.timings: dict[str, float] = {}

    def setup(self) -> dict[str, float]:
        """Build everything the drive needs; returns component timings."""
        self.close()
        # Earlier set-ups are garbage in reference cycles; collect them so
        # that peak memory reflects one set-up, as in a serving process.
        gc.collect()
        self.setups += 1
        self.directory = os.path.join(self.workdir, f"setup-{self.setups}")
        os.makedirs(self.directory)
        self.sampler = ForwardSampler()
        self.latencies, self.log, self.requested = [], [], 0
        start = _perf()
        self.variants = self._models()
        built = _perf()
        traces = compile_scenario(self._spec()).traces()
        synthesized = _perf()
        self._build(traces)
        for model in self.variants:
            self.sampler.install(model)
        end = _perf()
        self.timings = {"model.build_s": built - start,
                        "scenarios.synth_s": synthesized - built,
                        "setup_s": end - start}
        return self.timings

    def drive(self, *, seconds: float | None = None,
              ticks: int | None = None, min_ticks: int = 0,
              recorder=None) -> tuple[int, float]:
        """Run ticks until ``ticks`` ran, or ``seconds`` passed after at
        least ``min_ticks``; then drain.  Returns (ticks, wall seconds).
        """
        k = 0
        start = _perf()
        self.marks = [(start, len(self.latencies))]
        while k < self.max_ticks:
            if ticks is not None and k >= ticks:
                break
            if (seconds is not None and k >= min_ticks
                    and _perf() - start >= seconds):
                break
            if recorder is not None:
                recorder.tick = k
            self.tick(k)
            k += 1
            self.marks.append((_perf(), len(self.latencies)))
        if recorder is not None:
            recorder.tick = k
        self.finish(k * GRID)
        return k, _perf() - start

    # -- per-workload hooks ------------------------------------------------
    def _models(self) -> list[DarNetEnsemble]:
        return build_variants()

    def _spec(self) -> ScenarioSpec:
        raise NotImplementedError

    def _build(self, traces: list[DriverTrace]) -> None:
        raise NotImplementedError

    def tick(self, k: int) -> None:
        raise NotImplementedError

    def finish(self, now: float) -> None:
        raise NotImplementedError

    def delivered(self) -> int:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def shim(self, recorder) -> None:
        for model in self.variants:
            shim_model(recorder, model)

    def traced_module(self, recorder):
        """Module-level functions traced for the drive (none by default)."""
        del recorder
        return contextlib.nullcontext()

    def counts(self) -> dict[str, float]:
        """Layer counters the program keeps itself."""
        return {}

    def verdicts(self) -> int:
        """Verdicts the throughput metric counts: delivered ones."""
        return self.delivered()

    def close(self) -> None:
        pass

    @property
    def digest(self) -> str:
        return digest(self.log)


class _ServerWorkload(Workload):
    """Shared bookkeeping of the two server-side workloads."""

    def _spec(self) -> ScenarioSpec:
        return ScenarioSpec.paper_sweep(drivers=32, duration=PASS_SECONDS,
                                        seed=self.seed)

    def _servers(self) -> list[InferenceServer]:
        raise NotImplementedError

    def _log_verdicts(self, verdicts) -> None:
        self.log.extend((v.session_id, v.sequence, v.predicted, v.degraded)
                        for v in verdicts)

    def _delivered_class(self, sample, row: int) -> int | None:
        position = sample.tag + sample.offset + row
        return self.log[position][2] if position < len(self.log) else None

    def counts(self) -> dict[str, float]:
        servers = self._servers()
        batches = sum(s.scheduler.stats.batches for s in servers)
        rows = sum(s.scheduler.stats.dispatched for s in servers)
        queue_wait = sum(
            entry["sum"] for entry in self._snapshot()["metrics"]
            if entry["name"] == "serving_stage_queue_seconds")
        return {
            "scheduler.batches": batches,
            "scheduler.rows_per_batch": rows / batches if batches else 0.0,
            "scheduler.queue_wait_s": queue_wait,
            "scheduler.shed": sum(s.scheduler.stats.shed for s in servers),
            "admission.rejected": sum(
                s.admission.stats.requests_rejected for s in servers),
        }


class Fleet(_ServerWorkload):
    """32 live drivers, one server, one variant: one 32-row batch a tick."""

    name = "fleet"

    def _models(self) -> list[DarNetEnsemble]:
        return [build_ensemble()]

    def _build(self, traces: list[DriverTrace]) -> None:
        registry = ServingModelRegistry()
        registry.register("base", self.variants[0])
        registry.warm()
        self.server = InferenceServer(registry)
        self.instants = len(traces[0].frames)
        self.streams = []
        for trace in traces:
            sid = self.server.open_session(trace.driver_id)
            self.streams.append((sid, self.server.session(sid), trace.imu,
                                 trace.frames))
        self.pending: dict[tuple[str, int], float] = {}
        self.refused = 0

    def tick(self, k: int) -> None:
        now = k * GRID
        i = k % self.instants
        server, pending = self.server, self.pending
        for sid, session, imu, frames in self.streams:
            server.ingest_imu(sid, now, imu[i])
            server.ingest_frame(sid, now, frames[i])
            accepted = server.request_verdict(sid, now)
            returned = _clock()
            if accepted:
                pending[(sid, session.counters.requests)] = returned
            else:
                self.refused += 1
        self.requested += len(self.streams)
        self._step(now)
        self._step(now + server.scheduler.max_delay)
        for sid, _, _, _ in self.streams:
            server.poll(sid)  # a client drains its outbox

    def _step(self, now: float, *, force: bool = False) -> None:
        self.sampler.at(len(self.log))
        verdicts = self.server.step(now, force=force)
        done = _clock()
        for verdict in verdicts:
            self.latencies.append(
                done - self.pending.pop((verdict.session_id,
                                         verdict.sequence)))
        self._log_verdicts(verdicts)

    def finish(self, now: float) -> None:
        self._step(now, force=True)

    def _servers(self) -> list[InferenceServer]:
        return [self.server]

    def _snapshot(self) -> dict:
        return self.server.metrics_snapshot()

    def delivered(self) -> int:
        return len(self.log)

    def check(self) -> list[str]:
        stats = self.server.stats
        failures = (self.refused + stats.requests_failed
                    + stats.requests_expired
                    + self.server.scheduler.stats.shed)
        violations = []
        if self.requested != self.delivered() + failures:
            violations.append(
                f"ledger open: requested {self.requested} != delivered "
                f"{self.delivered()} + failed {failures}")
        if len(self.pending) != failures - self.refused:
            violations.append(
                f"{len(self.pending)} accepted requests unanswered, "
                f"{failures - self.refused} counted")
        repeated = duplicates((row[0], row[1]) for row in self.log)
        if repeated:
            violations.append(f"delivered twice: {repeated[:3]}")
        return violations + check_reference(self.sampler,
                                            self._delivered_class)

    def shim(self, recorder) -> None:
        super().shim(recorder)
        server = self.server
        recorder.shim(server, "ingest_imu", "sessions.ingest")
        recorder.shim(server, "ingest_frame", "sessions.ingest")
        recorder.shim(server, "request_verdict", "admission.request")
        recorder.shim(server, "step", "server.step")


class DurableMixed(_ServerWorkload):
    """32 drivers over 2 supervised shards, 4 variants, journaled."""

    name = "durable-mixed"

    def _build(self, traces: list[DriverTrace]) -> None:
        registry = ServingModelRegistry()
        for name, level, model in zip(VARIANT_NAMES, LEVELS, self.variants):
            registry.register(name, model)
            registry.bind(None if level is None else level.value, name)
        registry.warm()
        self.records = []
        self.journal = VerdictJournal(
            os.path.join(self.directory, "verdicts.wal"),
            registry=MetricsRegistry())
        self.supervisor = ShardSupervisor(registry, journal=self.journal,
                                          downstream=self.records.append)
        self.instants = len(traces[0].frames)
        opened, groups = [], {}
        for trace in traces:
            variant = trace.driver_id % len(LEVELS)
            level = LEVELS[variant]
            frames = trace.frames
            if level is not None:
                distorted = distort_restore(np.stack(frames)[:, None], level)
                frames = list(distorted[:, 0])
            sid = self.supervisor.open_session(
                trace.driver_id,
                privacy=None if level is None else level.value)
            opened.append((sid, trace.imu, frames))
            groups.setdefault((self.supervisor.assignment(sid), variant),
                              []).append(sid)
        # The seed picks one driver of each (shard, variant) group to lose
        # its camera: 8 of 32 at the default placement, and every seed
        # splits a camera-lost tick into the same batches.
        rng = np.random.default_rng(self.seed)
        killed = {members[rng.integers(len(members))]
                  for _, members in sorted(groups.items())}
        self.streams = [(sid, sid in killed, imu, frames)
                        for sid, imu, frames in opened]
        self.max_delay = self._servers()[0].scheduler.max_delay
        self.pending: dict[tuple[str, int], float] = {}

    def tick(self, k: int) -> None:
        now = k * GRID
        i = k % self.instants
        camera_lost = i >= self.instants // 2
        supervisor, pending = self.supervisor, self.pending
        for sid, killed, imu, frames in self.streams:
            supervisor.ingest_imu(sid, now, imu[i])
            if not (killed and camera_lost):
                supervisor.ingest_frame(sid, now, frames[i])
            window = supervisor.request_verdict(sid, now)
            pending[(sid, window)] = _clock()
        self.requested += len(self.streams)
        self._step(now)
        self._step(now + self.max_delay)

    def _step(self, now: float, *, drain: bool = False) -> None:
        mark = len(self.records)
        self.sampler.at(len(self.log))
        verdicts = (self.supervisor.drain(now) if drain
                    else self.supervisor.step(now))
        done = _clock()
        for record in self.records[mark:]:
            started = self.pending.pop(record.record_id, None)
            if record.kind == KIND_VERDICT and started is not None:
                self.latencies.append(done - started)
        self._log_verdicts(verdicts)

    def finish(self, now: float) -> None:
        self._step(now, drain=True)

    def _servers(self) -> list[InferenceServer]:
        return [self.supervisor.shard(name).server
                for name in self.supervisor.shard_names]

    def _snapshot(self) -> dict:
        return self.supervisor.metrics_snapshot()

    def delivered(self) -> int:
        return len(self.supervisor.delivered_ids)

    def check(self) -> list[str]:
        supervisor = self.supervisor
        delivered, deferred = supervisor.delivered_ids, supervisor.deferred_ids
        violations = []
        if self.requested != len(delivered) + len(deferred):
            violations.append(
                f"ledger open: requested {self.requested} != delivered "
                f"{len(delivered)} + deferred {len(deferred)}")
        if self.pending:
            violations.append(
                f"{len(self.pending)} windows reached no downstream record")
        repeated = duplicates(r.record_id for r in self.records)
        repeated += duplicates((row[0], row[1]) for row in self.log)
        if repeated:
            violations.append(f"delivered twice: {repeated[:3]}")
        if {r.record_id for r in self.records
                if r.kind == KIND_VERDICT} != delivered:
            violations.append("downstream verdicts differ from the ledger")
        if {r.record_id for r in self.records
                if r.kind == KIND_DEFERRED} != deferred:
            violations.append("downstream deferrals differ from the ledger")
        journaled = replay_journal(self.journal.path)
        if journaled.torn or not (delivered | deferred) <= journaled.ids:
            violations.append(
                f"journal misses {len((delivered | deferred) - journaled.ids)}"
                f" resolved windows ({journaled.torn} torn frames)")
        return violations + check_reference(self.sampler,
                                            self._delivered_class)

    def shim(self, recorder) -> None:
        super().shim(recorder)
        supervisor = self.supervisor
        recorder.shim(supervisor, "ingest_imu", "sessions.ingest")
        recorder.shim(supervisor, "ingest_frame", "sessions.ingest")
        recorder.shim(supervisor, "request_verdict", "supervisor.request")
        recorder.shim(supervisor, "step", "supervisor.step")
        recorder.shim(supervisor, "drain", "supervisor.step")
        recorder.shim(supervisor.checkpoints, "take", "checkpoint.take")
        recorder.shim(supervisor.sink, "pump", "journal.pump")
        recorder.shim(self.journal, "append", "journal.append")
        recorder.shim(self.journal, "sync", "journal.sync")
        for server in self._servers():
            recorder.shim(server, "request_verdict", "admission.request")
            recorder.shim(server, "step", "server.step")

    def counts(self) -> dict[str, float]:
        return {**super().counts(),
                "journal.appends": self.journal.appended,
                "journal.bytes": self.journal.size_bytes}

    def close(self) -> None:
        if getattr(self, "supervisor", None) is not None:
            self.supervisor.close()
            self.supervisor = None


class Edge(Workload):
    """8 on-device agents, batch-1 inference, spooled lossy uplink."""

    name = "edge"
    agents = 8
    #: Passes of the synthesized drive each agent's stream holds.
    passes = 100
    #: Drain ticks allowed after the drive before undelivered records
    #: count as failed.
    drain_limit = 2000

    def _spec(self) -> ScenarioSpec:
        return ScenarioSpec.paper_sweep(drivers=self.agents,
                                        duration=PASS_SECONDS, seed=self.seed)

    def _build(self, traces: list[DriverTrace]) -> None:
        instants = len(traces[0].frames)
        self.max_ticks = instants * self.passes
        timeline = np.arange(self.max_ticks) * GRID
        self.journal = VerdictJournal(
            os.path.join(self.directory, "controller.wal"),
            registry=MetricsRegistry())
        self.sink = StoreAndForwardSink(self.journal,
                                        registry=MetricsRegistry())
        self.fleet: list[EdgeAgent] = []
        self.senders = []
        self.receivers: list[EdgeUplinkReceiver] = []
        for index, trace in enumerate(traces):
            agent_id = f"edge-{index}"
            level = LEVELS[index % len(LEVELS)]
            registry = ServingModelRegistry()
            registry.register("edge", self.variants[index % len(LEVELS)])
            registry.warm()
            sender, receiver = reliable_link(
                f"uplink-{agent_id}", base_latency=0.02, jitter=0.2,
                drop_probability=0.05,
                rng=np.random.default_rng([self.seed, index]),
                max_attempts=200, buffer_limit=256)
            spool = EdgeSpool(os.path.join(self.directory,
                                           f"spool-{agent_id}.wal"))
            uploader = EdgeUploader(spool, sender, agent_id=agent_id)
            looped = DriverTrace(
                driver_id=trace.driver_id,
                imu=np.tile(trace.imu, (self.passes, 1)),
                frames=trace.frames * self.passes,
                labels=np.tile(trace.labels, self.passes))
            self.fleet.append(EdgeAgent(
                agent_id, registry=registry, spool=spool, uploader=uploader,
                trace=looped, instants=timeline, privacy=level, ota=None,
                intervals=(GRID, GRID, GRID, 1.0)))
            self.senders.append(sender)
            self.receivers.append(EdgeUplinkReceiver(receiver, self.sink))
        self.drain_ticks = 0

    def tick(self, k: int) -> None:
        now = k * GRID
        sampler = self.sampler
        for agent in self.fleet:
            produced = agent.verdicts
            sampler.at((agent.agent_id, agent.spool.last_sequence + 1))
            start = _clock()
            agent.step(now)
            end = _clock()
            if agent.verdicts != produced:
                self.latencies.append(end - start)
        for receiver in self.receivers:
            receiver.poll(now)
        self.sink.pump(now)

    def finish(self, now: float) -> None:
        """Drain the spools: uplink only, no new sensor samples."""
        for _ in range(self.drain_limit):
            if all(agent.spool.depth == 0 for agent in self.fleet):
                break
            now += GRID
            self.drain_ticks += 1
            for agent in self.fleet:
                agent.uploader.step(now)
            for receiver in self.receivers:
                receiver.poll(now)
            self.sink.pump(now)
        self.journal.sync()
        self.requested = sum(agent.verdicts for agent in self.fleet)
        self._journaled = None

    def journaled(self):
        """The controller journal as read back from disk, after the drive."""
        if self._journaled is None:
            self._journaled = replay_journal(self.journal.path)
            self.log = [(r.session_id, r.sequence, r.kind, r.predicted,
                         r.degraded) for r in self._journaled.records]
        return self._journaled

    def delivered(self) -> int:
        return sum(1 for record in self.journaled().records
                   if record.kind == KIND_VERDICT)

    def verdicts(self) -> int:
        """Verdicts produced on-device."""
        return self.requested

    @property
    def digest(self) -> str:
        self.journaled()
        return super().digest

    def check(self) -> list[str]:
        violations = []
        repeated = duplicates(r.record_id for r in self.sink.delivered)
        if repeated:
            violations.append(f"delivered twice: {repeated[:3]}")
        journaled = self.journaled()
        by_id = {record.record_id: record for record in journaled.records}
        for agent in self.fleet:
            expected = {(agent.agent_id, seq)
                        for seq in range(1, agent.spool.last_sequence + 1)}
            missing = expected - by_id.keys()
            if missing:
                violations.append(
                    f"{agent.agent_id}: {len(missing)} spooled records "
                    f"missing from the controller journal")
        kinds = [record.kind for record in journaled.records]
        clips = sum(agent.clips for agent in self.fleet)
        if journaled.torn or kinds.count("clip") != clips:
            violations.append(
                f"journal holds {kinds.count('clip')} clips of {clips} "
                f"({journaled.torn} torn frames)")

        def delivered_class(sample, row):
            record = by_id.get(sample.tag)
            return None if record is None else record.predicted

        return violations + check_reference(self.sampler, delivered_class)

    def shim(self, recorder) -> None:
        super().shim(recorder)
        for agent in self.fleet:
            recorder.shim(agent, "step", "edge.step")
            recorder.shim(agent.spool, "append", "edge.spool_append")
            recorder.shim(agent.spool, "ack", "edge.spool_ack")
            recorder.shim(agent.spool, "sync", "edge.spool_sync")
            recorder.shim(agent.uploader, "step", "edge.upload_step")
        for receiver in self.receivers:
            recorder.shim(receiver, "poll", "uplink.receive")
        recorder.shim(self.sink, "pump", "journal.pump")
        recorder.shim(self.journal, "append", "journal.append")
        recorder.shim(self.journal, "sync", "journal.sync")

    def traced_module(self, recorder):
        """The agent module's ``distort_restore``, traced for the drive."""
        return recorder.patched(edge_agent, "distort_restore",
                                "privacy.distort")

    def counts(self) -> dict[str, float]:
        sent = sum(s.stats.sent for s in self.senders)
        retransmissions = sum(s.stats.retransmissions for s in self.senders)
        packets = sent + retransmissions
        received = sum(r.received for r in self.receivers)
        return {
            "journal.appends": self.journal.appended,
            "journal.bytes": self.journal.size_bytes,
            "edge.spool_appends": sum(a.spool.appended for a in self.fleet),
            "edge.drain_ticks": self.drain_ticks,
            "uplink.packets_sent": packets,
            "uplink.retransmissions": retransmissions,
            "uplink.useful_ratio": received / packets if packets else 0.0,
        }

    def close(self) -> None:
        for agent in getattr(self, "fleet", []):
            agent.close()
        self.fleet = []
        if getattr(self, "journal", None) is not None:
            self.journal.close()
            self.journal = None


WORKLOADS = {cls.name: cls for cls in (Fleet, DurableMixed, Edge)}
