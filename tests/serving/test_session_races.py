"""Threaded stress: concurrent session admission/eviction and ingest.

The server's session table is check-then-act (admission cap check, then
dict insert); without the session lock two racing opens could both pass
the cap check and blow the provisioned bound, or an open/close pair
could leak an outbox.  These tests hammer those paths from many threads
and assert exact accounting."""

import threading

import numpy as np
import pytest

from repro.exceptions import ServingError
from repro.serving import (
    AdmissionController,
    DriverSession,
    InferenceServer,
    ServingModelRegistry,
)


class StubResult:
    def __init__(self, count):
        self.predictions = np.zeros(count, dtype=np.int64)
        self.probabilities = np.full((count, 5), 0.2)
        self.confidence = np.full(count, 0.9)
        self.degraded = False
        self.missing = ()


class StubModel:
    def predict_degraded(self, images=None, imu=None):
        count = len(imu) if imu is not None else len(images)
        return StubResult(count)


def make_server(max_sessions):
    registry = ServingModelRegistry()
    registry.register("base", StubModel())
    return InferenceServer(
        registry, admission=AdmissionController(max_sessions=max_sessions))


def run_threads(workers):
    threads = [threading.Thread(target=worker) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def test_concurrent_opens_never_exceed_the_cap():
    cap = 16
    server = make_server(cap)
    admitted, rejected = [], []
    lock = threading.Lock()
    barrier = threading.Barrier(8)

    def opener(base):
        barrier.wait()
        for offset in range(8):
            driver = base * 100 + offset
            try:
                sid = server.open_session(driver)
                with lock:
                    admitted.append(sid)
            except ServingError:
                with lock:
                    rejected.append(driver)

    run_threads([lambda base=b: opener(base) for b in range(8)])
    # Exact accounting: 64 attempts, exactly cap admitted, rest rejected.
    assert len(admitted) == cap
    assert len(rejected) == 64 - cap
    assert sorted(server.sessions) == sorted(admitted)


def test_concurrent_open_close_churn_accounts_exactly():
    cap = 8
    server = make_server(cap)
    outcomes = {"opened": 0, "closed": 0, "rejected": 0}
    lock = threading.Lock()
    barrier = threading.Barrier(6)

    def churner(base):
        barrier.wait()
        for round_index in range(40):
            sid = f"drv-{base}-{round_index}"
            try:
                server.open_session(base, session_id=sid)
            except ServingError:
                with lock:
                    outcomes["rejected"] += 1
                continue
            with lock:
                outcomes["opened"] += 1
            server.close_session(sid)
            with lock:
                outcomes["closed"] += 1

    run_threads([lambda base=b: churner(base) for b in range(6)])
    assert outcomes["opened"] == outcomes["closed"]
    assert outcomes["opened"] + outcomes["rejected"] == 6 * 40
    assert server.sessions == []  # every admitted session closed
    assert server._outboxes == {}  # no leaked outboxes


def test_duplicate_session_id_race_admits_exactly_one():
    server = make_server(32)
    wins, losses = [], []
    lock = threading.Lock()
    barrier = threading.Barrier(8)

    def opener(index):
        barrier.wait()
        try:
            server.open_session(0, session_id="contested")
            with lock:
                wins.append(index)
        except ServingError:
            with lock:
                losses.append(index)

    run_threads([lambda i=i: opener(i) for i in range(8)])
    assert len(wins) == 1
    assert len(losses) == 7
    assert server.sessions == ["contested"]


def test_adoption_races_against_opens_respect_the_cap():
    cap = 12
    server = make_server(cap)
    admitted = []
    lock = threading.Lock()
    barrier = threading.Barrier(8)

    def adopter(base):
        barrier.wait()
        for offset in range(4):
            sid = f"mig-{base}-{offset}"
            session = DriverSession(session_id=sid, driver_id=base)
            try:
                server.adopt_session(session)
                with lock:
                    admitted.append(sid)
            except ServingError:
                pass

    def opener(base):
        barrier.wait()
        for offset in range(4):
            try:
                sid = server.open_session(base * 10 + offset)
                with lock:
                    admitted.append(sid)
            except ServingError:
                pass

    run_threads([lambda b=b: adopter(b) for b in range(4)]
                + [lambda b=b: opener(b) for b in range(4)])
    assert len(admitted) == cap
    assert sorted(server.sessions) == sorted(admitted)


def test_dispatch_and_poll_race_close_without_keyerror():
    """step()'s outbox append and poll() both race close_session: a
    session closed mid-dispatch must simply drop its verdicts, never
    KeyError out of the serving loop."""
    server = make_server(64)
    errors = []
    done = threading.Event()
    barrier = threading.Barrier(5)

    def lifecycle(base):
        barrier.wait()
        for round_index in range(150):
            sid = f"drv-{base}-{round_index}"
            try:
                server.open_session(base, session_id=sid)
                server.ingest_imu(sid, 0.0, np.zeros(12))
                server.request_verdict(sid, 0.0)
                try:
                    server.poll(sid)
                except ServingError:
                    pass  # closed by nobody here; existence raced away
                server.close_session(sid)
            except ServingError:
                pass
            except Exception as error:  # noqa: BLE001
                errors.append(error)
                return

    def stepper():
        barrier.wait()
        now = 0.0
        while not done.is_set():
            try:
                server.step(now, force=True)
            except Exception as error:  # noqa: BLE001
                errors.append(error)
                return
            now += 0.05

    workers = [threading.Thread(target=lifecycle, args=(b,))
               for b in range(4)]
    pump = threading.Thread(target=stepper)
    for thread in workers:
        thread.start()
    pump.start()
    for thread in workers:
        thread.join()
    done.set()
    pump.join()
    assert errors == []
    assert server.sessions == []
    assert server._outboxes == {}


@pytest.mark.slow
def test_concurrent_ingest_during_churn_keeps_rings_intact():
    """Ingest threads racing open/close: windows stay well-formed and a
    stable session's ring is exactly its last window_steps samples."""
    server = make_server(32)
    stable = server.open_session(999, session_id="stable")
    stop = threading.Event()
    errors = []

    def churner(base):
        round_index = 0
        while not stop.is_set():
            sid = f"churn-{base}-{round_index}"
            round_index += 1
            try:
                server.open_session(base, session_id=sid)
                server.ingest_imu(sid, 0.0, np.zeros(12))
                server.close_session(sid)
            except ServingError:
                pass  # cap contention is fine; corruption is not
            except Exception as error:  # noqa: BLE001
                errors.append(error)
                return

    churners = [threading.Thread(target=churner, args=(b,))
                for b in range(4)]
    for thread in churners:
        thread.start()
    steps = server.session(stable).window_steps
    total = 5 * steps
    for k in range(total):
        server.ingest_imu(stable, 0.1 * k, np.full(12, float(k)))
    stop.set()
    for thread in churners:
        thread.join()
    assert errors == []
    window = server.session(stable).window()
    expected = np.stack([np.full(12, float(k))
                         for k in range(total - steps, total)])
    np.testing.assert_array_equal(window, expected)
    assert server.session(stable).counters.imu_samples == total
