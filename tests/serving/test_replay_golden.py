"""Golden-verdict replay: the exact delivered sequence is pinned.

A seeded :func:`replay_concurrent_drives` over the package ensemble must
deliver byte-for-byte the same ``(session_id, sequence, predicted,
degraded)`` sequence as the committed fixture — any change to stream
synthesis, session bookkeeping, scheduling order, or the compiled
inference plans that shifts a single verdict shows up here.

Regenerate deliberately after an intended behaviour change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/serving/test_replay_golden.py -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.nn.compile import DEFAULT_BACKEND
from repro.serving import replay_concurrent_drives

GOLDEN_PATH = Path(__file__).parent.parent / "fixtures" / \
    "replay_golden_verdicts.json"

REPLAY_ARGS = dict(drivers=2, duration=3.0, kill_camera=1, seed=11)

#: Lossless backends: each must reproduce the committed fixture exactly.
FLOAT_BACKENDS = ["numpy-compiled"]


@pytest.mark.slow
@pytest.mark.parametrize("backend", FLOAT_BACKENDS)
def test_replay_matches_golden_verdict_sequence(serving_ensemble, backend):
    """Every float backend must reproduce the one committed sequence."""
    report = replay_concurrent_drives(serving_ensemble, backend=backend,
                                      **REPLAY_ARGS)
    if os.environ.get("REGEN_GOLDEN"):
        if backend != DEFAULT_BACKEND:
            pytest.skip("fixture regenerates under the default backend only")
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(
            {"replay_args": REPLAY_ARGS, "verdicts": report.verdict_log},
            indent=1) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH.name}")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["replay_args"] == REPLAY_ARGS
    assert len(report.verdict_log) == len(golden["verdicts"])
    for index, (got, want) in enumerate(
            zip(report.verdict_log, golden["verdicts"])):
        assert got == want, f"verdict #{index} diverged under {backend}"


@pytest.mark.slow
def test_replay_verdict_log_is_deterministic(serving_ensemble):
    """Two identically seeded replays deliver identical sequences."""
    first = replay_concurrent_drives(serving_ensemble, **REPLAY_ARGS)
    second = replay_concurrent_drives(serving_ensemble, **REPLAY_ARGS)
    assert first.verdict_log == second.verdict_log
    assert len(first.verdict_log) == first.verdicts
