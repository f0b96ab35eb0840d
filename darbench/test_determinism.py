"""A seed fixes the delivered verdicts and the layer counts of a drive.

Count-based claims rest on these counts repeating exactly, so a traced
fixed-length drive is run twice on one seed and once on another::

    python3 -m pytest darbench/test_determinism.py
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.dirname(HERE),
                os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402

COUNTS = ("scheduler.batches", "core.forward_rows", "nn.cnn_rows",
          "nn.rnn_rows", "journal.appends", "journal.bytes",
          "edge.spool_appends", "uplink.retransmissions")
#: Long enough that durable-mixed drivers lose their camera (tick 20 on)
#: and then fall back to IMU-only verdicts.
TICKS = 32


@pytest.mark.parametrize("workload", ["fleet", "durable-mixed", "edge"])
def test_seed_fixes_verdict_log_and_counts(workload, tmp_path):
    first, again, other = (
        run.measure_traced(workload, seed, TICKS, str(tmp_path / label))
        for label, seed in (("first", 3), ("again", 3), ("other", 4)))
    for result in (first, again, other):
        assert result["violations"] == []
        assert result["failed"] == 0
    assert first["detail"]["digest"] == again["detail"]["digest"]
    assert first["detail"]["digest"] != other["detail"]["digest"]
    counts = {name: first["metrics"][name] for name in COUNTS}
    assert counts == {name: again["metrics"][name] for name in COUNTS}
    if workload != "edge":
        assert counts["scheduler.batches"] > 0
    if workload != "fleet":
        assert counts["journal.appends"] > 0
