"""Output checks that run after the timed drive.

:class:`ForwardSampler` keeps the inputs and classes of an evenly spread
sample of forward calls; :func:`check_reference` re-runs each sampled
batch through the ensemble's reference forward and compares it with
both the fast-path classes and the classes the program delivered.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.nn.runtime.mode import reference_mode

#: Rows of a sampled batch kept for the reference comparison.
SAMPLE_ROWS = 8


@dataclass
class ForwardSample:
    call: int
    model: Any
    images: np.ndarray | None
    imu: np.ndarray | None
    predicted: list[int]
    tag: Any
    offset: int


class ForwardSampler:
    """Keeps every ``stride``-th forward call, at most ``cap`` of them.

    When the cap is exceeded the stride doubles and the kept samples are
    thinned to the new stride, so the sample stays spread evenly over
    the whole drive however long it runs.  The drive sets :attr:`tag`
    (where the next delivered verdicts land) through :meth:`at`; each
    call advances :attr:`offset` by the rows it classified.
    """

    def __init__(self, *, cap: int = 32, stride: int = 4) -> None:
        self.cap = cap
        self.stride = stride
        self.calls = 0
        self.samples: list[ForwardSample] = []
        self.tag: Any = None
        self.offset = 0

    def at(self, tag: Any) -> None:
        self.tag = tag
        self.offset = 0

    def install(self, model) -> None:
        """Shadow ``model.predict_degraded`` with the sampling wrapper."""
        inner = model.predict_degraded

        def predict_degraded(*, images=None, imu=None):
            result = inner(images=images, imu=imu)
            call = self.calls
            self.calls += 1
            if call % self.stride == 0:
                self._keep(ForwardSample(
                    call, model,
                    None if images is None else images[:SAMPLE_ROWS].copy(),
                    None if imu is None else imu[:SAMPLE_ROWS].copy(),
                    result.predictions[:SAMPLE_ROWS].tolist(),
                    self.tag, self.offset))
            self.offset += len(result.predictions)
            return result

        model.predict_degraded = predict_degraded

    def _keep(self, sample: ForwardSample) -> None:
        self.samples.append(sample)
        if len(self.samples) > self.cap:
            self.stride *= 2
            self.samples = [s for s in self.samples
                            if s.call % self.stride == 0]


def check_reference(sampler: ForwardSampler,
                    delivered: Callable[[ForwardSample, int], int | None]
                    ) -> list[str]:
    """Violations where reference, fast-path and delivered classes differ.

    ``delivered(sample, row)`` returns the class the program delivered
    for that row of the sampled batch (``None`` when nothing was).
    """
    violations = []
    if not sampler.samples:
        violations.append("no forward call was sampled")
    for sample in sampler.samples:
        with reference_mode():
            reference = type(sample.model).predict_degraded(
                sample.model, images=sample.images, imu=sample.imu)
        expected = reference.predictions.tolist()
        if expected != sample.predicted:
            violations.append(
                f"forward call {sample.call}: fast path {sample.predicted} "
                f"!= reference {expected}")
        got = [delivered(sample, row) for row in range(len(expected))]
        if got != expected:
            violations.append(
                f"forward call {sample.call}: delivered {got} != "
                f"reference {expected}")
    return violations


def duplicates(ids) -> list:
    """Identities that occur more than once, in first-seen order."""
    seen, repeated = set(), []
    for key in ids:
        if key in seen:
            repeated.append(key)
        seen.add(key)
    return repeated


def digest(rows) -> str:
    """SHA-256 over a verdict log's rows in delivery order."""
    hasher = hashlib.sha256()
    for row in rows:
        hasher.update(json.dumps(row, separators=(",", ":")).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()
