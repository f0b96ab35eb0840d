"""Graph-compiled inference: plan structure, parity, backends, profiling.

The compiled backend's contract: a model's default inference path (the
fast path) runs exactly its compiled float32 plan, bit for bit; plans
stay within ``ATOL`` of the reference layer forward; and uncompilable
models fall back to that reference forward silently.  These tests pin
each clause plus the plan-cache/invalidation and thread-locality rules
the serving tier relies on.
"""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro.core.inception import build_micro_inception
from repro.core.rnn import RnnConfig, build_imu_rnn
from repro.exceptions import ConfigurationError
from repro.nn import (
    Adam,
    AvgPool2D,
    NeuralNetwork,
    Sequential,
    backend_names,
    compile_network,
    in_reference_mode,
    reference_mode,
    set_default_backend,
    using_backend,
)
from repro.nn.compile import (
    DEFAULT_BACKEND,
    NumpyCompiledBackend,
    PlanWeight,
    UnsupportedLayerError,
    active_backend_name,
    get_backend,
)
from repro.nn.compile.plan import BOUND_CACHE_SIZE
from repro.nn.runtime import profiled_layers
from repro.nn.runtime.profiling import layer_timer

ATOL = 1e-5

CNN_SHAPE = (1, 16, 16)
RNN_SHAPE = (20, 12)


def _images(n: int, shape=CNN_SHAPE, seed: int = 99) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n,) + shape).astype(np.float32)


def _fitted(net) -> NeuralNetwork:
    model = NeuralNetwork(net, optimizer_factory=lambda p: Adam(p))
    model.mark_fitted()
    return model


@pytest.fixture(scope="module")
def cnn():
    net = build_micro_inception(5, width=0.5, rng=np.random.default_rng(3))
    net.set_training(False)
    return net


@pytest.fixture(scope="module")
def cnn_plan(cnn):
    return compile_network(cnn, CNN_SHAPE)


@pytest.fixture(scope="module")
def rnn():
    net = build_imu_rnn(RnnConfig(hidden_units=8),
                        rng=np.random.default_rng(4))
    net.set_training(False)
    return net


# -- plan structure ------------------------------------------------------

def test_conv_bn_relu_fold_into_one_op(cnn_plan):
    described = cnn_plan.describe()
    fused = [d for d in described
             if d["kind"] == "conv" and len(d["fused"]) >= 3]
    assert fused, "expected at least one conv+bn+relu fusion"
    for d in described:
        assert d["layer"] in d["fused"]


def test_arena_reuses_buffers_across_ops(cnn_plan):
    assert 0 < cnn_plan.arena_per_sample < cnn_plan.slot_elements_total


def test_bound_plan_cache_is_bounded(cnn_plan):
    for n in range(1, BOUND_CACHE_SIZE + 4):
        cnn_plan.run(_images(n))
    assert len(cnn_plan._bound) <= BOUND_CACHE_SIZE


# -- numeric parity ------------------------------------------------------

@pytest.mark.parametrize("n", [1, 3, 32])
def test_cnn_plan_bitwise_matches_fast_path(cnn, cnn_plan, n):
    x = _images(n)
    out = cnn_plan.run(x)
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out, _fitted(cnn).predict_logits(x))
    np.testing.assert_allclose(out, cnn.forward(x), atol=ATOL, rtol=0)


@pytest.mark.parametrize("n", [1, 7, 32])
def test_rnn_plan_bitwise_matches_fast_path(rnn, n):
    plan = compile_network(rnn, RNN_SHAPE)
    x = _images(n, RNN_SHAPE)
    out = plan.run(x)
    np.testing.assert_array_equal(out, _fitted(rnn).predict_logits(x))
    np.testing.assert_allclose(out, rnn.forward(x), atol=ATOL, rtol=0)


@pytest.mark.parametrize("padding", ["valid", "same"])
def test_stride1_avgpool_flat_kernel_bitwise(padding):
    # Stride-1 average pooling takes the flat-shift contiguous-tap
    # kernel; padded and unpadded, it must add the same operands in the
    # same order as a plain strided loop over the kernel taps.
    net = Sequential([AvgPool2D(3, stride=1, padding=padding)])
    plan = compile_network(net, (2, 9, 9))
    x = _images(4, (2, 9, 9))
    pad = 1 if padding == "same" else 0
    src = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out_hw = src.shape[2] - 2
    taps = np.zeros((4, 2, out_hw, out_hw), dtype=np.float32)
    for i in range(3):
        for j in range(3):
            taps += src[:, :, i:i + out_hw, j:j + out_hw]
    np.testing.assert_array_equal(plan.run(x), taps * np.float32(1 / 9))
    np.testing.assert_allclose(plan.run(x), net.forward(x), atol=ATOL)


def test_int8_weight_roundtrip_error_is_per_channel_bounded():
    rng = np.random.default_rng(17)
    weight = rng.standard_normal((8, 27)).astype(np.float32)
    handle = PlanWeight.quantized(weight, channel_axis=0)
    assert handle.is_quantized
    dequantized = handle.materialize()
    scales = np.abs(weight).max(axis=1) / 127.0
    assert np.all(np.abs(dequantized - weight)
                  <= scales[:, None] * 0.5 + 1e-7)
    assert handle.nbytes_at_rest < weight.nbytes


def test_int8_plan_runs_and_stays_finite(cnn):
    plan = compile_network(cnn, CNN_SHAPE, quantize=True)
    out = plan.run(_images(5))
    assert out.shape == (5, 5)
    assert np.all(np.isfinite(out))


# -- backend registry and fallback --------------------------------------

def test_backend_registry_api():
    assert {"numpy-compiled", "numpy-compiled-int8"} <= set(backend_names())
    assert DEFAULT_BACKEND == "numpy-compiled"
    with pytest.raises(ConfigurationError):
        get_backend("no-such-backend")
    with pytest.raises(ConfigurationError):
        set_default_backend("no-such-backend")
    with pytest.raises(ConfigurationError):
        with using_backend("no-such-backend"):
            pass  # pragma: no cover - must raise before entering
    assert active_backend_name() == DEFAULT_BACKEND
    with using_backend("numpy-compiled-int8"):
        assert active_backend_name() == "numpy-compiled-int8"
        with using_backend("numpy-compiled"):
            assert active_backend_name() == "numpy-compiled"
        assert active_backend_name() == "numpy-compiled-int8"
    assert active_backend_name() == DEFAULT_BACKEND


def test_unsupported_layer_degrades_to_fast_path():
    net = build_imu_rnn(RnnConfig(hidden_units=8, cell="gru"),
                        rng=np.random.default_rng(5))
    net.set_training(False)
    with pytest.raises(UnsupportedLayerError):
        compile_network(net, RNN_SHAPE)
    assert NumpyCompiledBackend().compile_model(net, RNN_SHAPE) is None
    model = _fitted(net)
    x = _images(6, RNN_SHAPE)
    fast = model.predict_logits(x)
    assert model._plans == {(DEFAULT_BACKEND, RNN_SHAPE): None}
    with reference_mode():
        np.testing.assert_array_equal(model.predict_logits(x), fast)


# -- model integration ---------------------------------------------------

@pytest.fixture(scope="module")
def cnn_model():
    net = build_micro_inception(5, width=0.5, rng=np.random.default_rng(6))
    return _fitted(net)


def test_model_predicts_identically_under_compiled_backend(cnn_model):
    # 130 samples: one full 128-wide chunk plus a ragged 2-sample tail.
    x = _images(130)
    fast = cnn_model.predict_logits(x)
    with using_backend("numpy-compiled"):
        compiled = cnn_model.predict_logits(x)
    np.testing.assert_array_equal(compiled, fast)
    assert ("numpy-compiled", CNN_SHAPE) in cnn_model._plans
    with reference_mode():
        reference = cnn_model.predict_logits(x)
    np.testing.assert_allclose(compiled, reference, atol=ATOL, rtol=0)


def test_pickling_drops_compiled_plans(cnn_model):
    with using_backend("numpy-compiled"):
        cnn_model.predict_logits(_images(2))
    assert cnn_model._plans
    clone = pickle.loads(pickle.dumps(cnn_model))
    assert clone._plans == {}
    x = _images(4)
    with using_backend("numpy-compiled"):
        np.testing.assert_array_equal(clone.predict_logits(x),
                                      cnn_model.predict_logits(x))


def test_invalidate_plans_forces_recompile(cnn_model):
    with using_backend("numpy-compiled"):
        cnn_model.predict_logits(_images(2))
    assert cnn_model._plans
    cnn_model.invalidate_plans()
    assert cnn_model._plans == {}


# -- profiling attribution ----------------------------------------------

def test_compiled_run_attributes_timings_to_source_layers(cnn_plan):
    with profiled_layers(1):
        cnn_plan.run(_images(2))
    for entry in cnn_plan.describe():
        assert layer_timer(entry["layer"]).count >= 1


# -- thread-locality (reference_mode and using_backend) ------------------

def test_reference_mode_is_thread_local():
    entered = threading.Event()
    release = threading.Event()
    seen: dict[str, bool] = {}

    def hold() -> None:
        with reference_mode():
            seen["inside"] = in_reference_mode()
            entered.set()
            release.wait(5.0)
        seen["after"] = in_reference_mode()

    worker = threading.Thread(target=hold)
    worker.start()
    assert entered.wait(5.0)
    try:
        # The override lives in the worker's thread-local slot only.
        assert not in_reference_mode()
    finally:
        release.set()
        worker.join(5.0)
    assert seen["inside"] is True
    assert seen["after"] is False


def test_using_backend_is_thread_local():
    entered = threading.Event()
    release = threading.Event()
    seen: dict[str, str] = {}

    def hold() -> None:
        with using_backend("numpy-compiled-int8"):
            seen["inside"] = active_backend_name()
            entered.set()
            release.wait(5.0)

    worker = threading.Thread(target=hold)
    worker.start()
    assert entered.wait(5.0)
    try:
        assert active_backend_name() == DEFAULT_BACKEND
    finally:
        release.set()
        worker.join(5.0)
    assert seen["inside"] == "numpy-compiled-int8"
