"""Tests for weight/input quantization and signed-arithmetic recovery."""

import numpy as np
import pytest

from repro.api import PhotonicSession
from repro.core.compute_core import VectorComputeCore
from repro.core.quantization import (
    decode_output,
    dequantize_weights,
    encode_inputs,
    integral_weights,
    quantize_weights,
    signed_matmul_correction,
)
from repro.core.tensor_core import PhotonicTensorCore
from repro.errors import ConfigurationError, MappingError
from repro.runtime.scheduler import BatchScheduler
from repro.runtime.tiling import TiledMatmul


def test_unsigned_quantization_round_trip():
    weights = np.array([0.0, 0.5, 1.0, 3.5])
    q, scale = quantize_weights(weights, bits=3)
    assert q.max() == 7
    restored = dequantize_weights(q, scale, bits=3)
    assert np.all(np.abs(restored - weights) <= scale / 2 + 1e-12)


def test_unsigned_rejects_negative_weights():
    with pytest.raises(ConfigurationError):
        quantize_weights(np.array([-1.0, 1.0]), bits=3)


def test_signed_offset_binary_round_trip():
    weights = np.array([-1.5, -0.3, 0.0, 0.9, 1.5])
    q, scale = quantize_weights(weights, bits=3, signed=True)
    assert np.all(q >= 0) and np.all(q <= 7)
    restored = dequantize_weights(q, scale, bits=3, signed=True)
    assert np.all(np.abs(restored - weights) <= scale / 2 + 1e-12)


def test_signed_zero_maps_to_offset():
    q, _ = quantize_weights(np.array([0.0]), bits=3, signed=True)
    assert q[0] == 4  # 2^(bits-1)


def test_signed_correction_recovers_signed_dot_product():
    """q = w + 4 (3-bit offset binary): subtracting 4*sum(x) from the
    unsigned product recovers the signed product exactly."""
    rng = np.random.default_rng(8)
    signed_weights = rng.integers(-4, 4, size=(3, 6))
    offset_weights = signed_weights + 4
    x = rng.uniform(0.0, 1.0, 6)
    unsigned = offset_weights @ x
    corrected = signed_matmul_correction(unsigned, x, bits=3)
    assert np.allclose(corrected, signed_weights @ x)


def test_encode_inputs_scale_recovery():
    values = np.array([0.0, 2.0, 8.0])
    encoded, scale = encode_inputs(values)
    assert encoded.max() == pytest.approx(1.0)
    assert np.allclose(encoded * scale, values)


def test_encode_inputs_all_zero():
    encoded, scale = encode_inputs(np.zeros(4))
    assert np.all(encoded == 0.0)
    assert scale == 1.0


def test_encode_inputs_rejects_negative():
    with pytest.raises(ConfigurationError):
        encode_inputs(np.array([-1.0, 1.0]))


def test_decode_output_undoes_scales():
    estimates = np.array([1.0, 2.0])
    assert np.allclose(decode_output(estimates, 2.0, 0.5), [1.0, 2.0])


def test_zero_magnitude_weights():
    q, scale = quantize_weights(np.zeros(3), bits=3)
    assert np.all(q == 0) and scale == 1.0


def test_bits_validation():
    with pytest.raises(ConfigurationError):
        quantize_weights(np.ones(2), bits=0)
    with pytest.raises(ConfigurationError):
        dequantize_weights(np.ones(2), 1.0, bits=0)
    with pytest.raises(ConfigurationError):
        signed_matmul_correction(np.ones(2), np.ones(2), bits=0)


# --------------------------------------------------------------------------
# integral weights at every entry point
# --------------------------------------------------------------------------


def test_integral_weights_accepts_integral_values_of_any_dtype():
    for weights in ([[2, 1], [0, 1]], np.array([[2, 1], [0, 1]], dtype=np.uint8),
                    [[2.0, 1.0], [0.0, 1.0]], [[True, False], [False, True]]):
        converted = integral_weights(weights)
        assert converted.dtype == np.dtype(int)
        assert np.array_equal(converted, np.asarray(weights, dtype=float))


def test_integral_weights_passes_integer_arrays_through_unchanged():
    weights = np.array([[2, 1], [0, 1]])
    assert integral_weights(weights) is weights


@pytest.mark.parametrize("bad", [2.7, -0.5, np.nan, np.inf])
def test_integral_weights_rejects_what_a_cast_would_change(bad):
    with pytest.raises(ConfigurationError):
        integral_weights([[bad, 1], [0, 1]])
    with pytest.raises(MappingError):
        integral_weights([[bad, 1], [0, 1]], MappingError)


def test_tensor_core_load_rejects_non_integral_weights():
    """Regression: 2.7 used to load (and serve) as 2."""
    core = PhotonicTensorCore(rows=2, columns=2)
    with pytest.raises(ConfigurationError, match="2.7"):
        core.load_weight_matrix([[2.7, 1], [0, 1]])
    with pytest.raises(ConfigurationError, match="non-finite"):
        core.load_weight_matrix([[np.nan, 1], [0, 1]])
    core.load_weight_matrix([[2.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(core.weight_matrix, [[2, 1], [0, 1]])


def test_vector_core_load_rejects_non_integral_weights():
    with pytest.raises(ConfigurationError):
        VectorComputeCore(2).load_weights([1.5, 1])


def test_session_submit_rejects_non_integral_weights():
    """Regression: the session used to resolve this request with a value."""
    session = PhotonicSession(rows=2, columns=2)
    with pytest.raises(ConfigurationError, match="2.7"):
        session.submit([[2.7, 1], [0, 1]], [0.5, 0.5])
    # Larger than the grid: the tiled route validates at submit too.
    with pytest.raises(ConfigurationError):
        session.submit(np.full((3, 3), 1.25), np.full(3, 0.5))
    assert session.pending == 0
    future = session.submit([[2.0, 1.0], [0.0, 1.0]], [0.5, 0.5])
    assert future.result() is not None


def test_scheduler_submit_rejects_non_integral_weights():
    scheduler = BatchScheduler(rows=2, columns=2)
    with pytest.raises(ConfigurationError):
        scheduler.submit([[2.7, 1], [0, 1]], [0.5, 0.5])
    assert scheduler.pending == 0


def test_tiled_matmul_rejects_non_integral_weights():
    with pytest.raises(MappingError, match="2.7"):
        TiledMatmul([[2.7, 1, 0], [0, 1, 1]], tile_rows=2, tile_columns=2)
    with pytest.raises(MappingError, match="non-finite"):
        TiledMatmul([[np.inf, 1, 0], [0, 1, 1]], tile_rows=2, tile_columns=2)
