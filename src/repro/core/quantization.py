"""Quantization and encoding between float workloads and the core.

The tensor core computes with analog inputs in [0, 1] and unsigned
n-bit weights.  These helpers map float matrices/vectors onto that
hardware representation and back, including the offset-binary trick
that recovers *signed* weight arithmetic digitally: storing
q = round(w/s) + 2^(n-1) and subtracting 2^(n-1) * sum(x) from the
result gives the signed product without signed optics.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError


def integral_weights(weights, error: type[Exception] = ConfigurationError) -> np.ndarray:
    """``weights`` as an integer array, refusing values a cast would change.

    Integer and boolean input converts as-is, with no per-element check.
    Any other input must hold only finite, integral values; otherwise
    ``error`` is raised, since a plain ``astype(int)`` would truncate
    2.7 to 2 and serve a program nobody asked for.  Every weight entry
    point (session and scheduler submits, tensor-core loads, tiled
    grids) converts through here.
    """
    array = np.asarray(weights)
    if array.dtype.kind not in "biu":
        values = np.asarray(array, dtype=float)
        if not np.all(np.isfinite(values)):
            raise error("weights must be finite integers, got a non-finite value")
        fractional = values != np.trunc(values)
        if np.any(fractional):
            raise error(
                "weights must be integers, got non-integral values such as "
                f"{values[fractional].flat[0]:.6g}"
            )
        array = values
    return np.asarray(array, dtype=int)


def quantize_weights(weights, bits: int, signed: bool = False):
    """Quantize float weights to unsigned ``bits``-bit integers.

    Returns ``(q, scale)`` with ``q`` integer arrays in [0, 2^bits - 1].
    Unsigned mode maps [0, max(w)]; signed mode uses offset-binary
    around 2^(bits-1) (pair with :func:`signed_matmul_correction`).
    """
    if bits < 1:
        raise ConfigurationError(f"need at least 1 bit, got {bits}")
    weights = np.asarray(weights, dtype=float)
    levels = 2**bits
    if signed:
        magnitude = float(np.max(np.abs(weights))) if weights.size else 0.0
        scale = magnitude / (levels / 2 - 1) if magnitude > 0.0 else 1.0
        offset = levels // 2
        q = np.clip(np.round(weights / scale).astype(int) + offset, 0, levels - 1)
    else:
        if np.any(weights < 0.0):
            raise ConfigurationError("unsigned quantization requires non-negative weights")
        magnitude = float(np.max(weights)) if weights.size else 0.0
        scale = magnitude / (levels - 1) if magnitude > 0.0 else 1.0
        q = np.clip(np.round(weights / scale).astype(int), 0, levels - 1)
    return q, scale


def dequantize_weights(quantized, scale: float, bits: int, signed: bool = False) -> np.ndarray:
    """Invert :func:`quantize_weights` to float weights."""
    if bits < 1:
        raise ConfigurationError(f"need at least 1 bit, got {bits}")
    quantized = np.asarray(quantized, dtype=float)
    if signed:
        return (quantized - 2 ** (bits - 1)) * scale
    return quantized * scale


def quantize_weights_differential(weights, bits: int):
    """Quantize signed weights as a difference of two unsigned arrays.

    Returns ``(q_pos, q_neg, scale)`` with W ~ (q_pos - q_neg) * scale.
    Each element lands in exactly one array (positive magnitudes in
    ``q_pos``, negative in ``q_neg``), the standard differential-column
    IMC mapping: it spends the full 2^bits - 1 range on the magnitude
    instead of offset-binary's half, and the subtraction happens on two
    small digital numbers instead of one large offset term.
    """
    if bits < 1:
        raise ConfigurationError(f"need at least 1 bit, got {bits}")
    weights = np.asarray(weights, dtype=float)
    levels = 2**bits
    magnitude = float(np.max(np.abs(weights))) if weights.size else 0.0
    scale = magnitude / (levels - 1) if magnitude > 0.0 else 1.0
    positive = np.clip(np.round(np.maximum(weights, 0.0) / scale).astype(int), 0, levels - 1)
    negative = np.clip(np.round(np.maximum(-weights, 0.0) / scale).astype(int), 0, levels - 1)
    return positive, negative, scale


def encode_inputs(values):
    """Scale a non-negative float vector into the [0, 1] analog range.

    Returns ``(encoded, scale)`` such that ``encoded * scale == values``.
    """
    values = np.asarray(values, dtype=float)
    if np.any(values < 0.0):
        raise ConfigurationError(
            "analog intensity encoding requires non-negative inputs; "
            "shift or split signed activations first"
        )
    peak = float(values.max()) if values.size else 0.0
    if peak == 0.0:
        return np.zeros_like(values), 1.0
    return values / peak, peak


def decode_output(estimates, input_scale: float, weight_scale: float) -> np.ndarray:
    """Undo the input/weight scalings on dot-product estimates."""
    return np.asarray(estimates, dtype=float) * input_scale * weight_scale


def signed_matmul_correction(unsigned_result, encoded_inputs, bits: int) -> np.ndarray:
    """Recover signed dot products from offset-binary weights.

    ``unsigned_result`` is W_q @ x computed photonically with
    offset-binary weights; subtracting 2^(bits-1) * sum(x) (a single
    digital accumulation of the input vector) yields the signed
    product in quantized units.
    """
    if bits < 1:
        raise ConfigurationError(f"need at least 1 bit, got {bits}")
    encoded_inputs = np.asarray(encoded_inputs, dtype=float)
    correction = 2 ** (bits - 1) * float(encoded_inputs.sum())
    return np.asarray(unsigned_result, dtype=float) - correction
