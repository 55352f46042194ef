"""The paper's contributions: pSRAM, compute core, eoADC, tensor core.

Public API:

* :class:`PsramBitcell` / :class:`PsramArray` — the differential
  cross-coupled photonic SRAM (Section II-A, Fig. 5).
* :class:`OneBitPhotonicMultiplier` / :class:`VectorComputeCore` — the
  mixed-signal multi-bit WDM vector multiplier (Section II-B, Fig. 7).
* :class:`EoAdc` and its :class:`TimeInterleavedEoAdc` /
  :class:`ShiftAddEoAdc` extensions — the 1-hot electro-optic ADC
  (Section II-C, Figs. 8-10).
* :class:`PhotonicTensorCore` — the tiled 16x16 matrix engine
  (Section III, Fig. 4).
* :class:`PerformanceModel` — throughput/efficiency analysis
  (Section IV-D, Table I).
"""

from .compute_core import VectorComputeCore
from .eoadc import ConversionRecord, EoAdc, ShiftAddEoAdc, TimeInterleavedEoAdc
from .multiplier import OneBitPhotonicMultiplier
from .performance import PerformanceModel
from .psram import PsramArray, PsramBitcell, WriteResult
from .quantization import (
    decode_output,
    dequantize_weights,
    encode_inputs,
    integral_weights,
    quantize_weights,
    signed_matmul_correction,
)
from .tensor_core import PhotonicTensorCore

__all__ = [
    "ConversionRecord",
    "decode_output",
    "dequantize_weights",
    "encode_inputs",
    "EoAdc",
    "integral_weights",
    "OneBitPhotonicMultiplier",
    "PerformanceModel",
    "PhotonicTensorCore",
    "PsramArray",
    "PsramBitcell",
    "quantize_weights",
    "ShiftAddEoAdc",
    "signed_matmul_correction",
    "TimeInterleavedEoAdc",
    "VectorComputeCore",
    "WriteResult",
]
