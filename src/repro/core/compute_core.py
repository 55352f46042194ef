"""The mixed-signal multi-bit WDM vector-multiplication core (Fig. 2).

An input vector rides a frequency comb (element i intensity-encoded on
wavelength lambda_i).  A cascade of 50/50 splitters produces binary-
scaled copies of the WDM bus (IN/2 ... IN/2^n); bit plane j of the
weight word drives one ring per channel on its own bus, and a
photodiode per plane converts the surviving light to current.  Equal-
gain electrical summation of the planes then yields

    I  ~  sum_i IN_i * w_i / 2^n ,

the vector-vector product.  Vectors longer than the per-macro channel
count (4 channels in a 9.36 nm FSR at 2.33 nm spacing) tile across
macros whose photocurrents sum.

Inter-channel crosstalk is included exactly: every ring's transfer
function is evaluated at every channel wavelength, reproducing the
paper's all-rings-in-testbench methodology; the per-channel PDK mode
(:meth:`compute_per_channel`) mirrors the paper's one-wavelength-at-a-
time workaround and agrees with the joint evaluation by linearity.

Weight rings differ only in channel index (the PDK length adjustment)
and stored bit (pSRAM drive 0 or VDD), so each ring's thru
transmission at every channel wavelength takes one of two values.
Those on/off rows are evaluated once per distinct ring physical state
and kept in a bounded process-wide memo; a weight load is then a
vectorised select-and-multiply over the core's ring tables
(:func:`bus_products`), and it latches only the pSRAM bits and that
transmission cache.  The ring device objects follow lazily: each ring's
drive is set from its stored bit when the rings are next read.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

from ..config import Technology, default_technology
from ..electronics.power import PowerLedger
from ..errors import ConfigurationError
from ..photonics.coupler import BinaryScaledSplitterTree
from ..photonics.laser import FrequencyComb
from ..photonics.photodiode import Photodiode
from ..photonics.wdm import ChannelPlan
from .multiplier import OneBitPhotonicMultiplier
from .psram import PsramArray, word_bits
from .quantization import integral_weights

#: Bound on :data:`_RING_TABLE_MEMO` entries (least recently used
#: evicted).  One entry is a (2, channels) array; a core at nominal
#: physics needs one per channel index.
RING_TABLE_MEMO_SIZE = 1024

#: Process-wide memo: weight-ring state -> (2, channels) thru
#: transmissions at the channel wavelengths, row 0 with the bit at 0
#: (drive 0 V), row 1 with the bit at 1 (drive VDD).  Keyed by the
#: technology fingerprint followed by the ring's ``physical_state()``.
_RING_TABLE_MEMO: OrderedDict[tuple, np.ndarray] = OrderedDict()


def _on_off_rows(key: tuple, ring, wavelengths: np.ndarray, vdd: float) -> np.ndarray:
    """Memoised (off, on) thru-transmission rows of one ring state."""
    rows = _RING_TABLE_MEMO.get(key)
    if rows is not None:
        _RING_TABLE_MEMO.move_to_end(key)
        return rows
    rows = np.stack(
        [
            np.asarray(ring.thru_transmission(wavelengths, voltage=0.0), dtype=float),
            np.asarray(ring.thru_transmission(wavelengths, voltage=vdd), dtype=float),
        ]
    )
    rows.flags.writeable = False
    _RING_TABLE_MEMO[key] = rows
    while len(_RING_TABLE_MEMO) > RING_TABLE_MEMO_SIZE:
        _RING_TABLE_MEMO.popitem(last=False)
    return rows


def bus_products(tables: np.ndarray, bits: np.ndarray, macro_count: int) -> np.ndarray:
    """Per-(macro, plane, channel) bus transmissions with crosstalk.

    ``tables`` holds ring on/off rows ``(..., elements, planes, 2,
    channels)`` and ``bits`` the stored bits ``(..., elements, planes)``;
    leading axes batch independent cores (the rows of a tensor core).
    Entry ``[..., g, j, c]`` is the product of every ring transfer on
    macro g's plane-j bus at channel c's wavelength.  The product runs
    over macro g's elements in ascending order, the multiply order of a
    per-ring loop, so each core's slice is bitwise that loop's.
    """
    per_macro = tables.shape[-1]
    elements, planes = bits.shape[-2:]
    rings = np.where(
        bits[..., np.newaxis].astype(bool), tables[..., 1, :], tables[..., 0, :]
    )
    batch = bits.shape[:-2]
    padded = np.ones(batch + (macro_count * per_macro, planes, per_macro), dtype=float)
    padded[..., :elements, :, :] = rings
    padded = padded.reshape(batch + (macro_count, per_macro, planes, per_macro))
    cache = padded[..., 0, :, :].copy()
    for position in range(1, per_macro):
        cache *= padded[..., position, :, :]
    return cache


def stacked_element_responses(cores) -> np.ndarray:
    """:meth:`VectorComputeCore.element_responses` of equal-length
    cores, stacked ``(len(cores), vector_length)``.

    Each coefficient is ``responsivity * channel_power`` times one 1-D
    dot of the core's splitter fractions with a strided cache column
    ``[macro, :, channel]``.  The stack of ``(1, planes) @ (planes, 1)``
    products below hands numpy's 1-D dot exactly those operands and
    strides, so every entry is bitwise a per-element ``fractions @
    cache[macro, :, channel]`` loop; a batched or contiguous dot may sum
    in another order.
    """
    caches = np.stack([core._transmission_cache for core in cores])
    fractions = np.array([core.splitter_tree.branch_fractions() for core in cores])
    scales = np.array(
        [
            core.photodiode.spec.responsivity * core.technology.compute.channel_power
            for core in cores
        ]
    )
    columns = caches.swapaxes(2, 3)[..., np.newaxis]
    dots = fractions[:, np.newaxis, np.newaxis, np.newaxis, :] @ columns
    elements = cores[0].vector_length
    return scales[:, np.newaxis] * dots.reshape(len(cores), -1)[:, :elements]


class VectorComputeCore:
    """A 1 x m, n-bit photonic vector-multiplication engine.

    :attr:`multipliers` ``[element][plane]`` holds one ring per input
    element per bit plane.  The core keeps per-ring on/off
    thru-transmission tables of shape ``(elements, planes, 2,
    channels)``, filled from the process-wide ring-state memo, so a load
    builds the transmission cache without evaluating a ring unless its
    state is new to the process.  Once the rings have been handed out
    (they may be retuned from outside, e.g. thermal drift and heater
    lock), every :meth:`load_weights` revalidates the tables against the
    rings' live states.
    """

    def __init__(
        self,
        vector_length: int = 4,
        weight_bits: int | None = None,
        technology: Technology | None = None,
        label: str = "core",
    ) -> None:
        if vector_length < 1:
            raise ConfigurationError(f"vector length must be >= 1, got {vector_length}")
        self.technology = technology if technology is not None else default_technology()
        tech = self.technology
        self.vector_length = vector_length
        self.weight_bits = tech.compute.weight_bits if weight_bits is None else weight_bits
        if self.weight_bits < 1:
            raise ConfigurationError(f"weight bits must be >= 1, got {self.weight_bits}")
        self.label = label

        channels = tech.compute.wavelengths_per_macro
        self.channels_per_macro = channels
        self.macro_count = math.ceil(vector_length / channels)
        self.plan = ChannelPlan(
            base_wavelength=tech.wavelength,
            spacing=tech.compute.channel_spacing,
            count=channels,
        )
        self.comb = FrequencyComb(
            base_wavelength=tech.wavelength,
            spacing=tech.compute.channel_spacing,
            line_count=channels,
            power_per_line=tech.compute.channel_power,
            wall_plug_efficiency=tech.wall_plug_efficiency,
            label=f"{label}.comb",
        )
        self.splitter_tree = BinaryScaledSplitterTree(self.weight_bits)
        self.photodiode = Photodiode(tech.photodiode, label=f"{label}.pd")
        self.weight_memory = PsramArray(vector_length, self.weight_bits, tech)

        # multipliers[element][plane] — one ring per input element per
        # bit plane; the element's macro determines its channel index.
        self._multipliers: list[list[OneBitPhotonicMultiplier]] = []
        for element in range(vector_length):
            channel = element % channels
            planes = [
                OneBitPhotonicMultiplier(
                    channel_index=channel,
                    technology=tech,
                    label=f"{label}.w{element}.b{plane}",
                )
                for plane in range(self.weight_bits)
            ]
            self._multipliers.append(planes)
        self._flat_multipliers = [m for planes in self._multipliers for m in planes]

        #: (elements, planes, 2, channels) off/on ring transmissions and
        #: the technology fingerprint + ring states they were built for.
        self._ring_tables: np.ndarray | None = None
        self._ring_key: tuple | None = None
        #: Whether the rings have been handed out (see multipliers).
        self._rings_exposed = False
        #: pSRAM write count the ring drives were last set at (None =
        #: never); a read of multipliers re-drives the rings when the
        #: array has been written since.
        self._drives_at: int | None = None
        self._weights = np.zeros(vector_length, dtype=int)
        self._transmission_cache: np.ndarray | None = None
        self.load_weights(self._weights)

    # -- weight handling ------------------------------------------------------
    @property
    def weights(self) -> np.ndarray:
        """Stored unsigned integer weights (copy)."""
        return self._weights.copy()

    @property
    def max_weight(self) -> int:
        return 2**self.weight_bits - 1

    @property
    def multipliers(self) -> list[list[OneBitPhotonicMultiplier]]:
        """The ring device objects, ``[element][plane]``.

        Loads latch only the pSRAM bits and the transmission cache; the
        first read after a write sets every ring's drive to ``vdd *
        bit`` of the stored bit matrix, so the device view is exact for
        every reader.  Handing the rings out also lets callers retune
        them, so from the first read on every load revalidates the ring
        tables against the rings' live states.
        """
        if not self._rings_exposed:
            self.invalidate_ring_tables()
            self._rings_exposed = True
        writes = self.weight_memory.write_events
        if self._drives_at != writes:
            self.invalidate_drives()
            bits = self.weight_memory.bit_matrix.ravel().tolist()
            for multiplier, bit in zip(self._flat_multipliers, bits):
                multiplier.bit = bit
            self._drives_at = writes
        return self._multipliers

    def invalidate_drives(self) -> None:
        """Forget which pSRAM write the ring drives follow, so the next
        read of :attr:`multipliers` re-drives every ring from its
        stored bit (e.g. after setting a multiplier's bit by hand)."""
        self._drives_at = None

    def load_weights(self, weights) -> None:
        """Write a weight vector into the pSRAM planes (the ring drives
        follow on the next read of :attr:`multipliers`)."""
        weights = integral_weights(weights)
        if weights.shape != (self.vector_length,):
            raise ConfigurationError(
                f"need {self.vector_length} weights, got shape {weights.shape}"
            )
        if np.any(weights < 0) or np.any(weights > self.max_weight):
            raise ConfigurationError(
                f"weights must lie in [0, {self.max_weight}] for {self.weight_bits} bits"
            )
        bits = word_bits(weights, self.weight_bits)
        cache = bus_products(self._current_ring_tables(), bits, self.macro_count)
        self._latch(weights, bits, cache)

    def _latch(self, weights: np.ndarray, bits: np.ndarray, cache: np.ndarray) -> int:
        """Store validated words: their pSRAM bits ``(elements,
        planes)``, the words themselves and the bus transmissions
        :func:`bus_products` selected for them from this core's ring
        tables; returns the flipped bitcells.  :meth:`load_weights` and
        the tensor core's one-pass matrix load both end here."""
        flips = self.weight_memory.write_bits(bits)
        self._weights = weights
        self._transmission_cache = cache
        return flips

    # -- ring tables ------------------------------------------------------------
    def _current_ring_tables(self, fingerprint: tuple | None = None) -> np.ndarray:
        """The per-ring on/off tables, rebuilt if the technology value
        (``fingerprint``, read here when not given) or any ring's
        physical state changed since they were built.  Ring states are
        read only once the rings have been handed out: until then
        nothing can have retuned them."""
        if fingerprint is None:
            fingerprint = self.technology.fingerprint()
        if (
            self._ring_tables is not None
            and not self._rings_exposed
            and self._ring_key is not None
            and self._ring_key[0] == fingerprint
        ):
            return self._ring_tables
        states = [m.ring.physical_state() for m in self._flat_multipliers]
        key = (fingerprint, states)
        if self._ring_tables is not None and key == self._ring_key:
            return self._ring_tables
        self.invalidate_ring_tables()
        wavelengths = self.plan.wavelengths
        vdd = self.technology.psram.vdd
        distinct: dict[tuple, np.ndarray] = {}
        for multiplier, state in zip(self._flat_multipliers, states):
            if state not in distinct:
                distinct[state] = _on_off_rows(
                    (key[0],) + state, multiplier.ring, wavelengths, vdd
                )
        tables = np.stack([distinct[state] for state in states]).reshape(
            self.vector_length, self.weight_bits, 2, self.channels_per_macro
        )
        self._ring_tables = tables
        self._ring_key = key
        return tables

    def invalidate_ring_tables(self) -> None:
        """Drop this core's ring tables so the next load or
        full-scale probe regathers them from the memo.  Every load
        already revalidates them against the live ring states, so a
        retuned ring never needs this; it is the reset the rebuild
        itself goes through."""
        self._ring_tables = None
        self._ring_key = None

    # -- evaluation ---------------------------------------------------------------
    def _validated_inputs(self, inputs) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        if inputs.shape != (self.vector_length,):
            raise ConfigurationError(
                f"need {self.vector_length} inputs, got shape {inputs.shape}"
            )
        if np.any(inputs < 0.0) or np.any(inputs > 1.0):
            raise ConfigurationError("analog inputs must lie in [0, 1]")
        return inputs

    def compute(self, inputs) -> float:
        """Photocurrent [A] of the full vector multiplication."""
        inputs = self._validated_inputs(inputs)
        fractions = np.asarray(self.splitter_tree.branch_fractions())
        power_per_channel = self.technology.compute.channel_power
        responsivity = self.photodiode.spec.responsivity

        current = 0.0
        for macro in range(self.macro_count):
            start = macro * self.channels_per_macro
            stop = min(start + self.channels_per_macro, self.vector_length)
            macro_inputs = np.zeros(self.channels_per_macro)
            macro_inputs[: stop - start] = inputs[start:stop]
            channel_powers = power_per_channel * macro_inputs
            # plane currents: R * sum_c P_c * frac_j * T[g, j, c]
            plane_powers = self._transmission_cache[macro] @ channel_powers
            current += responsivity * float(fractions @ plane_powers)
        return current

    def element_responses(self) -> np.ndarray:
        """Per-element photocurrent response [A per unit input intensity].

        Because the settled optical path is linear in the input
        intensities, ``compute(x)`` equals ``element_responses() @ x``
        for every valid ``x``.  Entry i folds the splitter-tree
        fractions, the bit-plane bus transmissions at element i's
        channel wavelength (including every other ring's crosstalk on
        the shared buses), the channel power and the photodiode
        responsivity into one coefficient.  This is the hook the
        :mod:`repro.runtime` compiler uses to turn the device loop into
        a dense matrix row; it is rebuilt implicitly on every
        :meth:`load_weights` via the transmission cache.
        """
        return stacked_element_responses([self])[0]

    def compute_per_channel(self, inputs) -> float:
        """The paper's PDK workaround: one wavelength at a time, all
        rings present, photocurrents summed linearly."""
        inputs = self._validated_inputs(inputs)
        current = 0.0
        for element in range(self.vector_length):
            solo = np.zeros(self.vector_length)
            solo[element] = inputs[element]
            current += self.compute(solo)
        return current

    def ideal_dot_product(self, inputs) -> float:
        """Fixed-point reference: sum_i IN_i * w_i / 2^n."""
        inputs = self._validated_inputs(inputs)
        return float(inputs @ self._weights) / 2.0**self.weight_bits

    def full_scale_current(self) -> float:
        """Photocurrent with all inputs at 1 and all weights at max.

        Evaluated analytically (every ring's "on" table row, the VDD
        drive) so this calibration probe does not spend pSRAM write
        energy.
        """
        cache = bus_products(
            self._current_ring_tables(),
            np.ones((self.vector_length, self.weight_bits), dtype=np.uint8),
            self.macro_count,
        )
        fractions = np.asarray(self.splitter_tree.branch_fractions())
        power_per_channel = self.technology.compute.channel_power
        responsivity = self.photodiode.spec.responsivity
        current = 0.0
        for macro in range(self.macro_count):
            start = macro * self.channels_per_macro
            stop = min(start + self.channels_per_macro, self.vector_length)
            macro_inputs = np.zeros(self.channels_per_macro)
            macro_inputs[: stop - start] = 1.0
            plane_powers = cache[macro] @ (power_per_channel * macro_inputs)
            current += responsivity * float(fractions @ plane_powers)
        return current

    def unit_current(self) -> float:
        """Current corresponding to one unit of the ideal dot product.

        Calibrated from the full-scale point so normalized outputs can
        be compared against :meth:`ideal_dot_product` directly.
        """
        full_scale_dot = self.vector_length * self.max_weight / 2.0**self.weight_bits
        return self.full_scale_current() / full_scale_dot

    def normalized_output(self, inputs) -> float:
        """compute() scaled into ideal-dot-product units."""
        return self.compute(inputs) / self.unit_current()

    # -- bookkeeping ------------------------------------------------------------
    def weight_update_energy(self) -> float:
        """Wall-plug energy spent on pSRAM switches so far [J]."""
        return self.weight_memory.write_energy()

    def power_ledger(self) -> PowerLedger:
        """Static optical/electrical power of this core."""
        ledger = PowerLedger(self.technology.wall_plug_efficiency)
        total_input = self.vector_length * self.technology.compute.channel_power
        ledger.add_optical("input comb", total_input)
        ledger.add_optical(
            "pSRAM hold bias",
            self.weight_memory.cell_count * self.technology.psram.bias_power,
        )
        ledger.add_electrical(
            "pSRAM drivers",
            self.weight_memory.cell_count * self.technology.psram.hold_electrical_power,
        )
        return ledger
