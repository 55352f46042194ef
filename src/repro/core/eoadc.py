"""The 1-hot encoding electro-optic ADC (paper Section II-C, Figs. 8-10).

2^p identical high-Q all-pass rings share the input light (200 uW per
channel at 1310.5 nm).  Ring k's junction sees V_pn = V_REF,k - V_IN
with the reference ladder at the code-bin centers; only the ring whose
reference is nearest the input reaches resonance, dropping its thru
power below the 18 uW reference of its balanced-photodiode
thresholding block.  The activated block discharges its midpoint, the
inverter TIA + cascaded amplifier regenerate a rail-to-rail B_p, and
the ceiling-priority ROM decoder emits the binary code — resolving the
bin-edge case where two adjacent channels fire (Fig. 9's 2.0 V input).

Static conversion, the full transient co-simulation (ring photon
lifetime, thresholding-node slew, read-chain settling) and the paper's
extension paths (time interleaving, shift-and-add cascading) are all
implemented here.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..config import Technology, default_technology
from ..electronics.comparator import OptoElectricThresholder
from ..electronics.power import PowerLedger
from ..electronics.rom_decoder import CeilingPriorityRomDecoder
from ..errors import ConfigurationError, ConversionError
from ..photonics.mrr import AllPassMRR
from ..photonics.pn_junction import DepletionTuner
from ..sim.transient import FirstOrderLag, Recorder, TransientEngine

#: Bound on :data:`_LADDER_MEMO` entries (least recently used evicted).
LADDER_MEMO_SIZE = 64

#: Process-wide memo of bisected code ladders, keyed by
#: :meth:`EoAdc._ladder_key`: every fresh converter with the same
#: technology value, spec, trims, ring state and decoder strictness
#: reuses one bisection instead of re-running hundreds of conversions.
_LADDER_MEMO: OrderedDict[tuple, np.ndarray] = OrderedDict()


@dataclass
class ConversionRecord:
    """Result of a transient conversion run."""

    sample_times: list[float]
    codes: list[int]
    recorder: Recorder

    @property
    def final_code(self) -> int:
        return self.codes[-1]


class EoAdc:
    """The mixed-signal 1-hot electro-optic analog-to-digital converter."""

    def __init__(
        self,
        technology: Technology | None = None,
        bits: int | None = None,
        use_read_chain: bool = True,
        trim_errors=None,
        strict_decoder: bool = True,
        label: str = "eoadc",
    ) -> None:
        self.technology = technology if technology is not None else default_technology()
        tech = self.technology
        spec = tech.eoadc
        if bits is not None and bits != spec.bits:
            spec = dataclasses.replace(spec, bits=bits)
        self.spec = spec
        self.use_read_chain = use_read_chain
        self.label = label

        self.reference_voltages = np.asarray(spec.reference_voltages())
        if trim_errors is None:
            # The trim budget tracks the LSB: a converter designed for
            # finer codes is trimmed proportionally tighter, so the DNL
            # *texture* (in LSB) is comparable across precisions.  Pass
            # explicit trim_errors to study absolute-trim limits.
            sigma = spec.trim_sigma * (
                spec.lsb_voltage / self.technology.eoadc.lsb_voltage
            )
            rng = np.random.default_rng(spec.trim_seed)
            trim_errors = rng.normal(0.0, sigma, spec.levels)
        trim_errors = np.asarray(trim_errors, dtype=float)
        if trim_errors.shape != (spec.levels,):
            raise ConfigurationError(
                f"need {spec.levels} trim errors, got shape {trim_errors.shape}"
            )
        self.trim_errors = trim_errors

        ring_spec = tech.adc_ring_spec()
        self.rings = [
            AllPassMRR(
                ring_spec,
                design_wavelength=tech.wavelength,
                design_voltage=0.0,
                waveguide=tech.waveguide,
                coupler=tech.coupler,
                tuner=DepletionTuner(tech.depletion),
                thermal=tech.thermal,
                trim_error=float(trim_errors[k]),
                label=f"{label}.M{k + 1}",
            )
            for k in range(spec.levels)
        ]
        reference_power = self._design_reference_power()
        self.thresholders = [
            OptoElectricThresholder(
                reference_power=reference_power,
                supply_voltage=spec.supply_voltage,
                photodiode_spec=tech.photodiode,
                label=f"{label}.B{k + 1}",
            )
            for k in range(spec.levels)
        ]
        # Non-strict decoding emits the highest active channel even for
        # non-adjacent activations (a mistrimmed part producing garbage
        # codes rather than halting) — used by variation stress benches.
        self.decoder = CeilingPriorityRomDecoder(
            spec.bits, strict=strict_decoder, power=self._decoder_power()
        )
        self._code_boundaries: np.ndarray | None = None

    # -- design rules ----------------------------------------------------------
    def _design_reference_power(self) -> float:
        """Reference power setting the activation window to ~LSB/2.

        For the paper's 3-bit design this is its stated 18 uW; for other
        precisions the same window rule (thru power at a half-LSB
        detuning, averaged over both junction flanks) re-derives the
        reference so each ring covers exactly its own bin.
        """
        spec = self.spec
        if spec.bits == self.technology.eoadc.bits:
            return spec.reference_power
        tech = self.technology
        probe = AllPassMRR(
            tech.adc_ring_spec(),
            design_wavelength=tech.wavelength,
            design_voltage=0.0,
            waveguide=tech.waveguide,
            coupler=tech.coupler,
            tuner=DepletionTuner(tech.depletion),
        )
        half_lsb = spec.lsb_voltage / 2.0
        window = 1.0264 * half_lsb  # keep the paper's ~2.6% bin-edge overlap
        t_upper = float(probe.thru_transmission(tech.wavelength, voltage=+window))
        t_lower = float(probe.thru_transmission(tech.wavelength, voltage=-window))
        return spec.channel_power * 0.5 * (t_upper + t_lower)

    def _decoder_power(self) -> float:
        """ROM decoder + clocking power, scaled from the paper's 3-bit
        macro (the non-TIA 42% share of 11 mW)."""
        base = self.technology.eoadc
        share = base.electrical_power * (1.0 - base.tia_amp_power_fraction)
        return share * self.spec.levels / base.levels

    # -- static behaviour --------------------------------------------------------
    @property
    def bits(self) -> int:
        return self.spec.bits

    @property
    def levels(self) -> int:
        return self.spec.levels

    @property
    def lsb(self) -> float:
        return self.spec.lsb_voltage

    @property
    def sample_rate(self) -> float:
        """Conversion rate [Hz]: 8 GS/s with the read chain, 416.7 MS/s
        without (the paper's low-power ablation)."""
        if self.use_read_chain:
            return self.spec.sample_rate
        return self.spec.sample_rate_no_tia

    def junction_voltages(self, v_in: float) -> np.ndarray:
        """V_pn per ring: reference ladder minus the analog input."""
        return self.reference_voltages - v_in

    def thru_powers(self, v_in: float) -> np.ndarray:
        """Settled thru-port power per ring [W] at the input voltage."""
        wavelength = self.technology.wavelength
        voltages = self.junction_voltages(v_in)
        powers = np.empty(self.levels)
        for index, ring in enumerate(self.rings):
            transmission = float(
                ring.thru_transmission(wavelength, voltage=float(voltages[index]))
            )
            powers[index] = self.spec.channel_power * transmission
        return powers

    def activations(self, v_in: float) -> list[bool]:
        """Settled thresholding-block outputs B_1 .. B_{2^p}."""
        powers = self.thru_powers(v_in)
        return [
            thresholder.is_active(float(power))
            for thresholder, power in zip(self.thresholders, powers)
        ]

    def convert(self, v_in: float, strict: bool = False) -> int:
        """Settled (static) conversion of ``v_in`` to a binary code.

        Trim residuals can open small dead zones between adjacent
        activation windows; there the dynamic-logic ROM decoder holds
        its last code, which for a monotonic input equals the highest
        reference already passed.  That ramp-hold semantic is the
        default; ``strict=True`` instead raises
        :class:`~repro.errors.ConversionError` when no block fires
        (useful for verifying pure 1-hot coverage of an ideally trimmed
        converter).
        """
        if not 0.0 <= v_in < self.spec.full_scale_voltage:
            raise ConversionError(
                f"input {v_in} V outside the [0, {self.spec.full_scale_voltage}) V "
                "full-scale range"
            )
        activations = self.activations(v_in)
        if any(activations) or strict:
            return self.decoder.decode(activations)
        below = np.nonzero(self.reference_voltages <= v_in)[0]
        return int(below[-1]) if below.size else 0

    def code_boundaries(self) -> np.ndarray:
        """Exact code-transition voltages of the settled converter.

        Entry k - 1 is the smallest representable input voltage whose
        static conversion reaches code ``k`` (k = 1 .. 2^p - 1), found
        by bisecting :meth:`convert` down to floating-point resolution.
        Because the settled transfer function is a non-decreasing
        staircase (ring activation windows ordered along the reference
        ladder, ceiling-priority decoding, ramp-hold in the trim dead
        zones), ``np.searchsorted(boundaries, v, side="right")``
        reproduces ``convert(v)`` exactly for every in-range ``v`` —
        this ladder is what the :mod:`repro.runtime` compiler bins whole
        batches against.

        The result is memoised twice: on this converter (trims are
        assumed fixed after construction; see
        :meth:`invalidate_boundaries`) and in a bounded process-wide
        memo keyed by :meth:`_ladder_key`, so a fresh converter of an
        already-bisected design costs no conversions.  The returned
        array is shared and read-only.
        """
        if self._code_boundaries is not None:
            return self._code_boundaries
        key = self._ladder_key()
        boundaries = _LADDER_MEMO.get(key)
        if boundaries is None:
            boundaries = self._bisect_boundaries()
            boundaries.flags.writeable = False
            _LADDER_MEMO[key] = boundaries
            while len(_LADDER_MEMO) > LADDER_MEMO_SIZE:
                _LADDER_MEMO.popitem(last=False)
        else:
            _LADDER_MEMO.move_to_end(key)
        self._code_boundaries = boundaries
        return boundaries

    def _ladder_key(self) -> tuple:
        """Everything the settled transfer function reads: technology
        value, spec, trims and reference ladder, each ring's physical
        state, the thresholder references and decoder strictness."""
        return (
            self.technology.fingerprint(),
            tuple(vars(self.spec).values()),
            np.asarray(self.trim_errors, dtype=float).tobytes(),
            np.asarray(self.reference_voltages, dtype=float).tobytes(),
            tuple(ring.physical_state() for ring in self.rings),
            tuple(
                (thresholder.reference_power, thresholder.hysteresis_power)
                for thresholder in self.thresholders
            ),
            self.decoder.strict,
        )

    def _bisect_boundaries(self) -> np.ndarray:
        """Bisect :meth:`convert` for every code transition."""
        upper_probe = self.spec.full_scale_voltage - 1e-9
        top_code = self.convert(upper_probe)
        boundaries = np.empty(self.levels - 1)
        lower = 0.0
        for code in range(1, self.levels):
            if code > top_code:
                # Unreachable code (severely mistrimmed part): park the
                # threshold at full scale so binning never emits it.
                boundaries[code - 1] = self.spec.full_scale_voltage
                continue
            low, high = lower, upper_probe
            if self.convert(low) >= code:
                boundaries[code - 1] = low
                continue
            # Invariant: convert(low) < code <= convert(high).
            while True:
                mid = 0.5 * (low + high)
                if not low < mid < high:
                    break
                if self.convert(mid) >= code:
                    high = mid
                else:
                    low = mid
            boundaries[code - 1] = high
            lower = low
        return boundaries

    def invalidate_boundaries(self) -> None:
        """Drop the memoized code ladder so the next
        :meth:`code_boundaries` call re-bisects the converter.

        The memo assumes ring trims never change after construction;
        mutating ``trim_errors`` or ``spec`` in place (variation
        studies, recalibration re-trims) silently breaks that
        assumption — call this (or
        :meth:`~repro.core.tensor_core.PhotonicTensorCore.
        invalidate_ladders` on the owning core) afterwards.  The
        process-wide entry for the converter's current state is dropped
        too, so a recalibration really re-bisects.
        """
        self._code_boundaries = None
        _LADDER_MEMO.pop(self._ladder_key(), None)

    def convert_clamped(self, v_in: float) -> int:
        """Conversion with the input clipped into the full-scale range."""
        margin = 1e-9
        clamped = min(max(v_in, 0.0), self.spec.full_scale_voltage - margin)
        return self.convert(clamped)

    # -- transient behaviour ----------------------------------------------------------

    def transient_convert(
        self,
        input_function,
        duration: float,
        time_step: float = 0.5e-12,
        sample_rate: float | None = None,
    ) -> ConversionRecord:
        """Co-simulate a conversion stream (paper Fig. 9).

        ``input_function(t)`` is the analog input; codes are latched at
        the end of every sample period (decode-or-hold: a mid-flight
        sample with no settled activation keeps the previous code).
        """
        sample_rate = self.sample_rate if sample_rate is None else sample_rate
        period = 1.0 / sample_rate
        if duration < period:
            raise ConfigurationError("duration must cover at least one sample period")

        wavelength = self.technology.wavelength
        vdd = self.spec.supply_voltage
        # The loaded cavity's energy (hence transmission notch) responds
        # on the photon lifetime.
        ring_lag = FirstOrderLag(np.ones(self.levels), self.rings[0].photon_lifetime)
        read_lag = FirstOrderLag(
            np.zeros(self.levels), self.thresholders[0].read_chain_time_constant
        )
        for thresholder in self.thresholders:
            thresholder.node.voltage = vdd

        sample_times: list[float] = []
        codes: list[int] = []
        held = {"code": 0}
        next_sample = {"t": period}

        def targets(v_in: float) -> np.ndarray:
            voltages = self.junction_voltages(v_in)
            return np.array(
                [
                    float(
                        ring.thru_transmission(wavelength, voltage=float(voltage))
                    )
                    for ring, voltage in zip(self.rings, voltages)
                ]
            )

        def step(time: float, dt: float) -> dict[str, float]:
            v_in = float(input_function(time))
            transmissions = ring_lag.step(targets(v_in), dt)
            rails = np.empty(self.levels)
            if self.use_read_chain:
                # TIA current sensing: rails regenerate from the sign of
                # the balanced-pair current at the read-chain bandwidth.
                rail_targets = np.array(
                    [
                        thresholder.tia_rail_target(
                            self.spec.channel_power * float(transmission)
                        )
                        for thresholder, transmission in zip(
                            self.thresholders, transmissions
                        )
                    ]
                )
                rails = read_lag.step(rail_targets, dt)
            else:
                # No TIA: the balanced pair slews the midpoint node (and
                # decoder load) directly — the paper's 416.7 MS/s mode.
                for index, thresholder in enumerate(self.thresholders):
                    power = self.spec.channel_power * float(transmissions[index])
                    thresholder.step(power, dt)
                    rails[index] = thresholder.node_rail_output()
            activations = [float(rail) > vdd / 2.0 for rail in rails]
            code = self.decoder.decode_or_hold(activations, held["code"])
            held["code"] = code
            if time + dt >= next_sample["t"] - 1e-15:
                sample_times.append(next_sample["t"])
                codes.append(code)
                next_sample["t"] += period
            signals = {"VIN": v_in, "code": float(code)}
            for index in range(self.levels):
                signals[f"B{index + 1}"] = float(rails[index])
            return signals

        engine = TransientEngine(time_step, duration)
        recorder = engine.run(step)
        if not codes:
            raise ConversionError("no sample instants inside the transient window")
        return ConversionRecord(sample_times=sample_times, codes=codes, recorder=recorder)

    # -- power / energy ------------------------------------------------------------
    def power_ledger(self) -> PowerLedger:
        """Optical + electrical power (paper: 7.58 mW + 11 mW at 3 bits)."""
        spec = self.spec
        ledger = PowerLedger(self.technology.wall_plug_efficiency)
        ledger.add_optical("input light (per-channel x 2^p)", spec.levels * spec.channel_power)
        ledger.add_optical(
            "reference light (per-channel x 2^p)",
            spec.levels * self.thresholders[0].reference_power,
        )
        if self.use_read_chain:
            read_power = sum(t.read_chain_power for t in self.thresholders)
            ledger.add_electrical("TIA + amplifier chains", read_power)
        ledger.add_electrical("ROM decoder + clocking", self.decoder.power)
        return ledger

    @property
    def total_power(self) -> float:
        return self.power_ledger().total

    @property
    def energy_per_conversion(self) -> float:
        """Wall-plug energy per conversion [J] (paper: 2.32 pJ)."""
        return self.total_power / self.sample_rate


class TimeInterleavedEoAdc:
    """K interleaved eoADC slices for a K-fold sample rate (paper's
    'time-interleaved structures to improve the operating speed').

    Interleaving reintroduces the classic lane mismatches the 1-hot
    design otherwise avoids: per-lane offset and clock skew are drawn
    from seeded distributions so benches can quantify the trade.
    """

    def __init__(
        self,
        lanes: int = 2,
        technology: Technology | None = None,
        offset_sigma: float = 2e-3,
        skew_sigma: float = 0.5e-12,
        seed: int = 7,
    ) -> None:
        if lanes < 2:
            raise ConfigurationError(f"interleaving needs >= 2 lanes, got {lanes}")
        self.technology = technology if technology is not None else default_technology()
        self.lanes = lanes
        rng = np.random.default_rng(seed)
        self.offsets = rng.normal(0.0, offset_sigma, lanes)
        self.skews = rng.normal(0.0, skew_sigma, lanes)
        self.slices = [
            EoAdc(self.technology, label=f"ti.lane{index}") for index in range(lanes)
        ]

    @property
    def sample_rate(self) -> float:
        return self.lanes * self.slices[0].sample_rate

    @property
    def total_power(self) -> float:
        return sum(adc.total_power for adc in self.slices)

    @property
    def energy_per_conversion(self) -> float:
        return self.total_power / self.sample_rate

    def convert_stream(self, input_function, count: int) -> list[int]:
        """Convert ``count`` samples of ``input_function(t)`` round-robin
        across lanes, including each lane's offset and skew errors."""
        if count < 1:
            raise ConfigurationError(f"need at least one sample, got {count}")
        period = 1.0 / self.sample_rate
        codes = []
        full_scale = self.slices[0].spec.full_scale_voltage
        for n in range(count):
            lane = n % self.lanes
            time = n * period + self.skews[lane]
            value = float(input_function(max(time, 0.0))) + self.offsets[lane]
            value = min(max(value, 0.0), full_scale - 1e-9)
            codes.append(self.slices[lane].convert(value))
        return codes


class ShiftAddEoAdc:
    """Two cascaded lower-bit eoADCs with shift-and-add recombination
    (the paper's higher-precision extension).

    The coarse stage resolves p bits; the residue is amplified by 2^p
    (with a configurable interstage gain error) and digitized by the
    fine stage, yielding 2p bits total.
    """

    def __init__(
        self,
        technology: Technology | None = None,
        gain_error: float = 0.0,
        label: str = "shiftadd",
    ) -> None:
        self.technology = technology if technology is not None else default_technology()
        self.coarse = EoAdc(self.technology, label=f"{label}.coarse")
        self.fine = EoAdc(self.technology, label=f"{label}.fine")
        self.gain_error = gain_error

    @property
    def bits(self) -> int:
        return self.coarse.bits + self.fine.bits

    @property
    def levels(self) -> int:
        return 2**self.bits

    @property
    def lsb(self) -> float:
        return self.coarse.spec.full_scale_voltage / self.levels

    def convert(self, v_in: float) -> int:
        """Full-precision conversion via coarse code + amplified residue."""
        coarse_code = self.coarse.convert(v_in)
        residue = v_in - coarse_code * self.coarse.lsb
        gain = self.coarse.levels * (1.0 + self.gain_error)
        amplified = residue * gain
        full_scale = self.fine.spec.full_scale_voltage
        amplified = min(max(amplified, 0.0), full_scale - 1e-9)
        fine_code = self.fine.convert(amplified)
        return (coarse_code << self.fine.bits) | fine_code

    @property
    def total_power(self) -> float:
        return self.coarse.total_power + self.fine.total_power

    @property
    def sample_rate(self) -> float:
        # The cascade is pipelined: throughput follows the single stage.
        return self.coarse.sample_rate

    @property
    def energy_per_conversion(self) -> float:
        return self.total_power / self.sample_rate
