"""Fixture: sanctioned compiled-state mutation patterns (0 findings)."""

import numpy as np


class Adc:
    def __init__(self, trim_errors):
        self.trim_errors = trim_errors
        self._boundaries = None

    def invalidate_boundaries(self):
        self._boundaries = None

    def retrim(self, sigma, rng):
        self.trim_errors = rng.normal(0.0, sigma, 8)
        self.invalidate_boundaries()


class Core:
    def __init__(self, adc):
        self.adc = adc
        self.runtime_ladder_cache = []

    def invalidate_ladders(self):
        self.runtime_ladder_cache.clear()
        self.adc.invalidate_boundaries()

    def reset_memo(self):
        self.runtime_ladder_cache = []
        self.invalidate_ladders()


class DenseLayer:
    def __init__(self, weights):
        self.q_positive = weights
        self._engine = None

    def invalidate_runtime(self):
        self._engine = None

    def set_weights(self, weights):
        self.q_positive = np.asarray(weights)
        self.invalidate_runtime()


class RingCore:
    def __init__(self):
        self._ring_tables = None
        self._ring_key = None

    def invalidate_ring_tables(self):
        self._ring_tables = None
        self._ring_key = None

    def rebuild(self, key, tables):
        self.invalidate_ring_tables()
        self._ring_tables = tables
        self._ring_key = key


class LadderCore:
    def __init__(self):
        self._ladder_stack = None
        self._ladder_shared = False

    def invalidate_ladder_stack(self):
        self._ladder_stack = None
        self._ladder_shared = False

    def invalidate_ladders(self):
        self.invalidate_ladder_stack()

    def ladder_stack(self, stack, shared):
        if self._ladder_stack is None:
            self.invalidate_ladder_stack()
            self._ladder_stack = stack
            self._ladder_shared = shared
        return self._ladder_stack, self._ladder_shared


class DriveCore:
    def __init__(self):
        self._drives_at = None
        self._rings_exposed = False

    def invalidate_drives(self):
        self._drives_at = None

    def invalidate_ring_tables(self):
        pass

    def rings(self, writes):
        if not self._rings_exposed:
            self.invalidate_ring_tables()
            self._rings_exposed = True
        if self._drives_at != writes:
            self.invalidate_drives()
            self._drives_at = writes


class NoHooksNoContract:
    """A class without invalidate_* hooks is out of contract scope."""

    def __init__(self):
        self.spec = None

    def replace_spec(self, spec):
        self.spec = spec
