"""Fixture: compiled-state mutations that skip the hook (7 findings)."""

import numpy as np


class Adc:
    def __init__(self, trim_errors):
        self.trim_errors = trim_errors  # clean: __init__ is exempt
        self._boundaries = None

    def invalidate_boundaries(self):
        self._boundaries = None

    def retrim(self, sigma, rng):
        self.trim_errors = rng.normal(0.0, sigma, 8)  # firing: no hook call

    def retrim_in_place(self, rng):
        self.trim_errors[:] = rng.normal(0.0, 1.0, 8)  # firing: subscript store


class DenseLayer:
    def __init__(self, weights):
        self.q_positive = weights
        self._engine = None

    def invalidate_runtime(self):
        self._engine = None

    def set_weights(self, weights):
        self.q_positive = np.asarray(weights)  # firing: engine stays stale


class RingCore:
    def __init__(self):
        self._ring_tables = None

    def invalidate_ring_tables(self):
        self._ring_tables = None

    def retune(self, tables):
        self._ring_tables = tables  # firing: transmission caches go stale


class LadderCore:
    def __init__(self):
        self._ladder_stack = None
        self._ladder_shared = False

    def invalidate_ladder_stack(self):
        self._ladder_stack = None
        self._ladder_shared = False

    def ladder_stack(self, stack):
        self._ladder_stack = stack  # firing: compiles read a stale stack
        return self._ladder_stack


class DriveCore:
    def __init__(self):
        self._drives_at = None
        self._rings_exposed = False

    def invalidate_drives(self):
        self._drives_at = None

    def invalidate_ring_tables(self):
        pass

    def sync(self, writes):
        self._drives_at = writes  # firing: drives claim a write they never saw
        self._rings_exposed = True  # firing: tables skip revalidation
