"""Turbo backend unit tests: phase-engine engagement, kernel table.

The end-to-end observational contract lives in
``tests/test_hotpath_equivalence.py`` (parametrized over every kernel
backend).  This module pins the turbo-specific mechanisms in isolation:

* the whole-round phase engine engages on eligible runs (and only then);
* the kernel table resolves modes and unknown-name errors;
* the engine's sequential energy sum matches the scalar ``+=`` loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.perf import PEAK_RSS_COUNTER, perf
from repro.sim import TurboKernel, kernel_class, kernel_names
from repro.sim.faults import FaultPlan


# -- phase engine engagement --------------------------------------------------


class TestPhaseEngine:
    def _counters(self, **kwargs):
        from repro.algorithms.ghs import run_modified_ghs
        from repro.experiments.instances import get_points

        perf.reset()
        perf.enable()
        try:
            run_modified_ghs(get_points(300, 0), kernel_cls=TurboKernel, **kwargs)
            return dict(perf.counters)
        finally:
            perf.disable()
            perf.reset()

    def test_engine_engages_on_eligible_runs(self):
        counters = self._counters()
        assert counters.get("kernel.turbo_engine_rounds", 0) > 0
        assert counters.get(PEAK_RSS_COUNTER, 0) > 0  # sampled at rounds

    def test_engine_disengages_under_faults(self):
        counters = self._counters(faults=FaultPlan(seed=1, drop_rate=0.05))
        assert counters.get("kernel.turbo_engine_rounds", 0) == 0

    def test_engine_disengages_without_planes(self):
        counters = self._counters(planes=False)
        assert counters.get("kernel.turbo_engine_rounds", 0) == 0


# -- kernel table -------------------------------------------------------------


class TestKernelRegistry:
    def test_canonical_modes(self):
        names = kernel_names()
        assert names[0] == "fast"  # default first
        assert set(names) >= {"fast", "legacy", "turbo"}

    def test_resolution_and_layouts(self):
        assert kernel_class("turbo") is TurboKernel

    def test_unknown_mode_lists_backends(self):
        with pytest.raises(ExperimentError, match="fast") as ei:
            kernel_class("warp9")
        for name in kernel_names():
            assert name in str(ei.value)


# -- sequential energy accumulation -------------------------------------------


class TestSeqEnergyAccumulate:
    """The turbo engine folds per-message energies into the ledger through
    :func:`seq_energy_accumulate`; it must be bit-identical to the scalar
    ``total += e`` loop."""

    def _reference(self, total, energies):
        total = float(total)
        for e in energies:
            total += float(e)
        return total

    def test_matches_scalar_loop_bitwise(self):
        from repro.algorithms.ghs.turbo import seq_energy_accumulate

        rng = np.random.default_rng(7)
        for size in (0, 1, 3, 100, 4097):
            energies = rng.uniform(0.0, 2.0, size=size)
            total = float(rng.uniform(0.0, 10.0))
            got = seq_energy_accumulate(total, energies)
            assert got == self._reference(total, energies)  # exact, not approx
