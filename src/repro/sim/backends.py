"""The kernel backends a :class:`~repro.runspec.RunSpec` can name.

A fixed table from mode label to kernel class, in canonical order:

* ``fast`` — the vectorized per-message hot path with flood planes (the
  default);
* ``legacy`` — the frozen pre-optimization reference, kept as the
  equivalence baseline;
* ``turbo`` — the fast kernel marked for the GHS family's whole-round
  phase engine (:mod:`repro.algorithms.ghs.turbo`).
"""

from __future__ import annotations

from repro.errors import ExperimentError
from repro.sim.kernel import SynchronousKernel, TurboKernel
from repro.sim.legacy import LegacyKernel

__all__ = ["KERNELS", "kernel_names", "kernel_class"]

#: Mode label -> kernel class, in canonical order (default first).
KERNELS: dict[str, type] = {
    "fast": SynchronousKernel,
    "legacy": LegacyKernel,
    "turbo": TurboKernel,
}


def kernel_names() -> tuple[str, ...]:
    """All kernel mode labels, in canonical order."""
    return tuple(KERNELS)


def kernel_class(name: str) -> type:
    """Resolve a kernel-mode label to its kernel class."""
    cls = KERNELS.get(name)
    if cls is None:
        raise ExperimentError(
            f"unknown kernel mode {name!r}; registered kernels: "
            + ", ".join(KERNELS)
        )
    return cls

