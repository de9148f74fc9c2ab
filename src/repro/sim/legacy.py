"""The pre-optimization delivery path, preserved as a reference kernel.

:class:`LegacyKernel` re-implements sending, delivery and energy charging
exactly as the kernel did before the hot-path rework (per-recipient
KD-tree queries in ``local_broadcast``, a flat pending list with a full
per-round sort).  It exists for two reasons:

* ``tests/test_hotpath_equivalence.py`` runs the GHS family and EOPT on
  both kernels and asserts bit-identical stats (every energy breakdown
  included) and MST edge sets — the contract that lets the fast path
  evolve;
* ``benchmarks/bench_kernel_hotpath.py`` times both, so every future PR
  can report its speedup against a fixed pre-PR baseline.

Do not "optimize" this module: its value is being frozen.
"""

from __future__ import annotations

import math

from repro.errors import GeometryError, SimulationError
from repro.sim.kernel import SynchronousKernel
from repro.sim.message import Message


class LegacyKernel(SynchronousKernel):
    """Drop-in kernel with the original (pre-cache) hot path."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._flat_pending = True

    def _send_unicast(self, src: int, dst: int, kind: str, payload: tuple) -> None:
        if not (0 <= dst < self.n):
            raise SimulationError(f"unicast to unknown node {dst}")
        if dst == src:
            raise SimulationError(f"node {src} attempted to unicast to itself")
        d = self.points[src] - self.points[dst]
        dist = math.sqrt(d[0] * d[0] + d[1] * d[1])
        self._check_power(src, dist)
        self._ledger.charge(src, kind, self.stage, self.power.energy(dist))
        self._pending.append((dst, Message(kind, src, dst, payload, dist), dist))

    def _send_broadcast(self, src: int, radius: float, kind: str, payload: tuple) -> None:
        if radius < 0:
            raise GeometryError(f"broadcast radius must be non-negative, got {radius}")
        radius = float(radius)
        self._check_power(src, radius)
        self._ledger.charge(src, kind, self.stage, self.power.energy(radius))
        if self._tree is None:
            return
        msg = Message(kind, src, None, payload, radius)
        recipients = self._tree.query_ball_point(self.points[src], radius)
        src_pt = self.points[src]
        pending = self._pending
        for r in recipients:
            if r == src:
                continue
            d = src_pt - self.points[r]
            dist = math.sqrt(d[0] * d[0] + d[1] * d[1])
            pending.append((r, msg, dist))

    def step(self) -> int:
        if not self._pending:
            return 0
        return self._step_flat()

