"""The turbo kernel backend: whole-round execution as array programs.

:class:`TurboKernel` extends the fast kernel with *flat batch* message
semantics: a round's outbox is a set of ``(senders, recipients, kind,
payload-column)`` arrays instead of per-message ``Message`` objects, and
delivery hands each kind's whole batch to one registered vectorized
handler — the unicast analogue of the flood planes the fast kernel
already runs for HELLO/ANNOUNCE.  Fault fates come from
:meth:`repro.sim.faults.FaultPlane.times` applied to the entire batch at
once; charges are taken with one ``np.add.accumulate`` chain seeded with
the running total, which is bit-identical to the scalar kernel's
sequential ``+=`` per message.

Two layers build on these primitives:

* the GHS-family driver detects a :class:`TurboKernel` and replaces its
  phase loop with the whole-round array program in
  :mod:`repro.algorithms.ghs.turbo` (flood and converge-cast stages with
  no per-node handler calls);
* scripted/irregular traffic (and every configuration the turbo phase
  engine does not cover: plain GHS, fault plans, reliable transport,
  reception costs) falls through to the inherited fast-kernel paths
  unchanged, so ``kernel="turbo"`` is *always* observationally identical
  to ``kernel="fast"`` — sometimes just not faster.

Numba is optional by policy (see :mod:`repro.sim._jit`): every array
program here runs as pure numpy when Numba is absent.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import SimulationError
from repro.perf import perf
from repro.sim._jit import HAVE_NUMBA, njit
from repro.sim.kernel import SynchronousKernel
from repro.trace import trace

__all__ = ["TurboKernel", "seq_energy_accumulate"]


@njit(cache=True)
def _seq_sum_jit(total: float, energies: np.ndarray) -> float:
    total = float(total)
    for i in range(energies.shape[0]):
        total += energies[i]
    return total


def seq_energy_accumulate(total: float, energies: np.ndarray) -> float:
    """``total`` advanced by every element of ``energies``, *in order*.

    The scalar tail of the turbo backend's energy accounting: the ledger
    total must move through the exact left-to-right partial sums the
    per-message kernel's ``+=`` loop produces, so pairwise/compensated
    summation is off the table.  Under Numba this is the jitted scalar
    loop itself; without it, a seeded ``np.add.accumulate`` chain —
    ufunc accumulation is defined as sequential application, so the two
    paths are bit-identical (pinned by ``tests/test_turbo.py`` with and
    without ``REPRO_NO_NUMBA=1``).
    """
    if HAVE_NUMBA:
        return float(_seq_sum_jit(float(total), np.ascontiguousarray(energies)))
    return float(np.add.accumulate(np.concatenate(([total], energies)))[-1])


class TurboKernel(SynchronousKernel):
    """Fast kernel plus flat-batch rounds (see module docstring)."""

    #: Capability flag algorithm drivers test before swapping their
    #: per-message loops for whole-round array programs.
    turbo_rounds = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Flat batches pending for the next round: (kind, srcs, dsts,
        # dists, payloads) with parallel arrays.
        self._flat_batches: list[tuple] = []
        self._n_flat_pending = 0
        self._batch_handlers: dict[str, Callable] = {}

    # -- batch API -------------------------------------------------------------

    def set_batch_handler(self, kind: str, handler: Callable | None) -> None:
        """Register (or clear) the vectorized delivery callback for ``kind``.

        ``handler(kind, srcs, dsts, dists, payloads)`` receives the whole
        surviving batch for one round — parallel arrays, already ordered
        by recipient then send order, with fault fates applied.
        """
        if handler is None:
            self._batch_handlers.pop(kind, None)
        else:
            self._batch_handlers[kind] = handler

    def charge_tx_batch(self, srcs: np.ndarray, kind: str, energies: np.ndarray) -> None:
        """Charge one transmission per ``srcs[i]`` costing ``energies[i]``.

        Exactly the accumulation the scalar ``_charge_tx`` loop performs:
        ``energy_total`` advances through the same left-to-right partial
        sums (``np.add.accumulate`` seeded with the running total is
        sequential, not pairwise), per-kind/per-stage cells batch the
        same way the fast kernel batches them, and per-node energy goes
        straight into the ledger array (the breakdowns' contract is
        reassociation-tolerant).
        """
        k = len(srcs)
        if k == 0:
            return
        led = self._ledger
        led.energy_total = seq_energy_accumulate(led.energy_total, energies)
        led.messages_total += k
        np.add.at(led.energy_by_node, srcs, energies)
        acc = self._acc_kinds
        key = (kind, self.stage)
        cell = acc.get(key)
        esum = float(energies.sum())
        if cell is None:
            acc[key] = [esum, k]
        else:
            cell[0] += esum
            cell[1] += k
        if perf.enabled:
            perf.add("kernel.turbo_charges", k)

    def unicast_batch(
        self,
        srcs,
        dsts,
        kind: str,
        payloads=None,
        *,
        dists=None,
    ) -> None:
        """Batch ``unicast``: one flat outbox entry for many messages.

        Charges every sender as the scalar unicast would (same distance
        expression, same summation order as sending them in array order)
        and schedules the batch for next round's vectorized delivery via
        the handler registered for ``kind``.
        """
        srcs = np.asarray(srcs, dtype=np.intp)
        dsts = np.asarray(dsts, dtype=np.intp)
        if len(srcs) != len(dsts):
            raise SimulationError(
                f"unicast_batch got {len(srcs)} senders but {len(dsts)} recipients"
            )
        if len(srcs) == 0:
            return
        if kind not in self._batch_handlers:
            raise SimulationError(
                f"unicast_batch kind {kind!r} has no batch handler registered"
            )
        if dsts.min() < 0 or dsts.max() >= self.n:
            raise SimulationError("unicast_batch recipient out of range")
        if bool((srcs == dsts).any()):
            raise SimulationError("unicast_batch cannot send to self")
        if dists is None:
            diff = self.points[srcs] - self.points[dsts]
            dx, dy = diff[:, 0], diff[:, 1]
            # Same float expression as the scalar unicast path.
            dists = np.sqrt(dx * dx + dy * dy)
        else:
            dists = np.asarray(dists, dtype=np.float64)
        if float(dists.max()) > self.max_radius * (1.0 + 1e-9):
            raise SimulationError(
                f"unicast_batch distance {float(dists.max()):.6g} exceeds "
                f"max radius {self.max_radius:.6g}"
            )
        self.charge_tx_batch(srcs, kind, self.power.energy_array(dists))
        if payloads is None:
            payloads = np.zeros(len(srcs), dtype=np.int64)
        else:
            payloads = np.asarray(payloads, dtype=np.int64)
        # Deterministic delivery order within the batch: recipient id,
        # then send (array) order — the fast kernel's (dst, seq) order.
        order = np.argsort(dsts, kind="stable")
        self._flat_batches.append(
            (kind, srcs[order], dsts[order], dists[order], payloads[order])
        )
        self._n_flat_pending += len(srcs)
        if perf.enabled:
            perf.add("kernel.turbo_batch_sends", len(srcs))

    # -- round execution -------------------------------------------------------

    def step(self) -> int:
        if not self._flat_batches:
            return super().step()
        if self._uni or self._bcasts or self._pending:
            raise SimulationError(
                "turbo flat batches cannot mix with per-message sends "
                "in the same round"
            )
        batches = self._flat_batches
        self._flat_batches = []
        delivered = self._n_flat_pending
        self._n_flat_pending = 0
        if self._n_plane_pending:
            delivered += self._deliver_planes()
        fp = self.faults
        led = self._ledger
        rx = self.rx_cost
        for kind, srcs, dsts, dists, payloads in batches:
            if fp is not None and len(srcs):
                times, cm, dm, um = fp.times(
                    srcs.astype(np.int64, copy=False),
                    dsts.astype(np.int64, copy=False),
                    fp.kind_hash(kind),
                    self.rounds,
                )
                ncr, ndr, ndu = int(cm.sum()), int(dm.sum()), int(um.sum())
                if ncr:
                    led.crash_drops_by_kind[kind] += ncr
                if ndr:
                    led.drops_by_kind[kind] += ndr
                if ndu:
                    led.dup_deliveries_by_kind[kind] += ndu
                if ncr or ndr or ndu:
                    srcs = np.repeat(srcs, times)
                    dsts = np.repeat(dsts, times)
                    dists = np.repeat(dists, times)
                    payloads = np.repeat(payloads, times)
            handler = self._batch_handlers[kind]
            handler(kind, srcs, dsts, dists, payloads)
            if rx:
                # Scalar loop keeps rx totals bit-identical to the
                # per-message path (same left-to-right summation).
                for dst in dsts.tolist():
                    led.charge_rx(dst, rx)
        self.rounds += 1
        if perf.enabled:
            perf.add("kernel.rounds")
            perf.add("kernel.deliveries", delivered)
            perf.add("kernel.turbo_batch_rounds")
            perf.sample_rss()
        if trace.enabled:
            self._trace_round()
        self._round_advanced()
        return delivered

    @property
    def in_flight(self) -> int:
        return super().in_flight + self._n_flat_pending


# Self-registration in the kernel-backend registry (repro.sim.backends).
# Turbo instances use the chunked CSR assembly at scale, so the instance
# cache must never serve it a dense-mode build (and vice versa).
from repro.sim.backends import register_kernel as _register_kernel  # noqa: E402

_register_kernel(
    "turbo",
    cls=TurboKernel,
    order=2,
    summary="whole-round vectorized array programs (GHS family hot paths)",
    instance_layout="chunked",
)
