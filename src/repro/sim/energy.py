"""Energy ledger and run statistics.

Energy complexity (the paper's headline metric) is the sum over all
transmitted messages of ``a d^alpha``.  The ledger tracks that total plus
the breakdowns every experiment needs: per node, per message kind, and per
*stage* (an algorithm-defined label such as ``"step1"`` / ``"step2"`` so
EOPT's two steps can be audited against the Sec. V-C analysis).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


class EnergyLedger:
    """Mutable accumulator for message counts and energy."""

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self.energy_total: float = 0.0
        self.messages_total: int = 0
        # A list, not an array: a numpy element ``+=`` costs about twice
        # a list one, and :meth:`charge` runs once per transmission.
        self.energy_by_node: list[float] = [0.0] * n_nodes
        self.energy_by_kind: dict[str, float] = defaultdict(float)
        self.messages_by_kind: dict[str, int] = defaultdict(int)
        self.energy_by_stage: dict[str, float] = defaultdict(float)
        self.messages_by_stage: dict[str, int] = defaultdict(int)
        # Reception-side accounting (paper Sec. VIII extension): tracked
        # separately so ``energy_total`` remains the paper's TX-only metric.
        self.rx_energy_total: float = 0.0
        self.receptions_total: int = 0
        self.rx_energy_by_node = np.zeros(n_nodes)
        # Fault-plane outcomes (repro.sim.faults).  A dropped delivery
        # keeps its TX charge — the sender still paid — so these count
        # *deliveries that never happened*, per message kind.
        self.drops_by_kind: dict[str, int] = defaultdict(int)
        self.dup_deliveries_by_kind: dict[str, int] = defaultdict(int)
        self.crash_drops_by_kind: dict[str, int] = defaultdict(int)

    def charge(self, node: int, kind: str, stage: str, energy: float) -> None:
        """Record one transmitted message by ``node`` costing ``energy``.

        Every kernel path charges through here, one message at a time in
        send order, so each breakdown is the same left-to-right float sum
        on every backend (the turbo engine replays that order with
        :func:`~repro.algorithms.ghs.turbo.seq_energy_accumulate`).
        """
        self.energy_total += energy
        self.messages_total += 1
        self.energy_by_node[node] += energy
        self.energy_by_kind[kind] += energy
        self.messages_by_kind[kind] += 1
        self.energy_by_stage[stage] += energy
        self.messages_by_stage[stage] += 1

    def charge_rx(self, node: int, energy: float) -> None:
        """Record one reception by ``node`` (constant radio-listen cost)."""
        self.rx_energy_total += energy
        self.receptions_total += 1
        self.rx_energy_by_node[node] += energy

    def snapshot(self, rounds: int) -> "SimStats":
        """Freeze the ledger into an immutable :class:`SimStats`."""
        return SimStats(
            energy_total=self.energy_total,
            messages_total=self.messages_total,
            rounds=rounds,
            energy_by_kind=dict(self.energy_by_kind),
            messages_by_kind=dict(self.messages_by_kind),
            energy_by_stage=dict(self.energy_by_stage),
            messages_by_stage=dict(self.messages_by_stage),
            energy_by_node=np.array(self.energy_by_node),
            rx_energy_total=self.rx_energy_total,
            receptions_total=self.receptions_total,
            rx_energy_by_node=self.rx_energy_by_node.copy(),
            drops_by_kind=dict(self.drops_by_kind),
            dup_deliveries_by_kind=dict(self.dup_deliveries_by_kind),
            crash_drops_by_kind=dict(self.crash_drops_by_kind),
        )


@dataclass(frozen=True)
class SimStats:
    """Immutable statistics for one simulation run.

    ``energy_total`` is the paper's transmit-side energy complexity;
    ``rx_energy_total`` is the optional reception-cost extension
    (Sec. VIII) and is zero unless the kernel was given an ``rx_cost``.
    """

    energy_total: float
    messages_total: int
    rounds: int
    energy_by_kind: dict[str, float]
    messages_by_kind: dict[str, int]
    energy_by_stage: dict[str, float]
    messages_by_stage: dict[str, int]
    energy_by_node: np.ndarray = field(repr=False)
    rx_energy_total: float = 0.0
    receptions_total: int = 0
    # An empty array, never None: hand-constructed or deserialized stats
    # must survive aggregation and ``.copy()`` without a guard at every
    # call site (regression: this used to default to None).
    rx_energy_by_node: np.ndarray = field(
        default_factory=lambda: np.zeros(0), repr=False
    )
    # Fault-plane delivery outcomes (empty when faults are off).
    drops_by_kind: dict[str, int] = field(default_factory=dict)
    dup_deliveries_by_kind: dict[str, int] = field(default_factory=dict)
    crash_drops_by_kind: dict[str, int] = field(default_factory=dict)

    @property
    def total_energy_with_rx(self) -> float:
        """Transmit plus reception energy (the extended model)."""
        return self.energy_total + self.rx_energy_total

    @property
    def max_node_energy(self) -> float:
        """Peak per-node energy — the battery-drain hotspot."""
        if len(self.energy_by_node) == 0:
            return 0.0
        return float(self.energy_by_node.max())

    @property
    def dropped_total(self) -> int:
        """Deliveries lost to the fault plane (loss draws only)."""
        return sum(self.drops_by_kind.values())

    @property
    def crash_dropped_total(self) -> int:
        """Deliveries lost because the recipient was crashed."""
        return sum(self.crash_drops_by_kind.values())

    @property
    def dup_delivered_total(self) -> int:
        """Deliveries duplicated by the fault plane."""
        return sum(self.dup_deliveries_by_kind.values())

    def fault_table(self) -> list[tuple[str, int, int, int]]:
        """``(kind, drops, crash drops, dups)`` rows, sorted by kind.

        A run with no fault plan (or a null plan, or hand-constructed /
        deserialized stats whose fault dicts are missing) yields a
        well-formed *empty* list — never an exception, never rows of
        zeros.  Callers decide how to render "nothing happened".
        """
        drops = self.drops_by_kind or {}
        crash = self.crash_drops_by_kind or {}
        dups = self.dup_deliveries_by_kind or {}
        kinds = set(drops) | set(crash) | set(dups)
        return [
            (k, drops.get(k, 0), crash.get(k, 0), dups.get(k, 0))
            for k in sorted(kinds)
        ]

    def kind_table(self) -> list[tuple[str, int, float]]:
        """``(kind, messages, energy)`` rows sorted by descending energy."""
        rows = [
            (k, self.messages_by_kind.get(k, 0), e)
            for k, e in self.energy_by_kind.items()
        ]
        return sorted(rows, key=lambda r: -r[2])

    def stage_table(self) -> list[tuple[str, int, float]]:
        """``(stage, messages, energy)`` rows in stage-label order."""
        return [
            (s, self.messages_by_stage.get(s, 0), e)
            for s, e in sorted(self.energy_by_stage.items())
        ]
