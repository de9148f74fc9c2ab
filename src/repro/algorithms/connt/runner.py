"""Driver for the Co-NNT protocol.

All still-searching nodes probe in lock-step: phase ``i`` is one
``probe`` wake (REQUEST broadcast, REPLY unicasts) followed by a
``decide`` wake (CONNECTION or continue).  The phase cap
``ceil(log2(2 n)) + 1`` guarantees the final probe radius reaches the
unit-square diameter, so termination is unconditional.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.base import AlgorithmResult, collect_tree_edges
from repro.algorithms.connt.node import CoNNTNode, diagonal_key
from repro.errors import ProtocolError
from repro.runspec.registry import register_algorithm
from repro.sim.faults import FaultPlan, drain_reliable
from repro.sim.kernel import SynchronousKernel
from repro.sim.power import PathLossModel
from repro.trace import trace


def run_connt(
    points: np.ndarray,
    *,
    power: PathLossModel | None = None,
    rx_cost: float = 0.0,
    faults: FaultPlan | None = None,
    recover: bool = True,
) -> AlgorithmResult:
    """Run Co-NNT on ``points``; returns the diagonal-ranking NNT.

    Energy is O(1) in expectation and messages O(n) (paper Thm 6.2); the
    tree is a constant-factor approximation to the MST (Thm 6.1).

    Parameters
    ----------
    points:
        ``(n, 2)`` node coordinates in the unit square.
    power:
        Path-loss model; defaults to ``a=1, alpha=2``.
    faults:
        Optional seeded :class:`FaultPlan`.  With ``recover=True`` the
        REPLY/CONNECTION unicasts turn reliable (ACK/retry) and the
        driver re-probes nodes stranded by lost REQUEST floods, so the
        run terminates with a symmetric spanning structure over the
        surviving nodes.  Lost REQUEST copies may still redirect a node
        to a farther (still higher-ranked) neighbour — the output stays
        a valid rank-monotone NNT, not necessarily the fault-free one.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    kwargs = {}
    if faults is not None:
        kwargs["faults"] = faults
    reliable = faults is not None and not faults.is_null and recover
    kernel = SynchronousKernel(
        pts,
        max_radius=math.sqrt(2.0),
        power=power,
        expose_coordinates=True,
        rx_cost=rx_cost,
        **kwargs,
    )
    kernel.add_nodes(lambda i, ctx: CoNNTNode(i, ctx, reliable=reliable))
    kernel.start()
    nodes = kernel.nodes
    fp = kernel.faults
    if trace.enabled:
        trace.emit("run_start", alg="Co-NNT", n=n)

    max_phase = int(math.ceil(math.log2(2.0 * max(n, 2)))) + 1
    phase = 0
    waited = 0
    max_probe_radius = 0.0
    while True:
        rnd = kernel.rounds
        active = [
            nd.id
            for nd in nodes
            if not nd.done and (fp is None or not fp.gone_forever(nd.id, rnd))
        ]
        if not active:
            break
        if fp is not None:
            alive = [i for i in active if not fp.crashed(i, rnd)]
            if not alive:
                # Every remaining searcher is inside a transient crash
                # window: idle the clock until one comes back.
                waited += 1
                if waited > 1_000_000:
                    raise ProtocolError(
                        "Co-NNT stalled waiting out crash windows"
                    )
                kernel.tick()
                continue
        else:
            alive = active
        phase += 1
        if phase > max_phase + 1 and not reliable:
            raise ProtocolError(
                f"Co-NNT did not terminate within {max_phase} probe phases"
            )
        if phase > 4 * (max_phase + 1):
            # Even with crash windows, a node that probed at the capped
            # sqrt(2) radius must have decided; this many phases means
            # the recovery layer is looping, not progressing.
            raise ProtocolError(
                "Co-NNT did not terminate under fault recovery"
            )
        if trace.enabled:
            trace.emit(
                "probe_phase",
                phase=phase,
                round=kernel.rounds,
                searching=len(alive),
            )
        run_probe_phase(
            kernel, nodes, probe_waves(nodes, alive, phase), alive, reliable=reliable
        )
        max_probe_radius = max(
            max_probe_radius,
            max((nodes[i].last_radius for i in alive), default=0.0),
        )

    if reliable:
        _reprobe_stranded(kernel, nodes, max_phase)

    edges = collect_tree_edges((nd.id, nd.tree_edges) for nd in nodes)
    unconnected = [nd.id for nd in nodes if nd.connected_to is None]
    if trace.enabled:
        trace.emit(
            "run_end",
            alg="Co-NNT",
            round=kernel.rounds,
            phases=phase,
            unconnected=len(unconnected),
        )
    return AlgorithmResult(
        name="Co-NNT",
        n=n,
        tree_edges=edges,
        stats=kernel.stats(),
        phases=phase,
        extras={
            "max_probe_radius": max_probe_radius,
            # Whp exactly one: the globally highest-ranked node.
            "unconnected_nodes": unconnected,
        },
    )


def probe_waves(nodes, alive, phase: int) -> dict[int, list[int]]:
    """Group the ``alive`` searchers by the probe phase each runs now.

    A node that slept through earlier wakes (crash window) resumes at its
    own next radius, so probes stay a doubling sequence per node even
    when the global phase counter has moved on.
    """
    waves: dict[int, list[int]] = {}
    for i in alive:
        waves.setdefault(min(nodes[i]._phase + 1, phase), []).append(i)
    return waves


def run_probe_phase(kernel, nodes, waves, alive, *, reliable: bool = True) -> None:
    """One probe/decide wave: every ``waves`` group (phase -> node ids)
    probes, the network settles, ``alive`` decide, it settles again.

    ``reliable`` drains the ACK/retry layer after each settle.
    """
    for ph in sorted(waves):
        kernel.wake(waves[ph], "probe", (ph,))
    kernel.run_until_quiescent()
    if reliable:
        drain_reliable(kernel, nodes)
    kernel.wake(alive, "decide")
    kernel.run_until_quiescent()
    if reliable:
        drain_reliable(kernel, nodes)


def _reprobe_stranded(kernel, nodes, max_phase: int) -> None:
    """Re-probe nodes stranded by lost REQUEST floods (reliable mode).

    A searcher whose every REQUEST copy was dropped in the phase where
    its radius first reached ``L_u`` hears silence and wrongly concludes
    it is top-ranked.  REPLY/CONNECTION are reliable, so this is the
    *only* way a non-top node can end unconnected.  The fix is pure
    retry: wake each such node for a fresh full-radius probe (fresh
    round => fresh loss draws) until only the true top-ranked survivor
    remains unconnected.
    """
    fp = kernel.faults
    rnd = kernel.rounds
    live = [
        nd for nd in nodes if fp is None or not fp.gone_forever(nd.id, rnd)
    ]
    if not live:
        return
    top = max(live, key=lambda nd: diagonal_key(nd.x, nd.y, nd.id)).id
    waited = 0
    for attempt in range(200):
        rnd = kernel.rounds
        stranded = [
            nd.id
            for nd in nodes
            if nd.connected_to is None
            and nd.id != top
            and (fp is None or not fp.gone_forever(nd.id, rnd))
        ]
        if not stranded:
            return
        alive = [i for i in stranded if fp is None or not fp.crashed(i, rnd)]
        if not alive:
            waited += 1
            if waited > 1_000_000:
                raise ProtocolError(
                    "Co-NNT re-probe stalled waiting out crash windows"
                )
            kernel.tick()
            continue
        if trace.enabled:
            trace.emit(
                "reprobe", round=rnd, attempt=attempt, nodes=len(alive)
            )
        for i in alive:
            nodes[i].done = False
        # A phase index beyond max_phase caps the radius at sqrt(2):
        # the probe covers the whole square, and bumping it per attempt
        # keeps each probe a genuinely new phase (fresh reply list).
        run_probe_phase(kernel, nodes, {max_phase + 2 + attempt: alive}, alive)
    raise ProtocolError(
        "Co-NNT re-probe did not connect all stranded nodes in 200 attempts"
    )


# -- runspec registration -----------------------------------------------------

def _connt_adapter(points, spec):
    kwargs = {"rx_cost": spec.rx_cost, "recover": spec.recover}
    if spec.faults is not None:
        kwargs["faults"] = spec.faults
    return run_connt(points, **kwargs)


register_algorithm(
    "Co-NNT",
    runner=run_connt,
    adapter=_connt_adapter,
    order=3,
    summary="coordinate-based NNT - O(1) expected energy, constant-factor tree",
    supports_kernel_mode=False,
)
