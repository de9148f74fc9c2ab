"""The fast kernel must be observationally identical to the legacy one.

The hot-path rework (neighbor table, broadcast descriptors, vectorized
delivery ordering) is only legal because it changes *nothing* an
algorithm or an experiment can observe.  These tests pin that contract
at two levels:

* end to end — GHS / modified GHS / EOPT produce bit-identical stats
  (every breakdown included) and MST edge sets on both kernels;
* kernel level — scripted nodes record every delivered message in order;
  the (kind, src, distance) sequences and full ledger snapshots must
  match exactly, including sub-max-radius broadcasts, radius changes in
  both directions, rx charges and the dense-fallback path.

The flood-plane fast path (``planes=True``, the default) rides the same
contract: every algorithm run is checked with planes on *and* off
against the legacy kernel, and the plane path must demonstrably engage
— a test that silently fell back to per-message delivery would pin
nothing.  Every kernel charges each transmission through
``EnergyLedger.charge`` in send order, so the energy breakdowns are the
same float sums everywhere and compare exactly.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np
import pytest

from repro.algorithms.eopt import run_eopt
from repro.algorithms.ghs import run_ghs, run_modified_ghs
from repro.geometry.points import uniform_points
from repro.perf import perf
from repro.runspec import RunSpec, algorithm_names, execute, get_algorithm, result_to_dict
from repro.sim import LegacyKernel, NodeProcess, SynchronousKernel, kernel_class, kernel_names
from repro.sim.faults import FaultPlan


def _plain_stats(stats) -> dict:
    """Every :class:`SimStats` field, arrays as lists (exact comparison)."""
    out = {}
    for f in fields(stats):
        value = getattr(stats, f.name)
        out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


def _assert_same_result(old, new):
    # The contract: the whole stats and the tree are bit-identical.
    assert _plain_stats(new.stats) == _plain_stats(old.stats)
    assert np.array_equal(new.tree_edges, old.tree_edges)


@pytest.mark.parametrize(
    "runner, n, seed",
    [
        (run_ghs, 180, 3),
        (run_modified_ghs, 300, 0),
        (run_modified_ghs, 300, 5),
        (run_eopt, 300, 2),
        (run_eopt, 400, 11),
    ],
)
def test_algorithms_bit_identical(runner, n, seed):
    pts = uniform_points(n, seed=seed)
    old = runner(pts, kernel_cls=LegacyKernel)
    perf.reset()
    perf.enable()
    try:
        new = runner(pts)  # planes on (the default)
    finally:
        plane_sends = perf.counters.get("kernel.plane_sends", 0)
        perf.disable()
        perf.reset()
    off = runner(pts, planes=False)
    # The plane path must actually have run, or this test pins nothing.
    assert plane_sends > 0
    _assert_same_result(old, new)
    _assert_same_result(old, off)


@pytest.mark.parametrize("case", ["clean", "faults", "eopt-faults"])
@pytest.mark.parametrize("planes", [True, False], ids=["planes", "noplanes"])
@pytest.mark.parametrize("mode", [m for m in kernel_names() if m != "legacy"])
def test_registered_backends_match_reference(mode, planes, case):
    """Every registered backend honors the observational contract against
    the frozen legacy reference, across the planes x faults matrix.  The
    turbo backend's whole-round engine must demonstrably engage on its
    eligible combination (planes on, no faults) — a silently disengaged
    engine would pin nothing.  Faulted EOPT checks that the flood cache
    a plane run rebuilds for step 2 remembers what step 1 heard, as the
    per-message dict caches do."""
    runner = run_modified_ghs
    pts = uniform_points(250, seed=1)
    kwargs = {"planes": planes}
    if case == "faults":
        kwargs["faults"] = FaultPlan(seed=7, drop_rate=0.05)
    elif case == "eopt-faults":
        runner = run_eopt
        pts = uniform_points(300, seed=1)
        kwargs["faults"] = FaultPlan(seed=1, drop_rate=0.05)
    ref = runner(pts, kernel_cls=LegacyKernel, **kwargs)
    perf.reset()
    perf.enable()
    try:
        res = runner(pts, kernel_cls=kernel_class(mode), **kwargs)
        engine_rounds = perf.counters.get("kernel.turbo_engine_rounds", 0)
    finally:
        perf.disable()
        perf.reset()
    _assert_same_result(ref, res)
    if mode == "turbo" and planes and case == "clean":
        assert engine_rounds > 0


def test_trace_streams_identical_with_triage_on_failure():
    """The trace plane doubles as the equivalence suite's triage tool:
    run legacy and fast kernels with tracing on and diff the event
    streams.  On divergence the assertion message carries the first
    divergent event with context — the exact phase/round where the
    kernels parted ways — instead of a bare stats mismatch."""
    from repro.trace import trace
    from repro.trace.diff import diff_traces, format_divergence

    pts = uniform_points(300, seed=0)

    def traced(**kwargs):
        trace.reset()
        trace.enable()
        try:
            run_modified_ghs(pts, **kwargs)
            return trace.snapshot()
        finally:
            trace.disable()
            trace.reset()

    legacy = traced(kernel_cls=LegacyKernel)
    fast = traced()
    d = diff_traces(legacy, fast)
    assert d is None, format_divergence(d, "legacy", "fast")


@pytest.mark.parametrize(
    "algorithm, kernel",
    [
        (name, kernel)
        for name in algorithm_names()
        for kernel in ("fast", "turbo")
        if kernel == "fast" or get_algorithm(name).supports_kernel_mode
    ],
)
def test_tracing_leaves_result_bytes_unchanged(algorithm, kernel):
    """A traced run's result JSON equals the untraced run's, byte for
    byte: the trace plane reads the ledger at every round boundary but
    must not change how (or in what order) it is summed."""
    spec = RunSpec(algorithm=algorithm, n=300, seed=5, kernel=kernel)
    bare = json.dumps(result_to_dict(execute(spec).result))
    traced = json.dumps(result_to_dict(execute(spec.with_(trace=True)).result))
    assert traced == bare


@pytest.mark.parametrize(
    "algorithm, n, seed, faults",
    [("MGHS", 200, 11, None), ("EOPT", 300, 5, None), ("EOPT", 300, 1, 1)],
)
def test_result_bytes_identical_across_configs(algorithm, n, seed, faults):
    """``RunReport.result`` JSON, extras such as EOPT's per-step energy
    included, is one byte string across every kernel x planes x trace
    configuration."""
    plan = None if faults is None else FaultPlan(seed=faults, drop_rate=0.05)
    configs_by_bytes: dict[str, list] = {}
    for kernel in kernel_names():
        for planes in (True, False):
            for traced in (False, True):
                spec = RunSpec(
                    algorithm=algorithm, n=n, seed=seed, kernel=kernel,
                    planes=planes, faults=plan, trace=traced,
                )
                blob = json.dumps(result_to_dict(execute(spec).result))
                configs_by_bytes.setdefault(blob, []).append((kernel, planes, traced))
    assert len(configs_by_bytes) == 1, list(configs_by_bytes.values())


def test_rx_cost_bit_identical():
    pts = uniform_points(250, seed=4)
    old = run_modified_ghs(pts, rx_cost=0.01, kernel_cls=LegacyKernel)
    new = run_modified_ghs(pts, rx_cost=0.01)
    off = run_modified_ghs(pts, rx_cost=0.01, planes=False)
    _assert_same_result(old, new)
    _assert_same_result(old, off)


class _Recorder(NodeProcess):
    """Scripted node: logs every delivery, answers PING with a unicast."""

    def __init__(self, node_id, ctx):
        super().__init__(node_id, ctx)
        self.heard = []

    def on_message(self, msg, distance):
        self.heard.append((msg.kind, msg.src, distance))
        if msg.kind == "PING":
            self.ctx.unicast(msg.src, "PONG", self.id)

    def on_wake(self, signal, payload=()):
        if signal == "bcast":
            self.ctx.local_broadcast(payload[0], "PING", self.id)


def _drive(kernel_cls, *, rx_cost=0.0):
    """A scripted scenario covering every delivery path.

    Full-radius and sub-radius broadcasts, PING->PONG unicast echoes,
    lowering the cap (superset table stays), raising it back above the
    build radius (table invalidation), all under one deterministic
    point set.
    """
    pts = uniform_points(60, seed=9)
    r = 0.3
    kernel = kernel_cls(pts, max_radius=r, rx_cost=rx_cost)
    kernel.add_nodes(lambda i, ctx: _Recorder(i, ctx))
    kernel.start()
    # Round of full-radius broadcasts from a few senders.
    kernel.wake([0, 7, 13], "bcast", (r,))
    kernel.run_until_quiescent()
    # Sub-radius broadcasts (exercises the searchsorted cutoff).
    kernel.set_stage("narrow")
    kernel.wake([3, 13, 42], "bcast", (0.4 * r,))
    kernel.run_until_quiescent()
    # Lower the cap: the cached superset table must still filter right.
    kernel.set_max_radius(0.5 * r)
    kernel.wake([5, 20], "bcast", (0.5 * r,))
    kernel.run_until_quiescent()
    # Raise the cap past the build radius: table must be invalidated.
    kernel.set_max_radius(2.5 * r)
    kernel.set_stage("wide")
    kernel.wake([11, 30], "bcast", (2.5 * r,))
    kernel.run_until_quiescent()
    logs = [nd.heard for nd in kernel.nodes]
    return logs, kernel.stats()


@pytest.mark.parametrize("rx_cost", [0.0, 0.005])
def test_delivery_order_identical(rx_cost):
    old_logs, old_stats = _drive(LegacyKernel, rx_cost=rx_cost)
    new_logs, new_stats = _drive(SynchronousKernel, rx_cost=rx_cost)
    assert new_logs == old_logs
    assert _plain_stats(new_stats) == _plain_stats(old_stats)


def test_dense_fallback_identical():
    # A near-global cap blows the table density budget; the kernel must
    # fall back to per-call queries and still match legacy exactly.
    pts = uniform_points(400, seed=1)
    r = float(np.sqrt(2.0))

    def drive(kernel_cls):
        kernel = kernel_cls(pts, max_radius=r)
        kernel.add_nodes(lambda i, ctx: _Recorder(i, ctx))
        kernel.start()
        kernel.wake([0, 17], "bcast", (0.9,))
        kernel.run_until_quiescent()
        return [nd.heard for nd in kernel.nodes], kernel.stats()

    old_logs, old_stats = drive(LegacyKernel)
    new_logs, new_stats = drive(SynchronousKernel)
    assert new_logs == old_logs
    assert _plain_stats(new_stats) == _plain_stats(old_stats)
