"""One phase of one benchmark workload, in a fresh process tree.

``run.py`` starts this file once per phase: set up, run the timed
region for ``--seconds``, then check every output outside the timed
region.  The result is written as JSON to ``--out``.  With
``--trace-dir`` the span wrappers of :mod:`spans` are installed before
anything else runs, and the timed-region window is recorded so spans
can be clipped to it.  With ``--probe`` the process only sets up, prints
``READY`` and exits; ``run.py`` times that from process start to get the
set-up time of a fresh interpreter.

The program receives only what the seed generates: run specs (scale and
sweep workloads) or HTTP request bodies (serve workload).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
NPROC = os.cpu_count() or 1

#: scale-mghs: one MGHS run per operation on the turbo backend.
SCALE_N = 20_000
SCALE_LIMIT_MS = 15_000.0

#: sweep-fig3: one ``execute_batch`` per operation holding the paper's
#: Fig. 3 / Tab. 1 cell for one ``(n, seed)``, n cycling through
#: ``SWEEP_NS`` with a fresh seed per cycle, so the operation latencies
#: form one cluster per n and their percentiles fall inside a cluster.
#: Tab. 1 re-requests the MGHS and Co-NNT runs Fig. 3 already holds, so
#: the engine dedupes them.
SWEEP_NS = (500, 1000, 2000)
SWEEP_ALGS = ("GHS", "MGHS", "EOPT", "Co-NNT")
SWEEP_TAB1_ALGS = ("MGHS", "Co-NNT")
SWEEP_FAULT_NS = (500, 1000)
SWEEP_LIMIT_MS = 30_000.0

#: serve-mixed: open loop at a fixed rate with a latency limit (the
#: request mix is in :func:`serve_schedule`).
SERVE_RATE = 16.0
SERVE_LIMIT_MS = 1000.0
SERVE_TIMEOUT_S = 60.0
SERVE_NS = (100, 150, 200, 250, 300)
SERVE_SAMPLE = 8
SERVE_SIM_PREFIX = 26

#: Seed of the fixed digest probe every run makes (see ``digests.json``).
DIGEST_SEED = 1
DIGEST_SPECS = {
    "scale-mghs": [("MGHS", 2000, {"kernel": "turbo"})],
    "sweep-fig3": [(a, 500, {}) for a in SWEEP_ALGS] + [("MGHS", 500, {"faults": True})],
    "serve-mixed": [(a, 200, {}) for a in SWEEP_ALGS],
}


def fault_plan(seed: int):
    from repro.sim.faults import FaultPlan

    return FaultPlan(seed=seed, drop_rate=0.05, dup_rate=0.02)


# -- correctness ---------------------------------------------------------------


def check_report(report) -> str | None:
    """``None`` if the run's tree is right, else what is wrong.

    GHS, MGHS and EOPT must return the exact minimum spanning forest of
    the random geometric graph at the run's final radius; Co-NNT must
    return a spanning tree.  The oracle is Kruskal over the Delaunay
    edges no longer than the radius: the minimum spanning forest of the
    radius-r graph is the set of Euclidean-MST edges of length <= r, and
    the Euclidean MST lies inside the Delaunay triangulation.
    """
    import numpy as np

    from repro.errors import ReproError
    from repro.geometry.points import uniform_points
    from repro.mst import delaunay_edges, kruskal_mst, same_tree, verify_spanning_tree

    spec, result = report.spec, report.result
    pts = uniform_points(spec.n, seed=spec.seed)
    if spec.algorithm == "Co-NNT":
        try:
            verify_spanning_tree(spec.n, result.tree_edges)
        except ReproError as exc:
            return f"{spec.cell}: not a spanning tree ({exc})"
        return None
    radius = result.extras["r2" if spec.algorithm == "EOPT" else "radius"]
    edges = delaunay_edges(pts)
    diff = pts[edges[:, 0]] - pts[edges[:, 1]]
    w = np.sqrt(np.sum(diff * diff, axis=1))
    keep = w <= radius
    mst, _ = kruskal_mst(spec.n, edges[keep], w[keep])
    if not same_tree(result.tree_edges, mst):
        return f"{spec.cell}: tree differs from the exact MST at r={radius}"
    return None


def sim_counts(reports) -> dict:
    """Simulated cost summed over ``reports`` (deterministic per seed)."""
    return {
        "messages": sum(int(r.messages) for r in reports),
        "rounds": sum(int(r.rounds) for r in reports),
        "energy": sum(float(r.energy) for r in reports),
    }


def digest_check(workload: str) -> str | None:
    """Run the fixed probe specs and compare with the recorded digest."""
    from repro.runspec import RunSpec, execute

    rows = []
    for alg, n, extra in DIGEST_SPECS[workload]:
        kwargs = dict(extra)
        if kwargs.pop("faults", False):
            kwargs["faults"] = fault_plan(DIGEST_SEED)
        r = execute(RunSpec(alg, n=n, seed=DIGEST_SEED, **kwargs))
        rows.append([alg, n, int(r.messages), int(r.rounds), float(r.energy).hex()])
    got = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    want = json.loads((HERE / "digests.json").read_text())[workload]
    if got != want:
        return f"sim digest {got} != recorded {want} for {rows}"
    return None


# -- in-process workloads --------------------------------------------------------


def setup_inprocess(workload: str) -> None:
    """Import the program and load its registries; spawn the pool for sweeps."""
    from repro.runspec import RunSpec, engine, registry
    from repro.sim.backends import kernel_names

    registry.names()
    kernel_names()
    if workload == "sweep-fig3":
        engine.execute_batch(
            [RunSpec("Co-NNT", n=16, seed=s) for s in range(2 * NPROC)],
            backend="process",
            workers=NPROC,
        )


def scale_ops(seed: int):
    from repro.runspec import RunSpec

    rng = random.Random(seed)
    while True:
        yield [RunSpec("MGHS", n=SCALE_N, seed=rng.randrange(2**31), kernel="turbo")]


def sweep_ops(seed: int):
    from repro.runspec import RunSpec

    rng = random.Random(seed)
    while True:
        s = rng.randrange(2**31)
        for n in SWEEP_NS:
            specs = [RunSpec(a, n=n, seed=s) for a in SWEEP_ALGS + SWEEP_TAB1_ALGS]
            if n in SWEEP_FAULT_NS:
                specs.append(RunSpec("MGHS", n=n, seed=s, faults=fault_plan(s)))
            yield specs


def run_inprocess(workload: str, seed: int, seconds: float) -> dict:
    from repro.runspec import engine

    # The timed region ends on a whole cycle of sizes, so every run holds
    # as many operations of each n and the percentiles keep their cluster.
    if workload == "scale-mghs":
        ops, limit_ms, cycle = scale_ops(seed), SCALE_LIMIT_MS, 1

        def run(specs):
            return [engine.execute(specs[0])]
    else:
        ops, limit_ms, cycle = sweep_ops(seed), SWEEP_LIMIT_MS, len(SWEEP_NS)

        def run(specs):
            return engine.execute_batch(specs, backend="process", workers=NPROC)

    done = []
    w0 = time.perf_counter_ns()
    deadline = w0 + int(seconds * 1e9)
    for specs in ops:
        t0 = time.perf_counter_ns()
        reports = run(specs)
        t1 = time.perf_counter_ns()
        done.append((t0, t1, reports))
        if t1 >= deadline and len(done) % cycle == 0:
            break
    w1 = done[-1][1]

    t_oracle = time.perf_counter()
    errors, attempted, failed, nodes, family_messages = [], 0, 0, 0, 0
    for _t0, _t1, reports in done:
        unique = {r.spec.spec_hash(): r for r in reports}
        for report in unique.values():
            attempted += 1
            err = check_report(report)
            if err:
                failed += 1
                errors.append(err)
            else:
                nodes += report.spec.n
            if report.spec.algorithm != "Co-NNT":
                family_messages += int(report.messages)
    oracle_s = time.perf_counter() - t_oracle
    lat = [(t1 - t0) / 1e6 for t0, t1, _ in done]
    first = done[0][2]
    return {
        "window": [w0, w1],
        "ops": [[t0, t1] for t0, t1, _ in done],
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "nodes": nodes,
        "latencies_ms": lat,
        "limit_ms": limit_ms,
        "sim": sim_counts(first),
        "family_messages": family_messages,
        "oracle_s": oracle_s,
    }


# -- serve workload ----------------------------------------------------------------


def serve_schedule(seed: int, count: int):
    """``(requests, stored)`` for ``count`` slots.

    ``requests`` lists ``(due_s, spec)`` in due order; ``stored`` lists
    the specs the store holds before the server starts.  Slot ``i`` is
    due at ``i / SERVE_RATE``.  Each block of 25 slots holds the same
    mix, and only the instances and the algorithm of each read change
    with the seed.  The kinds of request follow the paper's experiments;
    how many of each a block holds is a choice of this benchmark, not a
    measured traffic mix, and the reason for each number is given with
    it:

    * 3 fresh writes: one Fig. 3 cell, that is GHS, EOPT and Co-NNT on
      one new instance, n cycling through ``SERVE_NS`` block by block.
      One cell per block keeps the broker, which computes one job at a
      time, well under full load at ``SERVE_RATE``.
    * 1 duplicate: Tab. 1 compares Co-NNT with the MST on the same
      instances, so it re-requests the cell's Co-NNT run, due 5 ms
      after it while that job is in flight; it takes no slot of its own.
    * 2 variants of stored n=200 specs, one for each field the result
      key hashes besides the instance: an MGHS run on the turbo kernel
      and an EOPT run without flood planes.
    * 20 store reads of distinct stored specs, 4 per size in
      ``SERVE_NS`` and 5 per algorithm.  Reads are 20 of the 26
      requests so that the median latency lies inside the reads and
      the 90th percentile inside the 6 requests that wait for a compute.

    The 5 computed requests sit on every fifth slot, in the order above,
    so that no compute queues behind another one and the latency tail
    does not depend on where a seed would place them.  The reads fill
    the other slots, their sizes in a fixed rotation and their
    algorithms in a seeded order.

    A longer schedule for the same seed starts with the shorter one.
    Every read is a distinct stored spec: the broker keeps each job for
    the server's life, so a repeated read would be a broker dedupe and
    never reach the store.
    """
    from repro.experiments.config import FIG3_ALGORITHMS
    from repro.runspec import RunSpec

    rng = random.Random(seed)

    def fresh(alg: str, n: int):
        return RunSpec(alg, n=n, seed=rng.randrange(2**31))

    requests, stored = [], []
    slot = 0
    while slot < count:
        algs = list(SWEEP_ALGS) * 5
        rng.shuffle(algs)
        reads = [fresh(alg, n) for alg, n in zip(algs, SERVE_NS * 4)]
        bases = [fresh("MGHS", 200), fresh("EOPT", 200)]
        cell_n, cell_seed = SERVE_NS[(slot // 25) % len(SERVE_NS)], rng.randrange(2**31)
        writes = [RunSpec(alg, n=cell_n, seed=cell_seed) for alg in FIG3_ALGORITHMS]
        tab1 = writes[FIG3_ALGORITHMS.index("Co-NNT")]
        computes = writes + [bases[0].with_(kernel="turbo"), bases[1].with_(planes=False)]
        stored += reads + bases
        block = []
        for i in range(0, len(reads), 4):
            block += reads[i:i + 2] + [computes[i // 4]] + reads[i + 2:i + 4]
        for k, spec in enumerate(block[: count - slot]):
            due = (slot + k) / SERVE_RATE
            requests.append((due, spec))
            if spec is tab1:
                requests.append((due + 0.005, spec))
        slot += len(block)
    return requests, stored


def run_serve(seed: int, seconds: float, tmp: Path, trace_dir: Path | None) -> dict:
    import loadgen
    from repro.runspec import RunReport, engine, execute
    from repro.store import ResultStore

    requests, stored = serve_schedule(seed, max(1, int(round(SERVE_RATE * seconds))))
    specs = [spec for _due, spec in requests]
    store_path = tmp / "store.sqlite"
    with ResultStore(store_path) as store:
        engine.execute_batch(stored, backend="process", workers=NPROC, store=store)
    engine.shutdown()
    bodies = [(due, spec.to_json(indent=None).encode()) for due, spec in requests]
    server = loadgen.Server(store_path, NPROC, trace_dir)
    try:
        stats0 = json.loads(server.get("/stats")[1])
        w0 = time.perf_counter_ns()
        results, backlog = loadgen.run_open_loop(
            server, bodies, nconn=NPROC, timeout_s=SERVE_TIMEOUT_S
        )
        w1 = time.perf_counter_ns()
        stats1 = json.loads(server.get("/stats")[1])
    finally:
        rc = server.stop()

    t_oracle = time.perf_counter()
    errors, failed, nodes, lat = [], 0, 0, []
    checked: dict[str, str | None] = {}
    family_messages = 0
    for spec, rec in zip(specs, results):
        err = rec.get("error")
        if err is None:
            key = spec.spec_hash()
            if key not in checked:
                report = RunReport.from_json(rec["payload"].decode())
                checked[key] = (
                    "served report is for another spec"
                    if report.spec.spec_hash() != key or rec["id"] != key
                    else check_report(report)
                )
                if not rec["store_hit"] and spec.algorithm != "Co-NNT":
                    family_messages += int(report.messages)
            err = checked[key]
        if err:
            failed += 1
            errors.append(err)
            lat.append(float("inf"))
        else:
            nodes += spec.n
            lat.append((rec["done"] - rec["due"]) * 1e3)
    rng = random.Random(seed)
    payloads = {s.spec_hash(): (s, r) for s, r in zip(specs, results) if "payload" in r}
    for key in rng.sample(sorted(payloads), min(SERVE_SAMPLE, len(payloads))):
        spec, rec = payloads[key]
        if execute(spec).to_json(indent=None).encode() != rec["payload"]:
            failed += 1
            errors.append(f"{spec.cell}: served bytes differ from execute(spec)")
    oracle_s = time.perf_counter() - t_oracle
    if rc != 0:
        failed += 1
        errors.append(f"server exited with {rc}")

    waits, computes = [], []
    for rec in results:
        ev = rec.get("events", {})
        if rec.get("created") and {"queued", "running", "done"} <= ev.keys():
            waits.append((ev["running"] - ev["queued"]) * 1e3)
            computes.append((ev["done"] - ev["running"]) * 1e3)
    prefix = [
        RunReport.from_json(r["payload"].decode())
        for r in results[:SERVE_SIM_PREFIX]
        if "payload" in r
    ]
    third = max(1, len(backlog) // 3)
    return {
        "window": [w0, w1],
        "attempted": len(specs),
        "failed": failed,
        "errors": errors,
        "nodes": nodes,
        "latencies_ms": sorted(lat),
        "limit_ms": SERVE_LIMIT_MS,
        "late_ms": [r["late"] * 1e3 for r in results if "late" in r],
        "backlog_first": sum(backlog[:third]) / third,
        "backlog_last": sum(backlog[-third:]) / third,
        "sim": sim_counts(prefix),
        "family_messages": family_messages,
        "queue_wait_ms": waits,
        "compute_ms": computes,
        "stats": [stats0, stats1],
        "oracle_s": oracle_s,
    }


# -- entry point -----------------------------------------------------------------


def probe(workload: str, tmp: Path) -> None:
    if workload == "serve-mixed":
        import loadgen

        server = loadgen.Server(tmp / "probe.sqlite", NPROC)
        print("READY", flush=True)
        server.stop()
    else:
        setup_inprocess(workload)
        print("READY", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--trace-dir", type=Path)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    rec = None
    if args.trace_dir is not None:
        import spans

        rec = spans.install(args.trace_dir)
    if args.probe:
        probe(args.workload, args.tmp)
        return 0

    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        if args.workload == "serve-mixed":
            result = run_serve(args.seed, args.seconds, Path(tmp), args.trace_dir)
        else:
            setup_inprocess(args.workload)
            result = run_inprocess(args.workload, args.seed, args.seconds)
            from repro.runspec import engine

            engine.shutdown()
    err = digest_check(args.workload)
    result["attempted"] += 1
    if err:
        result["errors"].append(err)
        result["failed"] += 1
    if rec is not None:
        rec.flush()
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
