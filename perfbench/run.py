"""The repository benchmark: one workload, one seed, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload scale-mghs --seed 3 --seconds 20 --trace 0

Workloads (why each was chosen is recorded in ``BENCHMARK.json``):

``scale-mghs``
    MGHS on the turbo backend at n = 20 000, one run after another in
    one process.  Instance build (CSR sort, reverse permutation) and
    node construction take a large share; pool, store and serve idle.
``sweep-fig3``
    The paper's Fig. 3 / Tab. 1 cells (GHS, MGHS, EOPT, Co-NNT at
    n = 500..2000, plus MGHS under a seeded fault plan), one
    ``execute_batch`` per ``(n, seed)`` cell on the process pool, no store.
``serve-mixed``
    An open loop of HTTP requests at a fixed rate against a server on a
    store filled during set-up: store reads, fresh writes, duplicates of
    in-flight jobs and kernel/planes variants of stored specs.

``--trace 0`` prints the end-to-end metrics, measured with nothing
wrapped.  ``--trace 1`` splits the time in two: an untraced phase, then
a traced phase in which :mod:`spans` wraps each layer's entry points,
and prints the per-layer metrics.  Each phase is a fresh process tree,
so ``peak_rss_mib`` (the largest resident set of any process in it,
through ``RUSAGE_CHILDREN``) belongs to this run alone.

End-to-end metrics, per workload operation (one MGHS run, one sweep
batch or one HTTP request):

* ``nodes_per_s`` - sum of n over verified runs / timed-region wall time;
  on ``serve-mixed`` the schedule fixes it (offered rate x mean n), so
  there it moves only when requests fail or the last one drags the window;
* ``latency_p50_ms`` / ``latency_p90_ms`` - operation latency; for
  requests, from the due time until the report bytes are received;
* ``slo_ratio`` - share of operations done within the workload's
  latency limit, failures counted as misses;
* ``ok_ratio`` - 1 - failed/attempted, wrong outputs counted as failed
  (the failure ratio itself is printed on the lines above the JSON);
* ``peak_rss_mib`` - the largest resident set of any process of the run;
* ``setup_s`` - the median of five fresh set-ups (interpreter start,
  imports and registry load; plus pool spawn for the sweep, and server
  boot until ``/healthz`` answers for serve).

The last line of standard output is the JSON result.  The process
exits 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

WORKLOADS = ("scale-mghs", "sweep-fig3", "serve-mixed")
SETUP_SAMPLES = 5
#: Every process the run starts is killed once this much time has passed,
#: so the run always ends in under three minutes.
RUN_BUDGET_S = 170.0
NPROC = os.cpu_count() or 1

#: Metric name -> unit, as ``BENCHMARK.json`` records them.
_SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class BenchError(Exception):
    """A phase could not be run to completion."""


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile; ``inf`` entries stay ``inf``."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    if lo == hi or math.isinf(xs[hi]):
        return xs[hi]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36
#: How long descendants left behind by a phase (the multiprocessing
#: resource tracker unlinking shared memory, say) may take to exit.
REAP_GRACE_S = 10.0


def _adopt_orphans() -> None:
    """Become the child subreaper of every process this run starts.

    A process a phase leaves behind when it exits is then re-parented to
    this one rather than to init, so :func:`_reap` can wait for it.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _reap(pgid: int) -> None:
    """Wait until every descendant has ended; kill group ``pgid`` after a grace.

    Called only once the phase process itself has been waited for, so
    every remaining child is a descendant it left behind.
    """
    end, killed = time.monotonic() + REAP_GRACE_S, False
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > end:
            if killed:
                raise BenchError("processes left behind by a phase did not end")
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            end, killed = time.monotonic() + REAP_GRACE_S, True
        time.sleep(0.01)


def _kill(proc: subprocess.Popen) -> None:
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    _reap(proc.pid)
    raise BenchError(f"{' '.join(proc.args[2:5])} ran out of time")


def _wait(proc: subprocess.Popen, deadline: float) -> int:
    """Wait for ``proc`` and all it started until ``deadline``; then kill and fail."""
    try:
        code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill(proc)
    _reap(proc.pid)
    return code


def _phase_cmd(workload: str, seed: int, tmp: Path) -> list[str]:
    return [sys.executable, str(HERE / "workload.py"), "--workload", workload,
            "--seed", str(seed), "--tmp", str(tmp)]


def setup_time(workload: str, tmp: Path, env: dict, deadline: float) -> float:
    """Seconds from starting a fresh interpreter until the workload is ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(_phase_cmd(workload, 0, tmp) + ["--probe"], env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    if not select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))[0]:
        _kill(proc)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if _wait(proc, deadline) != 0 or line.strip() != "READY":
        raise BenchError(f"set-up probe for {workload} failed")
    return elapsed


def run_phase(workload: str, seed: int, seconds: float, tmp: Path, env: dict,
              deadline: float, trace_dir: Path | None = None) -> dict:
    out = tmp / f"phase-{'traced' if trace_dir else 'plain'}.json"
    cmd = _phase_cmd(workload, seed, tmp) + ["--seconds", str(seconds), "--out", str(out)]
    if trace_dir is not None:
        trace_dir.mkdir()
        cmd += ["--trace-dir", str(trace_dir)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, start_new_session=True)
    if _wait(proc, deadline) != 0:
        raise BenchError(f"{workload} phase exited with {proc.returncode}")
    return json.loads(out.read_text())


def end_to_end(res: dict) -> dict:
    """The user-facing metrics of one phase."""
    w0, w1 = res["window"]
    lat = res["latencies_ms"]
    return {
        "nodes_per_s": res["nodes"] / ((w1 - w0) / 1e9),
        "latency_p50_ms": percentile(lat, 50),
        "latency_p90_ms": percentile(lat, 90),
        "slo_ratio": sum(x <= res["limit_ms"] for x in lat) / len(lat),
        "ok_ratio": 1.0 - res["failed"] / res["attempted"],
    }


def per_layer(workload: str, plain: dict, traced: dict, trace_dir: Path) -> dict:
    """Per-layer metrics from the traced phase (and the untraced one)."""
    recorded = spans.load(trace_dir)
    w0, w1 = traced["window"]
    whole = spans.layer_times(recorded, w0, w1)
    layers = whole["layers"]

    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self_ns", 0) / 1e9

    def per_call_ms(name: str) -> float:
        agg = layers.get(name)
        return agg["self_ns"] / agg["calls"] / 1e6 if agg else 0.0

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    # Table entries are counted on the first operation only, so they
    # repeat exactly for a seed; serve has no operation boundaries.
    first = traced.get("ops", [traced["window"]])[0]
    entries = spans.layer_times(recorded, *first)["layers"].get("kernel.csr_build", {})

    # Pool workers: processes other than the one that called execute_batch.
    owners = {s[0] for s in recorded if s[3] == "engine.execute_batch" and s[5] > w0 and s[4] < w1}
    worker_ns = sum(
        min(t1, w1) - max(t0, w0)
        for pid, _sid, parent, _name, t0, t1, _tid, _work in recorded
        if parent is None and pid not in owners and t1 > w0 and t0 < w1
    )
    batch_ns = sum(
        min(t1, w1) - max(t0, w0)
        for _pid, _sid, _parent, name, t0, t1, _tid, _work in recorded
        if name == "engine.execute_batch" and t1 > w0 and t0 < w1
    )

    out = {
        "instances.get_points_s": self_s("instances.get_points"),
        "kernel.csr_build_s": self_s("kernel.csr_build"),
        "kernel.rev_s": self_s("kernel.rev"),
        "kernel.add_nodes_s": self_s("kernel.add_nodes"),
        "kernel.table_entries": entries.get("work", 0),
        "ghs.hello_s": self_s("ghs.hello"),
        "ghs.phases_s": self_s("ghs.phases"),
        "ghs.settle_s": self_s("ghs.settle"),
        "ghs.settle_calls": calls("ghs.settle"),
        "sim.messages": traced["sim"]["messages"],
        "sim.rounds": traced["sim"]["rounds"],
        "sim.energy": traced["sim"]["energy"],
        "sim.host_us_per_message": (
            self_s("ghs.phases") * 1e6 / traced["family_messages"]
            if traced["family_messages"] else 0.0
        ),
        "connt.run_s": self_s("connt.run"),
        "engine.execute_s": self_s("engine.execute"),
        "engine.worker_busy_ratio": worker_ns / (NPROC * batch_ns) if batch_ns else 0.0,
        "engine.batch_deduped": max(
            0, layers.get("engine.execute_batch", {}).get("work", 0) - calls("engine.execute")
        ),
        "fabric.publish_s": self_s("fabric.publish"),
        "report.to_json_s": self_s("report.to_json"),
        "report.bytes": layers.get("report.to_json", {}).get("work", 0),
        "store.get_ms": per_call_ms("store.get"),
        "store.put_ms": per_call_ms("store.put"),
        "store.hit_ratio": 0.0,
        "store.lookups": 0,
        "broker.dedupe_ratio": 0.0,
        "broker.submitted": 0,
        "serve.queue_wait_ms": 0.0,
        "serve.compute_ms": 0.0,
        "mst.oracle_s": traced["oracle_s"],
        "loadgen.late_p99_ms": 0.0,
        "loadgen.backlog_grew": 0,
        "trace.unattributed_ratio": whole["unattributed_ns"] / whole["track_ns"],
        "trace.tracks": whole["tracks"],
    }
    plain_e2e, traced_e2e = end_to_end(plain), end_to_end(traced)
    if workload == "serve-mixed":
        s0, s1 = traced["stats"]
        hits = s1["store"]["hits"] - s0["store"]["hits"]
        lookups = hits + s1["store"]["misses"] - s0["store"]["misses"]
        submitted = s1["broker"]["submitted"] - s0["broker"]["submitted"]
        deduped = s1["broker"]["deduped"] - s0["broker"]["deduped"]
        out.update({
            "store.hit_ratio": hits / lookups if lookups else 0.0,
            "store.lookups": lookups,
            "broker.dedupe_ratio": deduped / submitted if submitted else 0.0,
            "broker.submitted": submitted,
            "serve.queue_wait_ms": statistics.median(traced["queue_wait_ms"] or [0.0]),
            "serve.compute_ms": statistics.median(traced["compute_ms"] or [0.0]),
            "loadgen.late_p99_ms": percentile(traced["late_ms"], 99),
            "loadgen.backlog_grew": int(traced["backlog_last"] > traced["backlog_first"] + 1),
            "trace.overhead_ratio": traced_e2e["latency_p50_ms"] / plain_e2e["latency_p50_ms"],
        })
    else:
        out["trace.overhead_ratio"] = plain_e2e["nodes_per_s"] / traced_e2e["nodes_per_s"]
    attempted = plain["attempted"] + traced["attempted"]
    out["fail_ratio"] = (plain["failed"] + traced["failed"]) / attempted
    total_self = sum(agg["self_ns"] for agg in layers.values())
    print(f"trace: {whole['tracks']} tracks x {(w1 - w0) / 1e9:.3f} s window = "
          f"{whole['track_ns'] / 1e9:.3f} s = {total_self / 1e9:.3f} s in spans "
          f"+ {whole['unattributed_ns'] / 1e9:.3f} s unattributed")
    for name, agg in sorted(layers.items()):
        print(f"  {name:24s} self {agg['self_ns'] / 1e9:10.4f} s  calls {agg['calls']:6d}")
    return out


def _metric_lines(metrics: dict, units: dict) -> list[str]:
    return [f"{name:26s} {metrics[name]:.6g} {units[name]}" for name in units]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {root / 'src'}", file=sys.stderr)
        return 2
    _adopt_orphans()
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env["REPRO_CACHE_DIR"] = str(tmp / "cache")
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            half = args.seconds / 2
            plain = run_phase(args.workload, args.seed, half, tmp, env, deadline)
            traced = run_phase(args.workload, args.seed, half, tmp, env, deadline,
                               tmp / "spans")
            errors = plain["errors"] + traced["errors"]
            if plain["sim"] != traced["sim"]:
                errors.append(f"sim counts differ: untraced {plain['sim']}, traced {traced['sim']}")
            metrics = per_layer(args.workload, plain, traced, tmp / "spans")
            attempted = plain["attempted"] + traced["attempted"]
            failed = plain["failed"] + traced["failed"]
            units = PER_LAYER
        else:
            setups = [setup_time(args.workload, tmp, env, deadline)
                      for _ in range(SETUP_SAMPLES)]
            res = run_phase(args.workload, args.seed, args.seconds, tmp, env, deadline)
            errors, attempted, failed = res["errors"], res["attempted"], res["failed"]
            metrics = end_to_end(res)
            metrics["peak_rss_mib"] = (
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
            )
            metrics["setup_s"] = statistics.median(setups)
            units = END_TO_END
            print(f"{len(res['latencies_ms'])} operations, {attempted} checked, "
                  f"fail_ratio {failed / attempted:.6g}")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for err in errors[:20]:
        print(f"WRONG: {err}")
    for line in _metric_lines(metrics, units):
        print(line)
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
