"""Span recording for the traced benchmark run.

:func:`install` wraps the public entry points of each program layer
(the calls listed in :data:`TARGETS`) so that every call records one
span: its name, start and end (``time.perf_counter_ns``, which is
``CLOCK_MONOTONIC`` on Linux and therefore comparable across
processes), the span that was open on the same thread when it started,
and an optional work count.  The wrappers live only in this file and are
installed only in the traced run; the program's sources are untouched.

Spans are kept in memory.  The installing process writes its spans with
:meth:`Recorder.flush` when the run ends; forked children (pool
workers, which inherit the wrappers) write theirs after every outermost
span, because a pool worker is never given the chance to run exit code.
Each process appends to its own ``spans-<pid>.jsonl`` in the trace
directory, and :func:`layer_times` reads them all back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from pathlib import Path


def _len_first(args, out):
    specs = args[0] if args else ()
    return len(specs) if isinstance(specs, (list, tuple)) else 0


def _table_entries(args, out):
    return len(out[1])


def _kernel_n(args, out):
    return args[0].n


def _bytes(args, out):
    return len(out)


#: ``(span name, module, attribute path, count)`` for every wrapped call.
#: Functions imported by name into another module are wrapped at each
#: import site, since rebinding the defining module does not reach them.
TARGETS = (
    ("instances.get_points", "repro.experiments.instances", "get_points", None),
    ("kernel.csr_build", "repro.sim.kernel", "neighbor_csr_arrays", _table_entries),
    ("kernel.add_nodes", "repro.sim.kernel", "SynchronousKernel.add_nodes", _kernel_n),
    ("ghs.hello", "repro.algorithms.ghs.runner", "hello_round", None),
    ("ghs.hello", "repro.algorithms.eopt.runner", "hello_round", None),
    ("ghs.phases", "repro.algorithms.ghs.runner", "run_ghs_phases", None),
    ("ghs.phases", "repro.algorithms.eopt.runner", "run_ghs_phases", None),
    ("ghs.settle", "repro.algorithms.ghs.driver", "GHSRecovery.settle", None),
    ("connt.run", "repro.algorithms.connt.runner", "run_connt", None),
    ("engine.execute", "repro.runspec.engine", "execute", None),
    ("engine.execute", "repro.runspec", "execute", None),
    ("engine.execute_batch", "repro.runspec.engine", "execute_batch", _len_first),
    ("engine.execute_batch", "repro.runspec", "execute_batch", _len_first),
    ("engine.execute_batch", "repro.serve.broker", "execute_batch", _len_first),
    ("fabric.publish", "repro.experiments.fabric", "manifest_for_specs", None),
    ("report.to_json", "repro.runspec.report", "RunReport.to_json", _bytes),
    ("store.get", "repro.store.results", "ResultStore.get_report", None),
    ("store.put", "repro.store.results", "ResultStore.put_report", None),
)


class Recorder:
    """In-memory span list for one process (reset in forked children)."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.owner = os.getpid()
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.spans = []
        self._local = threading.local()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name: str, fn, count=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = rec._stack()
            sid = next(rec._ids)
            parent = st[-1] if st else None
            st.append(sid)
            work = 0
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    work = count(args, out)
                return out
            finally:
                t1 = time.perf_counter_ns()
                st.pop()
                rec.spans.append(
                    (sid, parent, name, t0, t1, threading.get_ident(), work)
                )
                if not st and os.getpid() != rec.owner:
                    rec.flush()

        wrapper.__wrapped_span__ = name
        return wrapper

    def flush(self) -> None:
        """Append this process's spans to its file and clear the list."""
        spans, self.spans = self.spans, []
        if not spans:
            return
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")


def _wrap_rev(rec: Recorder) -> None:
    """Time ``_NeighborTable.rev`` only when it builds the permutation.

    ``rev`` is a lazily cached property read once per flood-plane
    delivery; only the first read per table does work, so later reads
    record no span.
    """
    from repro.sim.kernel import _NeighborTable

    getter = _NeighborTable.rev.fget
    timed = rec.wrap("kernel.rev", getter)

    def fget(self):
        return timed(self) if self._rev is None else self._rev

    _NeighborTable.rev = property(fget, doc=_NeighborTable.rev.__doc__)


def install(out_dir: Path) -> Recorder:
    """Wrap every target in this process; returns the recorder."""
    rec = Recorder(out_dir)
    # Import every site first, so that no module binds a name from
    # another one after that name was wrapped.
    modules = {modname: importlib.import_module(modname) for _, modname, _, _ in TARGETS}
    for name, modname, attr, count in TARGETS:
        obj = modules[modname]
        *owners, leaf = attr.split(".")
        for part in owners:
            obj = getattr(obj, part)
        fn = getattr(obj, leaf)
        if getattr(fn, "__wrapped_span__", None):
            raise RuntimeError(f"{modname}.{attr} is already wrapped")
        setattr(obj, leaf, rec.wrap(name, fn, count))
    _wrap_rev(rec)
    return rec


def load(out_dir: Path) -> list[tuple]:
    """Every recorded span as ``(pid, sid, parent, name, t0, t1, tid, work)``."""
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        pid = int(path.stem.split("-")[1])
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                spans.append((pid, *json.loads(line)))
    return spans


def layer_times(spans: list[tuple], w0: int, w1: int) -> dict:
    """Self time, call count and work per span name inside ``[w0, w1]``.

    A span's self time is its duration minus the part its child spans
    cover; spans are clipped to the window first.  A track is one thread
    of one process that recorded a span in the window; ``tracks`` counts
    them and ``unattributed_ns`` is the window time, summed over tracks,
    that no span covers (idle or un-wrapped work).
    """
    clipped = {}
    tracks = set()
    for pid, sid, parent, name, t0, t1, tid, work in spans:
        a, b = max(t0, w0), min(t1, w1)
        if b > a:
            tracks.add((pid, tid))
            clipped[(pid, sid)] = [name, b - a, (pid, parent), work]
    self_ns = {key: rec[1] for key, rec in clipped.items()}
    for key, (_name, dur, parent_key, _work) in clipped.items():
        if parent_key in self_ns:
            self_ns[parent_key] -= dur
    out: dict[str, dict] = {}
    for key, (name, _dur, _parent, work) in clipped.items():
        agg = out.setdefault(name, {"self_ns": 0, "calls": 0, "work": 0})
        agg["self_ns"] += self_ns[key]
        agg["calls"] += 1
        agg["work"] += work
    covered = sum(self_ns.values())
    total = len(tracks) * (w1 - w0)
    return {
        "layers": out,
        "tracks": len(tracks),
        "track_ns": total,
        "unattributed_ns": total - covered,
    }
