"""The sqlite-backed :class:`ResultStore` (see package docstring).

Layout
------

One database file holds two tables:

``meta``
    Key/value pairs: the store schema version (``store_schema``) and the
    cumulative ``hits`` / ``misses`` counters, so cache effectiveness is
    observable across processes (``repro cache stats``).
``results``
    One row per result key: the payload schema version, the spec's
    algorithm and ``n`` (for human-readable listings), creation and
    last-use stamps, the payload size and the full
    :class:`~repro.runspec.report.RunReport` JSON text.

WAL journaling keeps concurrent readers (parallel sweeps consulting one
store) away from writer locks.  Pruning is LRU by ``last_used`` with a
monotonic insert sequence as the tiebreak, bounded by ``max_bytes`` of
payload text.

Concurrency: one instance may be shared across threads (the serve
broker's job workers and a sweep thread hammering one store).  A single
connection is opened with ``check_same_thread=False`` and every
operation is serialized behind an instance lock — sqlite sees one caller
at a time, so in-process writers can never race each other.  Writers in
*other processes* are handled by a ``busy_timeout``: instead of raising
``database is locked`` the moment a cross-process writer holds the WAL
write lock, sqlite retries for up to :data:`BUSY_TIMEOUT_MS`.  Without
both, a second thread tripped ``ProgrammingError`` (cross-thread use of
the connection), which the corruption-recovery path misread as a broken
database — deleting the file and degrading the store to inert.

Failure policy: the store must *never* crash a run.  A corrupted or
truncated database file is deleted and recreated cold; any sqlite error
during an operation first rolls back and retries on the live connection
(transient lock contention), then reopens once, after which the store
degrades to a permanent miss (``get`` returns ``None``, ``put`` drops
the payload) for the rest of the process.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from pathlib import Path

from repro.runspec.report import RunReport
from repro.runspec.spec import SCHEMA_VERSION, RunSpec

__all__ = ["DEFAULT_MAX_BYTES", "ResultStore", "default_store_path"]

#: Version stamp of the store's own table layout; a mismatch recreates
#: the database (the payloads additionally carry the runspec
#: ``schema_version``, checked per row on read).
STORE_SCHEMA = 1

#: Default payload-size bound (sum of stored JSON bytes) before LRU rows
#: are pruned.
DEFAULT_MAX_BYTES = 256 << 20

#: How long sqlite retries against a cross-process writer before
#: surfacing ``database is locked`` (milliseconds).
BUSY_TIMEOUT_MS = 10_000


def default_store_path() -> Path:
    """The default store location: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    root = os.environ.get("REPRO_CACHE_DIR")
    base = Path(root) if root else Path.home() / ".cache" / "repro"
    return base / "results.sqlite"


class ResultStore:
    """Content-addressed, size-bounded cache of executed run reports.

    Parameters
    ----------
    path:
        Database file (parent directories are created).  ``":memory:"``
        gives an ephemeral per-instance store (tests).
    max_bytes:
        Payload-size bound enforced after every write (LRU pruning).
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        self.path = str(default_store_path() if path is None else path)
        self.max_bytes = int(max_bytes)
        self._conn: sqlite3.Connection | None = None
        self._lock = threading.RLock()
        self._open(allow_recreate=True)

    # -- lifecycle ---------------------------------------------------------

    def _open(self, *, allow_recreate: bool) -> None:
        """Connect and validate; on corruption, recreate cold (once)."""
        try:
            self._conn = self._connect()
        except sqlite3.Error:
            self._conn = None
            if allow_recreate and self._remove_files():
                try:
                    self._conn = self._connect()
                except sqlite3.Error:
                    self._conn = None

    def _connect(self) -> sqlite3.Connection:
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        # check_same_thread=False: the connection is shared across the
        # serve broker's worker threads; the instance lock serializes
        # every use, so sqlite never sees concurrent calls on it.
        conn = sqlite3.connect(
            self.path, timeout=BUSY_TIMEOUT_MS / 1000.0, check_same_thread=False
        )
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            # Touching the schema forces sqlite to actually read the file,
            # so truncation/corruption surfaces here, not mid-run.
            row = conn.execute(
                "SELECT v FROM meta WHERE k = 'store_schema'"
            ).fetchone() if self._has_tables(conn) else None
            if row is None or int(row[0]) != STORE_SCHEMA:
                self._create_tables(conn)
            conn.commit()
        except sqlite3.Error:
            conn.close()
            raise
        return conn

    @staticmethod
    def _has_tables(conn: sqlite3.Connection) -> bool:
        row = conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' AND name='meta'"
        ).fetchone()
        return row is not None

    @staticmethod
    def _create_tables(conn: sqlite3.Connection) -> None:
        conn.execute("DROP TABLE IF EXISTS results")
        conn.execute("DROP TABLE IF EXISTS meta")
        conn.execute("CREATE TABLE meta (k TEXT PRIMARY KEY, v TEXT)")
        conn.execute(
            "CREATE TABLE results ("
            " key TEXT PRIMARY KEY,"
            " schema_version INTEGER NOT NULL,"
            " algorithm TEXT NOT NULL,"
            " n INTEGER NOT NULL,"
            " created REAL NOT NULL,"
            " last_used REAL NOT NULL,"
            " seq INTEGER NOT NULL,"
            " nbytes INTEGER NOT NULL,"
            " payload TEXT NOT NULL)"
        )
        conn.execute(
            "INSERT INTO meta (k, v) VALUES ('store_schema', ?), "
            "('hits', '0'), ('misses', '0'), ('seq', '0')",
            (str(STORE_SCHEMA),),
        )

    def _remove_files(self) -> bool:
        """Delete the database (and WAL sidecars); True if removable."""
        if self.path == ":memory:":
            return False
        ok = True
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(self.path + suffix)
            except FileNotFoundError:
                pass
            except OSError:
                ok = False
        return ok

    def close(self) -> None:
        """Close the connection (idempotent; the store becomes inert)."""
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
                self._conn = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- guarded execution -------------------------------------------------

    def _run(self, op, default):
        """Run ``op(conn)`` under the instance lock; degrade on failure.

        Recovery ladder: a sqlite failure first rolls back and retries
        the op on the live connection (transient contention — a
        cross-process writer outlasting the busy timeout — must not cost
        the database), then reopens cold and retries once.  A failure at
        the last rung degrades the store to inert (every later call
        returns its miss-shaped ``default``) — a broken cache must cost
        wall-clock, never correctness.
        """
        with self._lock:
            if self._conn is None:
                return default
            try:
                return op(self._conn)
            except sqlite3.Error:
                try:
                    self._conn.rollback()
                    return op(self._conn)
                except sqlite3.Error:
                    pass
                self.close()
                self._remove_files()
                self._open(allow_recreate=False)
                if self._conn is None:
                    return default
                try:
                    return op(self._conn)
                except sqlite3.Error:
                    self.close()
                    return default

    def _bump(self, conn: sqlite3.Connection, counter: str, by: int = 1) -> None:
        conn.execute(
            "UPDATE meta SET v = CAST(CAST(v AS INTEGER) + ? AS TEXT) WHERE k = ?",
            (by, counter),
        )

    # -- raw payload API ---------------------------------------------------

    @staticmethod
    def _fetch(conn: sqlite3.Connection, key: str) -> str | None:
        """The payload for ``key`` with its LRU stamp touched, uncommitted.

        A row with a stale payload schema is dropped and reads as absent.
        """
        row = conn.execute(
            "SELECT payload, schema_version FROM results WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        if int(row[1]) != SCHEMA_VERSION:
            conn.execute("DELETE FROM results WHERE key = ?", (key,))
            return None
        conn.execute(
            "UPDATE results SET last_used = ? WHERE key = ?", (time.time(), key)
        )
        return row[0]

    def get(self, key: str) -> str | None:
        """The stored payload text for ``key``, or ``None``.

        Touches the row's LRU stamp on a find; hit/miss accounting lives
        in :meth:`get_report` (a found row can still be a semantic miss
        when the requested instrumentation was never recorded).
        """

        def op(conn: sqlite3.Connection):
            payload = self._fetch(conn, key)
            conn.commit()
            return payload

        return self._run(op, None)

    def put(self, key: str, payload: str, *, algorithm: str = "", n: int = 0) -> None:
        """Store ``payload`` under ``key`` (upsert), then enforce the bound."""

        def op(conn: sqlite3.Connection):
            now = time.time()
            seq = int(
                conn.execute("SELECT v FROM meta WHERE k = 'seq'").fetchone()[0]
            ) + 1
            conn.execute("UPDATE meta SET v = ? WHERE k = 'seq'", (str(seq),))
            conn.execute(
                "INSERT INTO results "
                " (key, schema_version, algorithm, n, created, last_used, seq,"
                "  nbytes, payload)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)"
                " ON CONFLICT(key) DO UPDATE SET"
                "  schema_version=excluded.schema_version,"
                "  algorithm=excluded.algorithm, n=excluded.n,"
                "  last_used=excluded.last_used, seq=excluded.seq,"
                "  nbytes=excluded.nbytes, payload=excluded.payload",
                (
                    key, SCHEMA_VERSION, algorithm, int(n), now, now, seq,
                    len(payload.encode("utf-8")), payload,
                ),
            )
            self._prune_locked(conn, self.max_bytes)
            conn.commit()

        self._run(op, None)

    def delete(self, key: str) -> None:
        """Drop one entry (missing keys are a no-op)."""

        def op(conn: sqlite3.Connection):
            conn.execute("DELETE FROM results WHERE key = ?", (key,))
            conn.commit()

        self._run(op, None)

    # -- report API --------------------------------------------------------

    def get_report(self, spec: RunSpec) -> RunReport | None:
        """The memoized report for ``spec``, or ``None``.

        The lookup key is :meth:`~repro.runspec.spec.RunSpec.result_key`
        (instrumentation switches excluded), so a bare run reuses the
        result of an instrumented one and vice versa.  A hit is rebuilt
        *for the requested spec*: perf/trace snapshots are attached only
        when the spec asks for them, and a spec asking for a snapshot
        the stored payload never recorded is a miss (the run must
        actually record).  Unreadable payloads are dropped and count as
        misses — a corrupt row can never crash the caller.
        """
        key = spec.result_key()

        def op(conn: sqlite3.Connection):
            # One transaction: the LRU touch and the hit/miss counter
            # commit together.
            payload = self._fetch(conn, key)
            report = None
            if payload is not None:
                try:
                    stored = RunReport.from_json(payload)
                except Exception:
                    conn.execute("DELETE FROM results WHERE key = ?", (key,))
                    stored = None
                if stored is not None and not (
                    (spec.perf and stored.perf is None)
                    or (spec.trace and stored.trace is None)
                ):
                    report = RunReport(
                        spec=spec,
                        result=stored.result,
                        perf=stored.perf if spec.perf else None,
                        trace=stored.trace if spec.trace else None,
                    )
            self._bump(conn, "misses" if report is None else "hits")
            conn.commit()
            return report

        return self._run(op, None)

    def put_report(self, report: RunReport) -> None:
        """Persist one executed report under its spec's result key."""
        spec = report.spec
        self.put(
            spec.result_key(),
            report.to_json(indent=None),
            algorithm=spec.algorithm,
            n=spec.n,
        )

    # -- maintenance -------------------------------------------------------

    @staticmethod
    def _prune_locked(conn: sqlite3.Connection, max_bytes: int) -> int:
        """Evict LRU rows until total payload bytes fit; returns #evicted.

        Runs inside the caller's transaction.  The LRU ordering is a
        snapshot, and a reader *in another process* may touch a row
        between the snapshot and our DELETE — evicting it anyway would
        throw away the entry whose ``get_report`` hit was just counted
        (the hit stands, the payload vanishes: pure counter drift).
        Every DELETE is therefore conditional on the row's
        ``(last_used, seq)`` being exactly what the snapshot saw; a
        concurrently-touched row no longer matches, survives, and the
        outer loop re-snapshots to pick the next genuine LRU victim.
        ``evicted``/``total`` advance only on ``rowcount`` — a skipped
        row is never double-counted as freed bytes.
        """
        evicted = 0
        while True:
            total = conn.execute(
                "SELECT COALESCE(SUM(nbytes), 0) FROM results"
            ).fetchone()[0]
            if total <= max_bytes:
                return evicted
            progressed = False
            for key, nbytes, last_used, seq in conn.execute(
                "SELECT key, nbytes, last_used, seq FROM results"
                " ORDER BY last_used ASC, seq ASC"
            ).fetchall():
                if total <= max_bytes:
                    break
                cur = conn.execute(
                    "DELETE FROM results"
                    " WHERE key = ? AND last_used = ? AND seq = ?",
                    (key, last_used, seq),
                )
                if cur.rowcount:
                    total -= nbytes
                    evicted += 1
                    progressed = True
            if total <= max_bytes or not progressed:
                # Nothing deletable moved us under the bound (every
                # candidate was concurrently refreshed): stop rather
                # than livelock — pruning is advisory, not a guarantee.
                return evicted

    def prune(self, max_bytes: int | None = None) -> int:
        """Evict least-recently-used entries down to the byte bound."""
        bound = self.max_bytes if max_bytes is None else int(max_bytes)

        def op(conn: sqlite3.Connection):
            evicted = self._prune_locked(conn, bound)
            conn.commit()
            return evicted

        return self._run(op, 0)

    def clear(self) -> int:
        """Drop every entry (counters survive); returns #entries dropped."""

        def op(conn: sqlite3.Connection):
            count = conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
            conn.execute("DELETE FROM results")
            conn.commit()
            return int(count)

        return self._run(op, 0)

    def stats(self) -> dict:
        """Entry/byte totals plus the cumulative hit/miss counters."""

        def op(conn: sqlite3.Connection):
            entries, nbytes = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(nbytes), 0) FROM results"
            ).fetchone()
            meta = dict(
                conn.execute(
                    "SELECT k, v FROM meta WHERE k IN ('hits', 'misses')"
                ).fetchall()
            )
            return {
                "path": self.path,
                "entries": int(entries),
                "total_bytes": int(nbytes),
                "max_bytes": self.max_bytes,
                "hits": int(meta.get("hits", 0)),
                "misses": int(meta.get("misses", 0)),
                "store_schema": STORE_SCHEMA,
                "payload_schema": SCHEMA_VERSION,
            }

        return self._run(
            op,
            {
                "path": self.path,
                "entries": 0,
                "total_bytes": 0,
                "max_bytes": self.max_bytes,
                "hits": 0,
                "misses": 0,
                "store_schema": STORE_SCHEMA,
                "payload_schema": SCHEMA_VERSION,
                "degraded": True,
            },
        )

    def entry_rows(self, limit: int = 20) -> list[tuple]:
        """The newest entries as ``(key, algorithm, n, nbytes)`` rows."""

        def op(conn: sqlite3.Connection):
            return conn.execute(
                "SELECT key, algorithm, n, nbytes FROM results"
                " ORDER BY last_used DESC, seq DESC LIMIT ?",
                (int(limit),),
            ).fetchall()

        return self._run(op, [])
