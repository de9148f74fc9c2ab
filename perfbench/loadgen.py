"""Open-loop HTTP load generator and server handle for ``serve-mixed``.

One process, one asyncio loop.  Each request is due at its scheduled
time whatever happened to the ones before it (an open loop: independent
users, so a slow server builds a queue instead of receiving less load).
``POST /runs`` returns the job id at once.  A job the store resolved is
done then, and its report is fetched at once; for any other job the
generator follows ``GET /runs/{id}/events`` until the terminal event and
then fetches the report.  POSTs and report fetches share ``nconn``
connection slots; event streams, which only wait for the server to
write, take up to ``nconn`` slots of their own, so waiting jobs never
hold back a due request and the generator sends no polling traffic.

A request's latency runs from its due time to the moment its report
bytes are received, so a stall also charges the wait it imposes on later
requests; how late the generator itself sent each request is recorded
alongside.

While the loop runs, every CPU is kept out of its idle state (see
:func:`cpus_kept_awake`), so that the wake-ups a request costs are timed
as the guest's own scheduler serves them.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

LAUNCHER = Path(__file__).resolve().parent / "serve_launcher.py"
TERMINAL = {"done", "failed", "cancelled"}

#: A busy loop at SCHED_IDLE priority; it exits at once if the policy
#: cannot be set, so it never competes with the processes under test.
SPINNER = "import os\nos.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\nwhile True:\n    pass\n"


@contextlib.contextmanager
def cpus_kept_awake(count: int):
    """Run one idle-priority spinner per CPU for the duration of the block.

    Any runnable task preempts a SCHED_IDLE one at once, so the spinners
    take next to no time from the server, its pool or the generator.  What they
    remove is the halt of an idle virtual CPU: resuming it is a round
    trip through the hypervisor whose length follows the load other
    guests put on the host, and each request wakes several processes.
    Without them, on a 2-vCPU VM, the median latency of serve-mixed read
    from 5 to 15 ms depending on the hour while the CPU-bound workloads
    moved by a tenth; six seeds run alternately without and with them
    read 5.3-6.7 ms and 5.1-5.4 ms.
    """
    procs = [subprocess.Popen([sys.executable, "-c", SPINNER]) for _ in range(count)]
    try:
        yield
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.wait()


async def _send(host: str, port: int, method: str, path: str, body: bytes | None):
    """Open a fresh connection, send one request, read the response head."""
    reader, writer = await asyncio.open_connection(host, port)
    head = f"{method} {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n"
    if body is not None:
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    try:
        writer.write(head.encode("latin-1") + b"\r\n" + (body or b""))
        await writer.drain()
        return reader, writer, await reader.readuntil(b"\r\n\r\n")
    except BaseException:
        writer.close()
        raise


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass


async def request(host: str, port: int, method: str, path: str, body: bytes | None = None):
    """One HTTP/1.1 exchange on a fresh connection; returns ``(status, body)``.

    The body is read by its ``Content-Length``, not until the server
    closes: pool workers the server forks while a connection is open
    inherit its socket, so the close may never reach the client.
    """
    reader, writer, header = await _send(host, port, method, path, body)
    try:
        length = None
        for line in header.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        payload = await (reader.read() if length is None else reader.readexactly(length))
    finally:
        await _close(writer)
    return int(header.split(b" ", 2)[1]), payload


async def follow_events(host: str, port: int, job_id: str) -> dict[str, float]:
    """Follow ``/runs/{id}/events`` to the job's terminal event.

    Returns the server time of the first event of each kind.  The
    stream is close-delimited, so it is read line by line and left at
    the terminal event rather than at the close (see :func:`request`).
    """
    reader, writer, header = await _send(host, port, "GET", f"/runs/{job_id}/events", None)
    times: dict[str, float] = {}
    try:
        if int(header.split(b" ", 2)[1]) != 200:
            raise ValueError(f"events: {header.splitlines()[0]!r}")
        while not TERMINAL & times.keys():
            line = await reader.readline()
            if not line:
                raise ValueError("event stream ended before a terminal event")
            event = json.loads(line)
            times.setdefault(event["event"], event["t"])
    finally:
        await _close(writer)
    return times


class Server:
    """A ``serve_launcher.py`` subprocess, stopped with SIGTERM."""

    def __init__(self, store_path: Path, workers: int, trace_dir: Path | None = None,
                 timeout_s: float = 60.0) -> None:
        cmd = [sys.executable, str(LAUNCHER), str(store_path), str(workers)]
        if trace_dir is not None:
            cmd.append(str(trace_dir))
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        deadline = time.monotonic() + timeout_s
        try:
            line = ""
            while not line.startswith("LISTENING"):
                left = deadline - time.monotonic()
                if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
                    raise RuntimeError("server did not report its address")
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError("server exited during start-up")
            _, self.host, port = line.split()
            self.port = int(port)
            while self.get("/healthz")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("server never answered /healthz")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def get(self, path: str) -> tuple[int, bytes]:
        """Blocking GET (set-up and bookkeeping only, never in the loop)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        except OSError:
            return 0, b""
        finally:
            conn.close()

    def stop(self) -> int:
        """SIGTERM and wait; SIGKILL if it does not exit in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


async def _open_loop(host, port, requests, nconn, timeout_s):
    sem, streams = asyncio.Semaphore(nconn), asyncio.Semaphore(nconn)
    results: list[dict] = [{} for _ in requests]
    state = {"submitted": 0, "answered": 0, "finished": 0}
    backlog: list[int] = []
    start = time.perf_counter() + 0.05

    async def one(rec: dict, due_s: float, body: bytes) -> None:
        due = rec["due"] = start + due_s
        await asyncio.sleep(max(0.0, due - time.perf_counter()))
        try:
            async with sem:
                rec["late"] = time.perf_counter() - due
                status, raw = await request(host, port, "POST", "/runs", body)
            if status not in (200, 201):
                rec["error"] = f"POST /runs: HTTP {status} {raw[:200]!r}"
                return
            job = json.loads(raw)
            rec["id"] = job["id"]
            rec["store_hit"] = job["source"] == "store"
            rec["created"] = job["created"]
            state["submitted"] += 1
            if job["state"] not in TERMINAL:
                async with streams:
                    rec["events"] = await asyncio.wait_for(
                        follow_events(host, port, job["id"]),
                        max(0.0, due + timeout_s - time.perf_counter()),
                    )
            async with sem:
                status, raw = await request(host, port, "GET", f"/runs/{job['id']}/report")
            if status != 200:
                rec["error"] = f"report: HTTP {status} {raw[:200]!r}"
                return
            rec["done"] = time.perf_counter()
            rec["payload"] = raw
        except asyncio.TimeoutError:
            rec["error"] = f"no report within {timeout_s} s"
        except (OSError, ValueError, KeyError, asyncio.IncompleteReadError) as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            state["answered"] += "id" in rec
            state["finished"] += 1

    async def sample() -> None:
        while state["finished"] < len(requests):
            backlog.append(state["submitted"] - state["answered"])
            await asyncio.sleep(0.25)

    sampler = asyncio.create_task(sample())
    await asyncio.gather(*(one(rec, *req) for rec, req in zip(results, requests)))
    await sampler
    return results, backlog


def run_open_loop(server: Server, requests: list[tuple[float, bytes]], *, nconn: int,
                  timeout_s: float):
    """Send each ``(due_s, body)`` request ``due_s`` after the start.

    Returns ``(per-request records, backlog)``.  A record holds the
    request's due, send-delay (``late``) and done times, the POST reply
    fields, the report bytes, and for jobs not done at submission the
    server times of their ``queued``/``running``/``done`` events.
    ``backlog`` samples, every 0.25 s, the jobs submitted but not yet
    answered.
    """
    with cpus_kept_awake(os.cpu_count() or 1):
        return asyncio.run(_open_loop(server.host, server.port, requests, nconn, timeout_s))
