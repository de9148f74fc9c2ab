"""The serve application: routes → broker → engine → store.

``ServeApp`` owns the route table and the broker/store pair;
:func:`create_app` and :func:`serve` are the two entry points (the CLI
calls :func:`serve`, tests call :func:`create_app` and talk to the
returned server's real socket).

API surface (all JSON unless noted):

====== ========================== =======================================
POST   ``/runs``                  submit a RunSpec JSON; 201 with the
                                  job id (= ``spec_hash``) on first
                                  submission, 200 on dedupe/replay
GET    ``/runs/{id}``             job status + parsed report when done
GET    ``/runs/{id}/report``      the report payload **verbatim** —
                                  byte-identical to what the engine
                                  serialized (the serve-smoke gate)
GET    ``/runs/{id}/events``      NDJSON stream of lifecycle + trace +
                                  perf events, follows until terminal
DELETE ``/runs/{id}``             cancel a queued job
GET    ``/healthz``               liveness probe
GET    ``/stats``                 store hit/miss + queue depth + pool
====== ========================== =======================================
"""

from __future__ import annotations

import json

from repro.errors import ExperimentError
from repro.runspec import engine as engine_mod
from repro.runspec.spec import RunSpec
from repro.serve.broker import InMemoryBroker
from repro.serve.jobs import CANCELLED
from repro.serve.http import (
    HttpError,
    Request,
    Response,
    run_http_server,
)

__all__ = ["ServeApp", "create_app", "serve"]


class ServeApp:
    """Route dispatch over one :class:`~repro.serve.broker.InMemoryBroker`."""

    def __init__(self, broker: InMemoryBroker, *, store=None) -> None:
        self.broker = broker
        self.store = store

    # -- dispatch ----------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        path, method = request.path, request.method
        if path == "/healthz":
            if method != "GET":
                raise HttpError(405, "use GET")
            return Response.json({"ok": True})
        if path == "/stats":
            if method != "GET":
                raise HttpError(405, "use GET")
            return Response.json(self._stats())
        if path == "/runs" or path == "/runs/":
            if method != "POST":
                raise HttpError(405, "use POST to submit a RunSpec")
            return self._submit(request)
        if path.startswith("/runs/"):
            rest = path[len("/runs/"):].strip("/")
            job_id, _, sub = rest.partition("/")
            if not job_id:
                raise HttpError(404, "missing job id")
            if sub == "" and method == "GET":
                return self._status(job_id)
            if sub == "" and method == "DELETE":
                return self._cancel(job_id)
            if sub == "report" and method == "GET":
                return self._report(job_id)
            if sub == "events" and method == "GET":
                return self._events(job_id)
            raise HttpError(
                405 if sub in ("", "report", "events") else 404,
                f"no route for {method} {path}",
            )
        raise HttpError(404, f"no route for {method} {path}")

    # -- handlers ----------------------------------------------------------

    def _submit(self, request: Request) -> Response:
        data = request.json()
        if not isinstance(data, dict):
            raise HttpError(400, "RunSpec body must be a JSON object")
        try:
            spec = RunSpec.from_dict(data)
        except (ExperimentError, TypeError, ValueError, KeyError) as exc:
            raise HttpError(400, f"invalid RunSpec: {exc}")
        job, created = self.broker.submit(spec)
        body = {
            "id": job.id,
            "spec_hash": job.id,
            "state": job.state,
            "source": job.source,
            "created": created,
        }
        return Response.json(body, status=201 if created else 200)

    def _job(self, job_id: str):
        job = self.broker.get(job_id)
        if job is None:
            raise HttpError(404, f"no such job: {job_id}")
        return job

    def _status(self, job_id: str) -> Response:
        return Response.json(self._job(job_id).status())

    def _cancel(self, job_id: str) -> Response:
        job = self._job(job_id)
        cancelled = self.broker.cancel(job_id)
        if not cancelled and job.state != CANCELLED:
            # RUNNING can't be interrupted; DONE/FAILED are settled.
            raise HttpError(409, f"job is {job.state}; cannot cancel")
        return Response.json({"id": job.id, "state": job.state})

    def _report(self, job_id: str) -> Response:
        job = self._job(job_id)
        if job.payload is None:
            raise HttpError(
                409, f"job is {job.state}; report not available yet"
            )
        # The payload string is served verbatim — the byte-identity
        # guarantee callers diff against the engine's own serialization.
        return Response(200, body=job.payload.encode("utf-8"))

    def _events(self, job_id: str) -> Response:
        job = self._job(job_id)

        async def ndjson():
            async for event in job.stream_events():
                yield (json.dumps(event) + "\n").encode("utf-8")

        return Response(
            200, content_type="application/x-ndjson", stream=ndjson()
        )

    def _stats(self) -> dict:
        return {
            "store": self.store.stats() if self.store is not None else None,
            "broker": self.broker.stats(),
            "pool": engine_mod.pool_state(),
        }


async def create_app(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    store=None,
    backend: str = "process",
    workers: int | None = None,
):
    """Build broker + app and start listening; returns ``(server, app)``.

    ``port=0`` binds an ephemeral port (tests); read the bound address
    off ``server.sockets[0].getsockname()``.
    """
    broker = InMemoryBroker(store=store, backend=backend, workers=workers)
    await broker.start()
    app = ServeApp(broker, store=store)
    server = await run_http_server(app.handle, host, port)
    return server, app


async def serve(
    host: str,
    port: int,
    *,
    store=None,
    backend: str = "process",
    workers: int | None = None,
    ready=None,
) -> None:
    """Run the server until cancelled (the CLI entry point).

    ``ready`` is an optional callable invoked with the bound
    ``(host, port)`` once listening — the serve-smoke harness uses it
    instead of polling.
    """
    server, app = await create_app(
        host, port, store=store, backend=backend, workers=workers
    )
    bound = server.sockets[0].getsockname()[:2]
    if ready is not None:
        ready(bound)
    try:
        async with server:
            await server.serve_forever()
    finally:
        await app.broker.close()
