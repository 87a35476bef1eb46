"""JSON-lines TCP front end over the admission gateway.

One request per line, one response per line, UTF-8 JSON.  The protocol is
deliberately tiny — enough for out-of-process clients, load generators, and
the ``repro serve`` CLI selftest; it is not a public API.

Requests (``op`` field selects):

* ``{"op": "submit", "jobs": [{...}, ...]}`` — admit a batch.  Each job dict
  needs ``job_id``, ``workload``, ``home_region``, ``execution_time``,
  ``energy_kwh`` (``arrival_time`` optional — live sessions are stamped by
  the gateway clock anyway).  The response arrives once *every* job in the
  batch is placed: ``{"ok": true, "decisions": [[job_id, region, decided_at,
  latency_s], ...]}``.
* ``{"op": "tick"}`` — advance the engine to the clock; response carries the
  number of decisions flushed.
* ``{"op": "stats"}`` — counter snapshot.
* ``{"op": "checkpoint", "path": "..."}`` — checkpoint the live session.
* ``{"op": "shutdown"}`` — finalize the engine and stop the server.

Errors come back as ``{"ok": false, "error": "..."}`` on the connection that
caused them; the server itself stays up.  An engine fault poisons the
gateway, which then reports the failure to every later request; ``shutdown``
still stops the server (answering ``ok: false``), and
:meth:`AdmissionServer.serve_until_shutdown` returns ``None`` in place of the
engine result.
"""

from __future__ import annotations

import asyncio
import json

from repro.service.gateway import AdmissionGateway
from repro.traces.job import Job

__all__ = ["AdmissionServer"]


class AdmissionServer:
    """Serve one :class:`AdmissionGateway` on a TCP socket."""

    def __init__(self, gateway: AdmissionGateway, host: str = "127.0.0.1", port: int = 0):
        self.gateway = gateway
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self.result = None

    async def start(self) -> "AdmissionServer":
        await self.gateway.start()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        # Resolve the ephemeral port (port=0) to the one actually bound.
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_until_shutdown(self):
        """Block until a client sends ``shutdown``; returns the engine result
        (``None`` when a fault had poisoned the gateway)."""
        async with self._server:
            await self._shutdown.wait()
        return self.result

    async def stop(self) -> None:
        """Stop accepting and finalize the engine (if not already shut down)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.result is None and not self._shutdown.is_set():
            self.result = await self.gateway.close()
        self._shutdown.set()

    def _job_from_dict(self, payload: dict) -> Job:
        arrival = payload.get("arrival_time", 0.0)
        return Job(
            job_id=int(payload["job_id"]),
            workload=str(payload["workload"]),
            arrival_time=float(arrival),
            execution_time=float(payload["execution_time"]),
            energy_kwh=float(payload["energy_kwh"]),
            home_region=str(payload["home_region"]),
            package_gb=float(payload.get("package_gb", 1.0)),
            servers_required=payload.get("servers_required", 1),
        )

    async def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "submit":
            jobs = [self._job_from_dict(job) for job in request["jobs"]]
            decisions = await self.gateway.submit(jobs)
            return {
                "ok": True,
                "decisions": [
                    [d.job_id, d.region, d.decided_at, d.latency_s] for d in decisions
                ],
            }
        if op == "tick":
            return {"ok": True, "decided": await self.gateway.tick()}
        if op == "stats":
            return {"ok": True, "stats": self.gateway.stats().as_dict()}
        if op == "checkpoint":
            await self.gateway.checkpoint(request["path"])
            return {"ok": True, "path": request["path"]}
        if op == "shutdown":
            try:
                self.result = await self.gateway.close()
            finally:
                # A poisoned gateway cannot finalize, but the server must
                # still stop.
                self._shutdown.set()
            return {"ok": True, "jobs": self.gateway.stats().decided}
        return {"ok": False, "error": f"unknown op {op!r}"}

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            while not self._shutdown.is_set():
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                    response = await self._dispatch(request)
                except (KeyError, ValueError, TypeError, RuntimeError, OSError) as error:
                    response = {"ok": False, "error": f"{type(error).__name__}: {error}"}
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
