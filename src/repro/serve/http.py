"""Stdlib-only asyncio HTTP/JSON front end for the job server.

A deliberately small HTTP/1.0-style server over raw asyncio streams —
one request per connection, JSON bodies, no external dependencies.  The
routes:

======================  ====================================================
``GET  /healthz``       liveness + draining flag
``POST /jobs``          submit one (workload, config) pair
``GET  /jobs/<id>``     job status (``?result=1`` embeds the SimResult)
``POST /batches``       submit ``{"pairs": [...]}`` as one batch
``GET  /batches/<id>``  per-state counts + ``done`` flag
``GET  /batches/<id>/results``  per-slot job rows with results
``GET  /events``        server-sent events (``?since=<seq>`` replays)
``GET  /metrics``       scheduler counters + cache/telemetry summary
``GET  /cache/stats``   result-cache store statistics
``POST /cache/refresh`` pick up shard entries written by other processes
``POST /cache/prune``   drop rev-stale cache entries
``POST /drain``         graceful shutdown (``{"grace": seconds}``)
``GET  /store``         full job-store snapshot (the drain artifact)
======================  ====================================================

Wire errors map to 400, unknown routes to 404, submissions during a
drain to 503.  The server never dies on a bad request.
"""

from __future__ import annotations

import asyncio
import json
import urllib.parse
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from .scheduler import DrainingError, Scheduler
from .wire import WireError, pair_from_wire, pairs_from_wire

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Seconds between SSE keepalive comments when no events arrive.
SSE_KEEPALIVE_SECONDS = 15.0


class ServeApp:
    """Routes HTTP requests onto a :class:`~repro.serve.scheduler.Scheduler`.

    ``store_path``, when given, receives a JSON snapshot of the job store
    on drain — the artifact CI uploads.  ``done`` is set once a drain
    completes so the hosting script knows to stop accepting connections.
    """

    def __init__(
        self, scheduler: Scheduler, store_path: Optional[Path] = None
    ) -> None:
        self.scheduler = scheduler
        self.store_path = Path(store_path) if store_path is not None else None
        self.done = asyncio.Event()
        self._drain_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection (one request, except SSE streams)."""
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, params, body = request
            if method == "GET" and path == "/events":
                await self._stream_events(writer, params)
                return
            status, payload = await self._dispatch(method, path, params, body)
            self._write_response(writer, status, payload)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # noqa: BLE001 - a request must not kill the server
            try:
                self._write_response(writer, 500, {"error": repr(exc)})
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        finally:
            try:
                writer.close()
                # CancelledError: loop teardown right after a /drain
                # response — the socket is closing anyway.
                await writer.wait_closed()
            except (ConnectionError, RuntimeError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, list], bytes]]:
        """Parse one request; ``(method, path, query params, body)``."""
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or 0)
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        return method, path, urllib.parse.parse_qs(query), body

    def _write_response(
        self, writer: asyncio.StreamWriter, status: int, payload: Any
    ) -> None:
        """Queue a JSON response (connection: close)."""
        body = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, params: Dict[str, list], body: bytes
    ) -> Tuple[int, Any]:
        """Resolve one request to ``(status, JSON payload)``."""
        sched = self.scheduler
        try:
            if path == "/healthz" and method == "GET":
                return 200, {"ok": True, "draining": sched.draining}
            if path == "/jobs" and method == "POST":
                workload, config = pair_from_wire(self._json_body(body))
                job, how = sched.submit_classified(workload, config)
                payload = job.to_wire(include_result=job.state == "cached")
                payload["how"] = how
                return 202 if how != "cached" else 200, payload
            if path.startswith("/jobs/") and method == "GET":
                job = sched.store.get(path[len("/jobs/"):])
                if job is None:
                    return 404, {"error": "no such job"}
                include = params.get("result", ["0"])[0] not in ("0", "")
                return 200, job.to_wire(include_result=include)
            if path == "/batches" and method == "POST":
                pairs = pairs_from_wire(self._json_body(body).get("pairs"))
                batch = sched.submit_batch(pairs)
                return 202, batch.to_wire()
            if path.startswith("/batches/") and method == "GET":
                batch_id, _, tail = path[len("/batches/"):].partition("/")
                batch = sched.store.get_batch(batch_id)
                if batch is None:
                    return 404, {"error": "no such batch"}
                if tail == "results":
                    return 200, {
                        "batch": sched.batch_status(batch),
                        "jobs": sched.batch_results(batch),
                    }
                if tail == "":
                    return 200, sched.batch_status(batch)
                return 404, {"error": "no such route"}
            if path == "/metrics" and method == "GET":
                return 200, sched.metrics_wire()
            if path == "/cache/stats" and method == "GET":
                if sched.cache is None:
                    return 404, {"error": "server runs without a cache"}
                stats = sched.cache.stats()
                return 200, {
                    "entries": stats.entries,
                    "bytes_on_disk": stats.bytes_on_disk,
                    "stale_entries": stats.stale_entries,
                    "corrupt_lines": stats.corrupt_lines,
                    "entries_by_rev": {
                        str(rev): count
                        for rev, count in stats.entries_by_rev.items()
                    },
                    "hits": sched.cache.hits,
                    "misses": sched.cache.misses,
                }
            if path == "/cache/refresh" and method == "POST":
                if sched.cache is None:
                    return 404, {"error": "server runs without a cache"}
                return 200, {"new_entries": sched.cache.refresh()}
            if path == "/cache/prune" and method == "POST":
                if sched.cache is None:
                    return 404, {"error": "server runs without a cache"}
                return 200, {"dropped": sched.cache.prune()}
            if path == "/store" and method == "GET":
                return 200, sched.store.snapshot()
            if path == "/drain" and method == "POST":
                grace = None
                if body:
                    grace = self._json_body(body).get("grace")
                    grace = None if grace is None else float(grace)
                return 200, await self.drain(grace)
            if path in (
                "/healthz", "/jobs", "/batches", "/metrics", "/store", "/drain",
                "/cache/stats", "/cache/refresh", "/cache/prune",
            ):
                return 405, {"error": f"{method} not allowed on {path}"}
            return 404, {"error": "no such route"}
        except WireError as exc:
            return 400, {"error": str(exc)}
        except DrainingError as exc:
            return 503, {"error": str(exc)}

    @staticmethod
    def _json_body(body: bytes) -> Dict[str, Any]:
        """Decode a JSON object request body (400 on garbage)."""
        if not body:
            raise WireError("request body required")
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError(f"bad JSON body: {exc}") from exc
        if not isinstance(data, dict):
            raise WireError("JSON body must be an object")
        return data

    # ------------------------------------------------------------------
    # server-sent events
    # ------------------------------------------------------------------

    async def _stream_events(
        self, writer: asyncio.StreamWriter, params: Dict[str, list]
    ) -> None:
        """Stream job transitions as SSE, replaying from ``?since=<seq>``."""
        store = self.scheduler.store
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        queue = store.subscribe()
        try:
            since = int(params.get("since", ["0"])[0] or 0)
            for event in store.events_since(since):
                self._write_event(writer, event)
            await writer.drain()
            while True:
                try:
                    event = await asyncio.wait_for(
                        queue.get(), timeout=SSE_KEEPALIVE_SECONDS
                    )
                except asyncio.TimeoutError:
                    writer.write(b": keepalive\n\n")
                else:
                    self._write_event(writer, event)
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            store.unsubscribe(queue)

    @staticmethod
    def _write_event(writer: asyncio.StreamWriter, event: Dict[str, object]) -> None:
        """Queue one SSE frame (``id`` carries the resume sequence)."""
        writer.write(
            f"id: {event['seq']}\ndata: {json.dumps(event)}\n\n".encode("utf-8")
        )

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------

    async def drain(self, grace: Optional[float] = None) -> Dict[str, object]:
        """Drain the scheduler once; concurrent calls share the result."""
        if self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain(grace)
            )
        return await asyncio.shield(self._drain_task)

    async def _drain(self, grace: Optional[float]) -> Dict[str, object]:
        """The single drain pass behind :meth:`drain`."""
        summary = await self.scheduler.drain(grace)
        if self.store_path is not None:
            self.store_path.parent.mkdir(parents=True, exist_ok=True)
            self.store_path.write_text(
                json.dumps(self.scheduler.store.snapshot(), indent=2) + "\n",
                encoding="utf-8",
            )
            summary["store_path"] = str(self.store_path)
        self.done.set()
        return summary


async def start_server(
    app: ServeApp, host: str = "127.0.0.1", port: int = 0
) -> asyncio.base_events.Server:
    """Bind ``app`` on ``host:port`` (port 0 = ephemeral) and start serving."""
    return await asyncio.start_server(app.handle, host=host, port=port)
