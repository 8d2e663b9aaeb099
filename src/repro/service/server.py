"""Stdlib-only asyncio HTTP front door for the mining service.

One :class:`QueryService` owns a :class:`~repro.service.registry.MinerRegistry`
(warm sessions + whole-result cache), a bounded worker pool, and the
admission/budget policy; :func:`QueryService.serve` exposes it over a
hand-rolled HTTP/1.1 loop on ``asyncio.start_server`` — no third-party
web framework, matching the repo's stdlib-only rule.

Endpoints (all JSON; every response carries ``Connection: close``):

* ``GET  /health`` — liveness probe.
* ``GET  /stats`` — server counters + registry/cache/pool snapshots.
* ``GET  /graphs`` — the loaded-graph pool with per-graph session stats.
* ``POST /graphs`` — load a built-in dataset:
  ``{"name": ..., "dataset": ..., "scale": ...}``.
* ``DELETE /graphs/<name>`` — evict a graph (and its cached results).
* ``POST /motifs | /match | /fsm | /cliques`` — run one query against a
  loaded graph (``{"graph": ..., ...params}``, see
  :mod:`repro.service.queries`); ``POST /query`` is the same with
  ``"workload"`` in the body.

**Admission control** keeps one pathological query from starving the
pool: at most ``max_concurrent`` queries run (a thread pool the asyncio
loop dispatches into), at most ``max_pending`` more may wait, and
everything beyond that is rejected immediately with a 429.  Every
admitted query runs with the server's default deadline/embedding budgets
unless the request sets its own; a tripped budget surfaces as **422**
with the structured trip (kind/limit/spent) — a client error, because
the fix is narrowing the query or raising its budget.

**Streaming**: any query with ``"stream": true`` answers as NDJSON —
one meta row, then one row per result item — written incrementally with
backpressure (``await drain()`` per chunk), riding the same result-cache
payloads as unary responses.

**Disconnect cancellation**: every query arms a
:class:`~repro.core.budget.CancelFlag` watched by a per-connection EOF
probe; a client that hangs up mid-run stops the engine at its next
mid-step probe (:class:`~repro.core.budget.RunCancelled`) instead of
finishing work nobody will read — counted in
``stats.cancelled_disconnects``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable
from urllib.parse import unquote, urlsplit

from ..core.budget import BudgetExceeded, CancelFlag, RunCancelled
from .queries import WORKLOADS, parse_request, run_query, stream_rows
from .registry import MinerRegistry, ServiceError, UnknownGraphError

#: Largest request body the server will read (requests are small JSON).
MAX_BODY_BYTES = 1 << 20
#: Largest request head (request line + headers).
MAX_HEAD_BYTES = 1 << 16

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


@dataclass
class ServiceStats:
    """Server-level counters (the ``/stats`` endpoint's top block)."""

    #: HTTP requests accepted (any route, any outcome).
    requests: int = 0
    #: Queries that ran (or were served from cache) successfully.
    queries_ok: int = 0
    #: Queries rejected at admission (pool + wait queue full).
    rejected_busy: int = 0
    #: Queries stopped by a tripped deadline/embedding budget.
    budget_rejections: int = 0
    #: Requests answered with a 4xx other than busy/budget.
    client_errors: int = 0
    #: Requests answered with a 500.
    server_errors: int = 0
    #: NDJSON rows written by streaming responses.
    streamed_rows: int = 0
    #: Runs aborted because their client disconnected mid-query.
    cancelled_disconnects: int = 0


class QueryService:
    """The service's policy + dispatch layer (transport-independent).

    ``max_concurrent`` bounds simultaneously *running* queries (the
    worker-pool width); ``max_pending`` bounds queries waiting for a
    slot; ``default_deadline_seconds``/``default_max_embeddings`` arm
    every admitted query that does not bring its own budgets.

    ``checkpoint_root``, when set, snapshots every cache-miss query's
    engine run into a unique directory under it (one per admitted run,
    ``query-<n>``) — an operator can ``repro resume`` a run that died
    with the server (see docs/checkpoint.md).
    """

    def __init__(
        self,
        registry: MinerRegistry | None = None,
        *,
        max_concurrent: int = 4,
        max_pending: int = 16,
        default_deadline_seconds: float | None = None,
        default_max_embeddings: int | None = None,
        checkpoint_root: str | None = None,
    ) -> None:
        if max_concurrent < 1:
            raise ServiceError(
                f"max_concurrent must be >= 1 (got {max_concurrent!r})"
            )
        if max_pending < 0:
            raise ServiceError(
                f"max_pending must be >= 0 (got {max_pending!r})"
            )
        self.registry = registry if registry is not None else MinerRegistry()
        self.max_concurrent = max_concurrent
        self.max_pending = max_pending
        self.default_deadline_seconds = default_deadline_seconds
        self.default_max_embeddings = default_max_embeddings
        self.checkpoint_root = checkpoint_root
        #: Monotonic per-run sequence for unique checkpoint directories
        #: (only the single-threaded event loop bumps it).
        self._run_seq = 0
        self.stats = ServiceStats()
        #: Queries admitted and not yet finished (running + waiting).
        #: Only the (single-threaded) event loop touches it, so the
        #: check-then-increment at admission is race-free by construction.
        self._in_flight = 0
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrent, thread_name_prefix="repro-query"
        )

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def _apply_default_budgets(self, spec):
        overrides = {}
        if spec.deadline_seconds is None and self.default_deadline_seconds:
            overrides["deadline_seconds"] = self.default_deadline_seconds
        if spec.max_embeddings is None and self.default_max_embeddings:
            overrides["max_embeddings"] = self.default_max_embeddings
        return dataclasses.replace(spec, **overrides) if overrides else spec

    async def execute(
        self,
        workload: str,
        body: dict,
        *,
        cancel: CancelFlag | None = None,
    ) -> dict[str, Any]:
        """Parse, admit, and run one query; return the response envelope.

        ``cancel``, when given, is armed on the engine run — the HTTP
        transport sets it from a disconnect watcher so an abandoned
        query stops burning the pool at its next mid-step probe.

        Raises the typed errors the transport maps to status codes:
        :class:`ServiceError` (400), :class:`UnknownGraphError` (404),
        :class:`~repro.core.budget.BudgetExceeded` (422),
        :class:`~repro.core.budget.RunCancelled` (no response — the
        client is gone), and :class:`_Busy` (429).
        """
        spec = parse_request(workload, body)
        graph_name = body.get("graph")
        if not isinstance(graph_name, str) or not graph_name:
            raise ServiceError(
                'query requests need a "graph": the name of a loaded graph '
                "(GET /graphs lists them)"
            )
        spec = self._apply_default_budgets(spec)
        if self._in_flight >= self.max_concurrent + self.max_pending:
            self.stats.rejected_busy += 1
            raise _Busy(
                f"server busy: {self.max_concurrent} queries running and "
                f"{self.max_pending} waiting — retry later"
            )
        checkpoint_dir = None
        if self.checkpoint_root is not None:
            self._run_seq += 1
            checkpoint_dir = os.path.join(
                self.checkpoint_root, f"query-{self._run_seq:06d}"
            )
        self._in_flight += 1
        started = time.perf_counter()
        try:
            loop = asyncio.get_running_loop()
            payload, hit = await loop.run_in_executor(
                self._executor,
                lambda: self.registry.cached(
                    graph_name,
                    spec.query_signature(),
                    spec.config_signature(),
                    lambda miner: run_query(
                        miner,
                        spec,
                        cancel=cancel,
                        checkpoint_dir=checkpoint_dir,
                    ),
                ),
            )
        finally:
            self._in_flight -= 1
        self.stats.queries_ok += 1
        return {
            "graph": graph_name,
            "cache": {"hit": hit},
            "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
            "stream": spec.stream,
            "result": payload,
        }

    # ------------------------------------------------------------------
    # Registry path
    # ------------------------------------------------------------------
    async def load_graph(self, body: dict) -> dict[str, Any]:
        if not isinstance(body, dict):
            raise ServiceError("request body must be a JSON object")
        unknown = set(body) - {"name", "dataset", "scale"}
        if unknown:
            raise ServiceError(
                f"unknown keys {sorted(unknown)} — POST /graphs takes "
                '"name", optional "dataset" (defaults to name), and '
                'optional "scale"'
            )
        name = body.get("name")
        if not isinstance(name, str) or not name:
            raise ServiceError('"name" must be a non-empty string')
        dataset = body.get("dataset")
        if dataset is not None and not isinstance(dataset, str):
            raise ServiceError(f'"dataset" must be a string (got {dataset!r})')
        scale = body.get("scale")
        if scale is not None and (
            isinstance(scale, bool)
            or not isinstance(scale, (int, float))
            or not scale > 0
        ):
            raise ServiceError(f'"scale" must be a positive number (got {scale!r})')
        loop = asyncio.get_running_loop()
        # Dataset generation can take a while — keep the loop responsive.
        await loop.run_in_executor(
            self._executor,
            lambda: self.registry.load_dataset(
                name, dataset=dataset, scale=scale
            ),
        )
        return {"loaded": name, **self.registry.describe()["graphs"][name]}

    def stats_payload(self) -> dict[str, Any]:
        return {
            "server": vars(self.stats),
            "admission": {
                "in_flight": self._in_flight,
                "max_concurrent": self.max_concurrent,
                "max_pending": self.max_pending,
                "default_deadline_seconds": self.default_deadline_seconds,
                "default_max_embeddings": self.default_max_embeddings,
            },
            "registry": vars(self.registry.cache_info()),
            **self.registry.describe(),
        }

    # ------------------------------------------------------------------
    # HTTP transport
    # ------------------------------------------------------------------
    async def serve(self, host: str = "127.0.0.1", port: int = 8080):
        """Bind and return an ``asyncio.Server`` handling this service."""
        return await asyncio.start_server(self._handle_connection, host, port)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await _read_request(reader)
            except _HttpError as exc:
                await _send_json(writer, exc.status, {"error": exc.payload})
                return
            self.stats.requests += 1
            try:
                await self._dispatch(method, path, body, reader, writer)
            except RunCancelled:
                # The client is gone — nobody to answer; the run stopped
                # at its next probe instead of burning a pool slot.
                self.stats.cancelled_disconnects += 1
            except _HttpError as exc:
                self.stats.client_errors += 1
                await _send_json(writer, exc.status, {"error": exc.payload})
            except _Busy as exc:
                await _send_json(
                    writer, 429, {"error": {"type": "busy", "message": str(exc)}}
                )
            except BudgetExceeded as exc:
                self.stats.budget_rejections += 1
                await _send_json(
                    writer,
                    422,
                    {
                        "error": {
                            "type": "budget_exceeded",
                            "kind": exc.kind,
                            "limit": exc.limit,
                            "spent": exc.spent,
                            "message": str(exc),
                        }
                    },
                )
            except UnknownGraphError as exc:
                self.stats.client_errors += 1
                await _send_json(
                    writer,
                    404,
                    {"error": {"type": "unknown_graph", "message": str(exc)}},
                )
            except ValueError as exc:
                # ServiceError, SessionError, config validation — all the
                # loud "you asked wrong" family.
                self.stats.client_errors += 1
                await _send_json(
                    writer,
                    400,
                    {"error": {"type": "bad_request", "message": str(exc)}},
                )
            except Exception as exc:  # noqa: BLE001 - last-resort 500
                self.stats.server_errors += 1
                await _send_json(
                    writer,
                    500,
                    {
                        "error": {
                            "type": "internal",
                            "message": f"{type(exc).__name__}: {exc}",
                        }
                    },
                )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass

    async def _dispatch(
        self,
        method: str,
        path: str,
        body: dict | None,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        if method == "GET" and path == "/health":
            await _send_json(writer, 200, {"status": "ok"})
            return
        if method == "GET" and path == "/stats":
            await _send_json(writer, 200, self.stats_payload())
            return
        if method == "GET" and path == "/graphs":
            await _send_json(writer, 200, self.registry.describe())
            return
        if method == "POST" and path == "/graphs":
            await _send_json(writer, 200, await self.load_graph(body or {}))
            return
        if method == "DELETE" and path.startswith("/graphs/"):
            name = unquote(path[len("/graphs/"):])
            self.registry.evict(name)
            return await _send_json(writer, 200, {"evicted": name})
        if method == "POST" and (
            path == "/query" or path.lstrip("/") in WORKLOADS
        ):
            body = body or {}
            if path == "/query":
                workload = body.pop("workload", None)
                if not isinstance(workload, str):
                    raise ServiceError(
                        'POST /query needs a "workload" key — one of '
                        f"{', '.join(WORKLOADS)} (or POST /<workload> "
                        "directly)"
                    )
            else:
                workload = path.lstrip("/")
            cancel = CancelFlag()
            watcher = asyncio.ensure_future(
                _watch_disconnect(reader, cancel)
            )
            try:
                envelope = await self.execute(workload, body, cancel=cancel)
            finally:
                watcher.cancel()
            if envelope["stream"]:
                await self._send_ndjson(writer, envelope)
            else:
                await _send_json(writer, 200, envelope)
            return
        raise _noroute(method, path)

    async def _send_ndjson(
        self, writer: asyncio.StreamWriter, envelope: dict[str, Any]
    ) -> None:
        """Incremental NDJSON response: meta row, then one row per item,
        drained per row so a slow client applies backpressure instead of
        buffering the whole result set."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        rows = stream_rows(envelope["result"])
        meta = next(rows)
        meta["meta"].update(
            graph=envelope["graph"],
            cache=envelope["cache"],
            elapsed_ms=envelope["elapsed_ms"],
        )
        writer.write(_json_line(meta))
        for row in rows:
            writer.write(_json_line(row))
            self.stats.streamed_rows += 1
            await writer.drain()
        await writer.drain()


async def _watch_disconnect(
    reader: asyncio.StreamReader, cancel: CancelFlag
) -> None:
    """Set ``cancel`` when the client hangs up mid-query.

    After the request is fully read, a well-behaved client sends nothing
    more (every response carries ``Connection: close``), so the next
    read completing means EOF — the client disconnected.  The engine's
    mid-step probes then raise :class:`RunCancelled` within ~512
    embeddings instead of finishing a run nobody will read.
    """
    try:
        data = await reader.read(1)
    except (ConnectionError, OSError):
        data = b""
    if not data:
        cancel.set()


class _Busy(RuntimeError):
    """Admission control rejected the query (maps to 429)."""


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        self.status = status
        self.payload = {"type": "http", "message": message}
        super().__init__(message)


def _noroute(method: str, path: str) -> _HttpError:
    return _HttpError(
        404,
        f"no route for {method} {path} — endpoints: GET /health, "
        "GET /stats, GET /graphs, POST /graphs, DELETE /graphs/<name>, "
        f"POST /query, POST /{'|/'.join(WORKLOADS)}",
    )


def _json_line(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8") + b"\n"


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict | None]:
    """Parse one HTTP/1.1 request; return (method, path, JSON body)."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError as exc:  # pragma: no cover - huge head
        raise _HttpError(413, "request head too large") from exc
    except asyncio.IncompleteReadError as exc:
        raise _HttpError(400, "truncated request") from exc
    if len(head) > MAX_HEAD_BYTES:
        raise _HttpError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise _HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    method = method.upper()
    if method not in ("GET", "POST", "DELETE"):
        raise _HttpError(405, f"method {method} not supported")
    path = urlsplit(target).path or "/"
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        length = -1
    if length < 0:
        raise _HttpError(400, f"bad Content-Length {length_text!r}")
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, f"request body over {MAX_BODY_BYTES} bytes")
    body: dict | None = None
    if length:
        try:
            raw = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise _HttpError(400, "truncated request body") from exc
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}") from exc
    return method, path, body


async def _send_json(
    writer: asyncio.StreamWriter, status: int, obj: Any
) -> None:
    payload = json.dumps(obj, sort_keys=True).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    writer.write(
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n".encode("latin-1") + payload
    )
    await writer.drain()


# ----------------------------------------------------------------------
# Hosting helpers
# ----------------------------------------------------------------------
@dataclass
class ServerHandle:
    """A service bound in a background thread (tests, examples, benches).

    ``address`` is the bound ``(host, port)``; :meth:`stop` shuts the
    server, loop, worker pool, and thread down cleanly.
    """

    service: QueryService
    address: tuple[str, int]
    _loop: asyncio.AbstractEventLoop = field(repr=False)
    _stop_event: asyncio.Event = field(repr=False)
    _thread: Any = field(repr=False)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def stop(self) -> None:
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30)
        self.service.close()


def start_in_background(
    service: QueryService, host: str = "127.0.0.1", port: int = 0
) -> ServerHandle:
    """Run ``service`` on a daemon thread; return once the port is bound.

    ``port=0`` picks a free ephemeral port — the in-process harness the
    end-to-end tests, the quickstart example, and the service benchmark
    all share.
    """
    import concurrent.futures
    import threading

    started: "concurrent.futures.Future[tuple]" = concurrent.futures.Future()

    async def _main() -> None:
        stop_event = asyncio.Event()
        try:
            server = await service.serve(host, port)
        except OSError as exc:
            started.set_exception(exc)
            return
        address = server.sockets[0].getsockname()[:2]
        started.set_result((address, asyncio.get_running_loop(), stop_event))
        async with server:
            await stop_event.wait()

    thread = threading.Thread(
        target=lambda: asyncio.run(_main()),
        name="repro-service",
        daemon=True,
    )
    thread.start()
    address, loop, stop_event = started.result(timeout=30)
    return ServerHandle(
        service=service,
        address=address,
        _loop=loop,
        _stop_event=stop_event,
        _thread=thread,
    )


async def run_forever(
    service: QueryService, host: str = "127.0.0.1", port: int = 8080
) -> None:
    """Serve until cancelled (the CLI ``serve`` subcommand's main loop)."""
    server = await service.serve(host, port)
    address = server.sockets[0].getsockname()
    print(f"repro service listening on http://{address[0]}:{address[1]}")
    print(f"graphs loaded: {', '.join(service.registry.names()) or 'none'}")
    async with server:
        await server.serve_forever()


__all__ = [
    "MAX_BODY_BYTES",
    "QueryService",
    "ServerHandle",
    "ServiceStats",
    "run_forever",
    "start_in_background",
]
