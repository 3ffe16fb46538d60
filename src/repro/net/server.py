"""asyncio server multiplexing channel operations over TCP connections.

One connection carries many concurrent operations.  The reader loop
decodes frames and runs each op in a single pass, inline (no task
spawn, no context switch):

* **Completed ops reply at once.**  Most ops against a healthy channel
  complete without suspending — a ``SEND`` into a non-full buffer, a
  ``RECEIVE`` from a non-empty one, every try-op, OPEN/CLOSE/CANCEL —
  and their replies coalesce into the connection's write buffer.
  ``SEND``/``RECEIVE`` start as the channel's own suspending operation
  (:meth:`~repro.aio.AsyncChannel.start`, the native kernels on the c
  tier), not as a try-op followed by a second, parking attempt.  A
  ``BATCH`` frame runs through :meth:`ChannelServer._run_batch`, which
  memoizes registry lookups, applies every sub-op in one pass, folds
  the registry accounting into one clock read, and emits the replies
  as **one batched frame**.
* **Parked ops get a task.**  A ``SEND`` against a full channel or a
  ``RECEIVE`` from an empty one parks in its cell during that pass;
  the reader then admits it (below) and an asyncio task awaits it, so
  a parked ``RECEIVE`` never blocks a pipelined ``SEND`` behind it.
  Until that task first runs, the parked op already holds its cell:
  every path that can cancel it in that window (a ``CANCEL_OP`` in the
  same batch, connection teardown, shutdown, cancellation while the
  reader awaits admission) abandons it through the interrupt protocol,
  and if a resumption won the race the reply is ``OK`` with the result.

Three properties the paper's semantics force on the design:

* **Backpressure is the channel's, not the socket buffer's.**  A
  ``SEND`` against a full channel parks in it — the op holds an
  in-flight slot while parked, and once a connection's
  ``max_inflight`` slots — or, new in v2, ``max_inflight_bytes`` of
  parked frame payload — are taken the reader stops reading.  The slot
  is taken after the park, so a ``SEND`` that completes at once (it
  may be the very op that wakes a parked ``RECEIVE``) never waits
  behind full slots.  The reader also stops while the connection's
  outgoing buffer sits above the transport watermark (a peer that
  stops *reading* its replies cannot keep submitting work).  TCP flow
  control then pushes back on the remote writer: a full channel slows
  the producing client instead of buffering frames unboundedly in
  server memory.

* **Close vs. cancel propagates over the wire (§4.3).**  An op failing
  because the channel was closed reports ``CLOSED{cancelled=false}``
  (buffered elements still drain); a cancelled channel reports
  ``CLOSED{cancelled=true}``.  An op *interrupted* — its connection
  died, the server is shutting down, or the client sent ``CANCEL_OP`` —
  reports ``reason="interrupt"``: the paper's coroutine cancellation,
  which neutralizes the op's cell and leaves the channel itself open.
  A killed connection therefore cancels that connection's parked ops
  without closing any channel other clients are using.

* **Graceful shutdown drains accepted sends.**  ``shutdown(drain=True)``
  stops accepting connections and reading frames, waits for every
  in-flight ``SEND`` to land in a channel, and only then interrupts the
  remaining parked ops and closes connections — an accepted message is
  never dropped on the floor.

Protocol negotiation: a v2 client's first frame is ``HELLO``; the
server answers with the highest mutually supported version (capped by
the ``protocol=`` argument / ``--protocol`` flag, so a server can be
pinned to v1) and tags the connection.  Connections that never say
HELLO are v1 and receive JSON frames exactly as PR 2 shipped them.

Observability rides the shared registry: pass an
:class:`~repro.obs.session.ObsSession` (or a bare ``MetricsRegistry``)
and the server maintains ``connections``, ``inflight_ops``,
``frames_total{op=...}`` (sub-ops of a BATCH counted individually,
plus ``net_batches_total``) and per-channel ``queue_depth`` gauges in
the same registry the contention profiler reports into.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys
from typing import Any, Optional

from ..aio import ParkedOp
from ..errors import (
    ChannelClosedForReceive,
    ChannelClosedForSend,
    ConnectionLostError,
    ProtocolError,
    ReproError,
)
from ..obs.metrics import MetricsRegistry
from .iobuf import CoalescingWriter
from .protocol import (
    MAX_FRAME_BYTES,
    OP_BATCH,
    OP_CANCEL,
    OP_CANCEL_OP,
    OP_CLOSE,
    OP_CLOSED,
    OP_ERROR,
    OP_FORWARD,
    OP_HELLO,
    OP_NAMES,
    OP_OK,
    OP_OK_B,
    OP_OPEN,
    OP_OWNER,
    OP_RECEIVE,
    OP_RECEIVE_B,
    OP_SEND,
    OP_SEND_B,
    OP_TRY_RECEIVE,
    OP_TRY_SEND,
    PROTOCOL_V1,
    PROTOCOL_V2,
    SUPPORTED_VERSIONS,
    Frame,
    FrameDecoder,
    encode_frame_into,
    encode_ok_b_into,
    negotiate_version,
)
from .registry import ChannelRegistry

__all__ = ["ChannelServer", "serve", "main"]

#: Per-connection cap on concurrently executing ops.  Hitting the cap
#: pauses the connection's reader — that is the backpressure mechanism,
#: not an error.
DEFAULT_MAX_INFLIGHT = 256

#: Per-connection cap on the wire bytes held by parked ops.  The op
#: count cap alone lets 256 ops × 16 MiB frames pin 4 GiB; the byte cap
#: bounds memory in payload terms no matter the op mix.
DEFAULT_MAX_INFLIGHT_BYTES = 8 * 1024 * 1024

_READ_CHUNK = 64 * 1024

#: Sentinel: the op targets a channel owned by another cluster worker
#: and must be relayed over the inter-worker connection.
_FORWARD = object()

_BYTES_TYPES = (bytes, bytearray, memoryview)

#: Request ops that address a channel (everything but OPEN/HELLO/CANCEL_OP).
_CHANNEL_OPS = frozenset(
    (OP_SEND, OP_SEND_B, OP_RECEIVE, OP_RECEIVE_B, OP_TRY_SEND, OP_TRY_RECEIVE, OP_CLOSE, OP_CANCEL)
)

#: Ops the graceful drain waits for (accepted sends must land).
_SEND_OPS = frozenset((OP_SEND, OP_SEND_B, OP_TRY_SEND))


class _Parked:
    """A ``SEND``/``RECEIVE`` parked in its channel, with its registry entry.

    The entry's ``inflight`` count stays raised until the op settles, so
    the idle GC never collects a channel that still has parked ops.
    """

    __slots__ = ("op", "entry")

    def __init__(self, op: ParkedOp, entry: Any):
        self.op = op
        self.entry = entry


def _ok_payload(op: int, value: Any) -> dict:
    """The ``OK`` payload of a completed ``SEND``/``RECEIVE``."""

    return {} if op == OP_SEND or op == OP_SEND_B else {"value": value}


def _encode_reply_into(buf: bytearray, version: int, op: int, req_id: int, payload: dict) -> None:
    """Encode one response, binary (``OK_B``) when the peer speaks v2.

    A bare ack (empty payload) or a pure bytes value goes out
    struct-packed; everything else — errors, CLOSED notifications,
    structured results — stays JSON even on v2 (control traffic).
    """

    if version >= PROTOCOL_V2 and op == OP_OK:
        if not payload:
            encode_ok_b_into(buf, req_id, None)
            return
        if len(payload) == 1 and isinstance(payload.get("value"), _BYTES_TYPES):
            encode_ok_b_into(buf, req_id, payload["value"])
            return
    encode_frame_into(buf, op, req_id, payload)


class _Connection:
    """Per-connection state: decoder, in-flight ops, coalesced writes."""

    __slots__ = (
        "conn_id",
        "reader",
        "writer",
        "decoder",
        "slots",
        "inflight",
        "inflight_bytes",
        "bytes_freed",
        "reader_task",
        "preserve_inflight",
        "version",
        "out",
    )

    def __init__(
        self,
        conn_id: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_inflight: int,
        max_frame_bytes: int,
    ):
        self.conn_id = conn_id
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder(max_frame_bytes=max_frame_bytes)
        self.slots = asyncio.Semaphore(max_inflight)
        #: req_id -> (op code, task) for every op still executing.
        self.inflight: dict[int, tuple[int, asyncio.Task]] = {}
        #: Wire bytes held by parked ops (byte-based backpressure).
        self.inflight_bytes = 0
        self.bytes_freed = asyncio.Event()
        self.reader_task: Optional[asyncio.Task] = None
        #: Set during server shutdown so the reader's teardown leaves the
        #: in-flight ops to the drain logic instead of cancelling them.
        self.preserve_inflight = False
        #: Negotiated protocol version (v1 until a HELLO says otherwise).
        self.version = PROTOCOL_V1
        self.out = CoalescingWriter(writer, max_frame_bytes=max_frame_bytes)


class ChannelServer:
    """Serve a :class:`~repro.net.registry.ChannelRegistry` over TCP."""

    def __init__(
        self,
        registry: Optional[ChannelRegistry] = None,
        *,
        obs: Any = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        max_inflight_bytes: int = DEFAULT_MAX_INFLIGHT_BYTES,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        protocol: int = PROTOCOL_V2,
        gc_interval: Optional[float] = None,
        router: Any = None,
        worker_id: Optional[int] = None,
    ):
        metrics = getattr(obs, "metrics", obs)
        if metrics is not None and not isinstance(metrics, MetricsRegistry):
            raise TypeError(f"obs must be an ObsSession or MetricsRegistry, got {type(obs).__name__}")
        if protocol not in SUPPORTED_VERSIONS:
            raise ValueError(f"protocol must be one of {SUPPORTED_VERSIONS}, got {protocol}")
        self.obs = obs
        self.metrics = metrics
        self.registry = registry if registry is not None else ChannelRegistry(metrics=metrics)
        if self.registry.metrics is None and metrics is not None:
            self.registry.metrics = metrics
        self.max_inflight = max_inflight
        self.max_inflight_bytes = max_inflight_bytes
        self.max_frame_bytes = max_frame_bytes
        self.protocol = protocol
        self.gc_interval = gc_interval
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._servers: list[asyncio.base_events.Server] = []
        self._conns: dict[int, _Connection] = {}
        self._next_conn_id = 0
        self._closing = False
        self._gc_task: Optional[asyncio.Task] = None
        #: Cluster hooks: a :class:`~repro.net.cluster.router.ClusterRouter`
        #: (``None`` = standalone server, never forwards) and this
        #: worker's index for the ``worker``-labeled metrics.
        self.router = router
        self.worker_id = worker_id
        #: Plain counters mirrored into the metrics registry when one is
        #: attached — cheap enough to keep unconditionally, so the
        #: supervisor's ``stats`` works without observability enabled.
        self.ops_served = 0
        self.forwards_out = 0
        self.forwards_in = 0
        self._ops_counter = None
        self._fwd_out_counter = None
        self._fwd_in_counter = None
        if metrics is not None and worker_id is not None:
            self._ops_counter = metrics.counter("net_worker_ops_total", worker=worker_id)
            self._fwd_out_counter = metrics.counter(
                "net_worker_forwards_total", worker=worker_id, direction="out"
            )
            self._fwd_in_counter = metrics.counter(
                "net_worker_forwards_total", worker=worker_id, direction="in"
            )

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self, host: str = "127.0.0.1", port: int = 0, *,
                    socks: Optional[list] = None) -> "ChannelServer":
        """Bind and start accepting; ``port=0`` picks an ephemeral port.

        ``socks`` (cluster mode) hands over pre-bound listening sockets
        — e.g. one ``SO_REUSEPORT`` public socket plus a direct per-
        worker socket — and the server accepts on all of them.  ``host``
        / ``port`` are ignored then; ``.port`` reports the first sock's.
        """

        if socks:
            self._servers = [
                await asyncio.start_server(self._on_connection, sock=s) for s in socks
            ]
        else:
            self._servers = [await asyncio.start_server(self._on_connection, host, port)]
        self._server = self._servers[0]
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        if self.metrics is not None:
            # Materialize the parked-lane gauge even if every op ends up
            # completing on the synchronous fast path.
            self.metrics.gauge("inflight_ops")
        if self.gc_interval:
            self._gc_task = asyncio.get_running_loop().create_task(self._gc_loop())
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await asyncio.gather(*(s.serve_forever() for s in self._servers))

    async def shutdown(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the server; with ``drain``, land in-flight sends first.

        Order matters: stop accepting, stop *reading* (no new ops can
        arrive), wait for accepted SENDs to reach their channels, then
        interrupt whatever is still parked (receives, and sends that
        missed the drain ``timeout``) and close the connections.
        """

        self._closing = True
        if self._gc_task is not None:
            self._gc_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._gc_task
        for server in self._servers:
            server.close()
        conns = list(self._conns.values())
        for conn in conns:
            conn.preserve_inflight = True
            if conn.reader_task is not None:
                conn.reader_task.cancel()
        for conn in conns:
            if conn.reader_task is not None:
                with contextlib.suppress(asyncio.CancelledError):
                    await conn.reader_task
        if drain:
            pending = {
                task
                for conn in conns
                for (op, task) in list(conn.inflight.values())
                if op in _SEND_OPS
            }
            # Wait *while sends keep landing*, not unconditionally: with
            # reading stopped, a send still parked once the in-motion
            # channel dynamics quiesce can never land (e.g. a full
            # channel whose canceller's CANCEL_OP sits unread in the
            # socket buffer — possible when a cluster relay races this
            # shutdown).  Waiting on it with no deadline would hang
            # forever; it is interrupted below like any parked op.
            loop = asyncio.get_running_loop()
            deadline = None if timeout is None else loop.time() + timeout
            while pending:
                step = 0.2
                if deadline is not None:
                    step = min(step, max(0.0, deadline - loop.time()))
                done, pending = await asyncio.wait(pending, timeout=step)
                if not done:  # a full window with zero progress: stuck
                    break
                if deadline is not None and loop.time() >= deadline:
                    break
        for conn in conns:
            for _, task in list(conn.inflight.values()):
                task.cancel()
        for conn in conns:
            await self._close_connection(conn)
        for server in self._servers:
            with contextlib.suppress(asyncio.CancelledError):
                await server.wait_closed()

    async def _gc_loop(self) -> None:
        while True:
            await asyncio.sleep(self.gc_interval)
            self.registry.collect_idle()

    # ------------------------------------------------------------------
    # connection handling

    async def _on_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        if self._closing:
            writer.close()
            return
        conn = _Connection(self._next_conn_id, reader, writer, self.max_inflight, self.max_frame_bytes)
        self._next_conn_id += 1
        self._conns[conn.conn_id] = conn
        conn.reader_task = asyncio.current_task()
        if self.metrics is not None:
            # inc/dec rather than set(len(...)): cluster workers share
            # one registry, so the gauge must aggregate across servers.
            self.metrics.gauge("connections").inc()
        try:
            await self._read_frames(conn)
        except asyncio.CancelledError:
            # Not re-raised: a connection-handler task that ends
            # "cancelled" trips asyncio.streams' done-callback on some
            # 3.11 releases.  With ``preserve_inflight`` (server
            # shutdown) teardown is orchestrated by ``shutdown()``;
            # otherwise fall through to the kill-cleanup below.
            if conn.preserve_inflight:
                return
        except ProtocolError as exc:
            self._respond(conn, OP_ERROR, 0, {"message": str(exc)})
        except ConnectionError:
            pass
        finally:
            if not conn.preserve_inflight:
                # Client went away (EOF, reset, or protocol abuse): the
                # paper's §4.3 cancellation — interrupt this connection's
                # parked ops, leave every channel open.
                for _, task in list(conn.inflight.values()):
                    task.cancel()
                await self._close_connection(conn)

    async def _read_frames(self, conn: _Connection) -> None:
        metrics = self.metrics
        while True:
            chunk = await conn.reader.read(_READ_CHUNK)
            if not chunk:
                conn.decoder.eof()  # truncated mid-frame -> ProtocolError
                return
            for frame in conn.decoder.feed(chunk):
                op = frame.op
                if op == OP_BATCH:
                    await self._run_batch(conn, frame)
                    continue
                if metrics is not None:
                    metrics.counter("frames_total", op=frame.op_name).inc()
                if op == OP_HELLO:
                    self._handle_hello(conn, frame)
                    continue
                if op == OP_CANCEL_OP:
                    self._cancel_inflight_op(conn, frame)
                    continue
                if op == OP_FORWARD:
                    await self._dispatch_forward(conn, frame)
                    continue
                if op == OP_OWNER:
                    self._handle_owner(conn, frame)
                    continue
                await self._dispatch(conn, frame)
            # Byte-based backpressure toward slow readers: while this
            # connection's outgoing bytes sit above the transport's
            # watermark, stop admitting new work from it.
            await conn.out.wait_writable()

    def _handle_hello(self, conn: _Connection, frame: Frame) -> None:
        allowed = SUPPORTED_VERSIONS if self.protocol >= PROTOCOL_V2 else (PROTOCOL_V1,)
        conn.version = negotiate_version(frame.payload.get("versions", ()), allowed)
        self._respond(
            conn,
            OP_OK,
            frame.req_id,
            {"version": conn.version, "max_frame": self.max_frame_bytes},
        )

    def _cancel_inflight_op(self, conn: _Connection, frame: Frame) -> None:
        target = frame.payload.get("target")
        entry = conn.inflight.get(target)
        if entry is not None:
            entry[1].cancel()

    def _op_done(
        self, conn: _Connection, frame: Frame, size: int, task: asyncio.Task,
        replied: list, parked: Optional[_Parked],
    ) -> None:
        conn.inflight.pop(frame.req_id, None)
        conn.slots.release()
        conn.inflight_bytes -= size
        conn.bytes_freed.set()
        if self.metrics is not None:
            self.metrics.gauge("inflight_ops").dec()
        if task.cancelled() and not replied[0]:
            # Cancelled before the op coroutine ever ran (e.g. a
            # CANCEL_OP in the same batch/chunk that parked it), so
            # _run_op's own CancelledError path could not answer, and a
            # parked op still holds its cell.
            if parked is not None:
                self._abandon(conn, frame, parked)
            else:
                self._respond(
                    conn, OP_CLOSED, frame.req_id, {"cancelled": True, "reason": "interrupt"}
                )

    def _abandon(self, conn: _Connection, frame: Frame, parked: _Parked) -> None:
        """Cancel a parked op that no task is awaiting, and answer it.

        If a resumption beat the interrupt the op has completed: the
        reply is ``OK`` with its result, never ``CLOSED`` for an element
        that was delivered.
        """

        entry = parked.entry
        try:
            value = parked.op.abandon()
        except asyncio.CancelledError:
            self._respond(conn, OP_CLOSED, frame.req_id, {"cancelled": True, "reason": "interrupt"})
        except Exception as exc:  # noqa: BLE001 - never kill the connection for one op
            op, payload = self._failure_reply(frame, exc)
            self._respond(conn, op, frame.req_id, payload)
        else:
            self.registry.record_op(entry)
            self._respond(conn, OP_OK, frame.req_id, _ok_payload(frame.op, value))
        finally:
            entry.inflight -= 1

    async def _close_connection(self, conn: _Connection) -> None:
        # Let in-flight ops finish writing their teardown notifications,
        # then flush the coalesced buffer before the stream goes away.
        pending = [task for _, task in conn.inflight.values()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self._conns.pop(conn.conn_id, None) is not None and self.metrics is not None:
            self.metrics.gauge("connections").dec()
        with contextlib.suppress(Exception):
            await conn.out.drain()
        conn.out.close()
        conn.decoder.release()
        with contextlib.suppress(Exception):
            conn.writer.close()
            await conn.writer.wait_closed()

    # ------------------------------------------------------------------
    # op execution

    async def _dispatch(self, conn: _Connection, frame: Frame, *,
                        no_forward: bool = False) -> None:
        """Run one non-batched request in one pass: reply, park, or relay."""

        self.ops_served += 1
        if self._ops_counter is not None:
            self._ops_counter.inc()
        try:
            result = self._execute_sync(frame, no_forward=no_forward)
        except Exception as exc:  # noqa: BLE001 - never kill the connection for one op
            op, payload = self._failure_reply(frame, exc)
            self._respond(conn, op, frame.req_id, payload)
            return
        if type(result) is _Parked:
            await self._admit(conn, frame, result)
        elif result is _FORWARD:
            await self._admit(conn, frame, forward=True)
        else:
            self._respond(conn, OP_OK, frame.req_id, result)

    async def _dispatch_forward(self, conn: _Connection, frame: Frame) -> None:
        """Execute a FORWARD from a peer worker against the local registry.

        The inner frame keeps its op and payload but answers under the
        *container's* req_id (the relaying worker's correlation id).  A
        FORWARD is never re-forwarded: if the shard maps disagree and
        this worker does not own the channel, it answers ``OWNER`` so
        the relay can retry against the right peer — no ping-pong.
        """

        inner = frame.payload["frame"]
        name = inner.payload.get("channel", "") if inner.payload else ""
        router = self.router
        if (
            router is not None
            and (inner.op == OP_OPEN or inner.op in _CHANNEL_OPS)
            and not router.is_local(name)
        ):
            self._respond(
                conn, OP_OWNER, frame.req_id,
                {"channel": name, "worker": router.owner_of(name)},
            )
            return
        self.forwards_in += 1
        if self._fwd_in_counter is not None:
            self._fwd_in_counter.inc()
        relabeled = Frame(inner.op, frame.req_id, inner.payload, wire_bytes=frame.wire_bytes)
        await self._dispatch(conn, relabeled, no_forward=True)

    def _handle_owner(self, conn: _Connection, frame: Frame) -> None:
        """Answer an ownership query: which worker owns this channel."""

        name = frame.payload.get("channel", "")
        router = self.router
        if router is None:
            payload = {"channel": name, "worker": self.worker_id or 0, "local": True}
        else:
            payload = {
                "channel": name,
                "worker": router.owner_of(name),
                "local": router.is_local(name),
            }
        self._respond(conn, OP_OK, frame.req_id, payload)

    async def _run_batch(self, conn: _Connection, frame: Frame) -> None:
        """Vectorized dispatch: one pass over a BATCH's sub-ops.

        Registry lookups are memoized per batch, per-entry accounting is
        folded into a single ``record_batch`` (one clock read, one
        queue-depth gauge update per channel), and every synchronously
        completed reply is emitted as one batched frame.  Sub-ops that
        must park are admitted exactly like pipelined singles, keeping
        their own req_ids and interrupt semantics — a mid-batch
        ``CANCEL_OP`` can target an op parked earlier in the same batch.
        """

        subs = frame.payload["frames"]
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("net_batches_total").inc()
            for sub in subs:
                metrics.counter("frames_total", op=sub.op_name).inc()
        touched: dict[str, list] = {}
        out = conn.out
        use_wrap = conn.version >= PROTOCOL_V2
        for sub in subs:
            op = sub.op
            if op == OP_HELLO:
                self._handle_hello(conn, sub)
                continue
            if op == OP_CANCEL_OP:
                self._cancel_inflight_op(conn, sub)
                continue
            if op == OP_BATCH:  # decoder rejects nesting; belt and braces
                continue
            if op == OP_FORWARD:  # peer workers batch their relays too
                await self._dispatch_forward(conn, sub)
                continue
            if op == OP_OWNER:
                self._handle_owner(conn, sub)
                continue
            self.ops_served += 1
            if self._ops_counter is not None:
                self._ops_counter.inc()
            try:
                result = self._execute_sync(sub, touched)
            except Exception as exc:  # noqa: BLE001
                reply_op, payload = self._failure_reply(sub, exc)
            else:
                if type(result) is _Parked:
                    await self._admit(conn, sub, result)
                    continue
                if result is _FORWARD:
                    await self._admit(conn, sub, forward=True)
                    continue
                reply_op, payload = OP_OK, result
            if use_wrap:
                _encode_reply_into(out.batch, conn.version, reply_op, sub.req_id, payload)
                out.frame_queued()
            else:
                out.seal_batch()
                _encode_reply_into(out.buf, conn.version, reply_op, sub.req_id, payload)
                out.frame_written()
        out.seal_batch()
        if touched:
            self.registry.record_batch(touched)

    async def _admit(self, conn: _Connection, frame: Frame, parked: Optional[_Parked] = None,
                     *, forward: bool = False) -> None:
        """Backpressure gate for the parked lane: op slots + byte budget.

        A parked op already holds its cell while the reader waits here;
        if the reader is cancelled meanwhile (connection teardown,
        shutdown), the op is abandoned and answered before the
        cancellation propagates.
        """

        size = frame.wire_bytes
        acquired = False
        try:
            await conn.slots.acquire()
            acquired = True
            while conn.inflight_bytes > 0 and conn.inflight_bytes + size > self.max_inflight_bytes:
                conn.bytes_freed.clear()
                await conn.bytes_freed.wait()
        except BaseException:
            if acquired:
                conn.slots.release()
            if parked is not None:
                self._abandon(conn, frame, parked)
            raise
        conn.inflight_bytes += size
        replied = [False]
        task = asyncio.get_running_loop().create_task(
            self._run_op(conn, frame, replied, parked, forward=forward)
        )
        conn.inflight[frame.req_id] = (frame.op, task)
        task.add_done_callback(
            lambda t, c=conn, f=frame, sz=size, r=replied, pk=parked: self._op_done(
                c, f, sz, t, r, pk
            )
        )
        if self.metrics is not None:
            self.metrics.gauge("inflight_ops").inc()

    async def _run_op(self, conn: _Connection, frame: Frame, replied: list,
                      parked: Optional[_Parked], *, forward: bool = False) -> None:
        try:
            if forward:
                # Relay to the owning worker and echo its exact reply —
                # CLOSED reasons and cancelled flags survive verbatim.
                # Cancelling this task (CANCEL_OP, connection death)
                # cancels the relay, whose own CANCEL_OP interrupts the
                # op on the owner.
                self.forwards_out += 1
                if self._fwd_out_counter is not None:
                    self._fwd_out_counter.inc()
                reply = await self.router.forward(frame)
                replied[0] = True
                # OK_B normalizes to OK: _respond re-picks the lane for
                # the *origin* client's protocol version.
                op = OP_OK if reply.op == OP_OK_B else reply.op
                self._respond(conn, op, frame.req_id, reply.payload)
                return
            # Finish the parked op.  Cancelling this task interrupts it
            # (the waiter's interrupt protocol); a resumption that beat
            # the cancellation completes it instead.
            entry = parked.entry
            try:
                value = await parked.op
            finally:
                entry.inflight -= 1
            self.registry.record_op(entry)
            replied[0] = True
            self._respond(conn, OP_OK, frame.req_id, _ok_payload(frame.op, value))
        except asyncio.CancelledError:
            # Interrupted (connection death, shutdown, CANCEL_OP): tell
            # the client this was a cancellation, not a channel close.
            replied[0] = True
            self._respond(conn, OP_CLOSED, frame.req_id, {"cancelled": True, "reason": "interrupt"})
            raise
        except ConnectionLostError:
            # The owning worker died mid-relay.  The op may or may not
            # have executed there — report the interrupt flavor (never
            # retry a send whose ack was lost).
            replied[0] = True
            self._respond(conn, OP_CLOSED, frame.req_id, {"cancelled": True, "reason": "interrupt"})
        except Exception as exc:  # noqa: BLE001 - never kill the connection for one op
            op, payload = self._failure_reply(frame, exc)
            replied[0] = True
            self._respond(conn, op, frame.req_id, payload)

    def _execute_sync(self, frame: Frame, touched: Optional[dict] = None,
                      *, no_forward: bool = False):
        """Run one op in a single pass: its reply payload, or a ``_Parked``.

        ``SEND``/``RECEIVE`` start as the channel's own suspending
        operation; one that parks returns a ``_Parked`` for the caller
        to admit.  Every other op completes here.

        ``touched`` (batch mode) memoizes registry lookups and defers
        per-op accounting to one :meth:`ChannelRegistry.record_batch`.
        In cluster mode, ops against a channel another worker owns
        return ``_FORWARD`` (suppressed for already-forwarded ops).
        """

        op, p = frame.op, frame.payload
        name = p.get("channel", "")
        router = self.router
        if (
            router is not None
            and not no_forward
            and (op == OP_OPEN or op in _CHANNEL_OPS)
            and not router.is_local(name)
        ):
            return _FORWARD
        if op == OP_OPEN:
            entry = self.registry.open(
                name, int(p.get("capacity", 0)), p.get("overflow", "suspend")
            )
            self.registry.record_op(entry)
            if touched is not None:
                touched[name] = [entry, 0]
            return {"capacity": entry.capacity, "overflow": entry.overflow, "opens": entry.opens}
        if op not in _CHANNEL_OPS:
            raise ProtocolError(f"op {OP_NAMES.get(op, op)} is not a channel operation")
        cached = touched.get(name) if touched is not None else None
        if cached is not None:
            entry = cached[0]
        else:
            entry = self.registry.get(name)
            if touched is not None:
                cached = touched[name] = [entry, 0]
        channel = entry.channel
        if op == OP_SEND or op == OP_SEND_B:
            started = channel.start("send", p.get("value"))
            if type(started) is ParkedOp:
                entry.inflight += 1
                return _Parked(started, entry)
            result: dict = {}
        elif op == OP_RECEIVE or op == OP_RECEIVE_B:
            started = channel.start("receive")
            if type(started) is ParkedOp:
                entry.inflight += 1
                return _Parked(started, entry)
            result = {"value": started}
        elif op == OP_TRY_SEND:
            result = {"success": channel.try_send(p.get("value"))}
        elif op == OP_TRY_RECEIVE:
            ok, value = channel.try_receive()
            result = {"success": ok, "value": value}
        elif op == OP_CLOSE:
            result = {"closed": channel.close()}
        else:  # OP_CANCEL
            result = {"cancelled": channel.cancel()}
        if cached is not None:
            cached[1] += 1
        else:
            self.registry.record_op(entry)
        return result

    def _failure_reply(self, frame: Frame, exc: Exception) -> tuple[int, dict]:
        """Map an op failure to its wire response (§4.3 close-vs-cancel)."""

        if isinstance(exc, (ChannelClosedForSend, ChannelClosedForReceive)):
            name = frame.payload.get("channel", "")
            cancelled = False
            if name in self.registry:
                cancelled = self.registry.get(name).channel.cancelled
            return OP_CLOSED, {"cancelled": cancelled, "reason": "cancel" if cancelled else "close"}
        if isinstance(exc, ReproError):
            return OP_ERROR, {"message": str(exc)}
        return OP_ERROR, {"message": f"{type(exc).__name__}: {exc}"}

    # ------------------------------------------------------------------
    # response writing

    def _respond(self, conn: _Connection, op: int, req_id: int, payload: dict) -> None:
        """Queue one response into the connection's coalesced writer.

        Synchronous: the frame lands in the reusable output buffer and
        the flush scheduler hands it to the transport on watermark or
        the next loop tick.  Callers never await a per-frame drain —
        write-side backpressure is applied in the reader loop instead.
        """

        out = conn.out
        if out.closed:
            return
        out.seal_batch()
        _encode_reply_into(out.buf, conn.version, op, req_id, payload)
        out.frame_written()


async def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    registry: Optional[ChannelRegistry] = None,
    obs: Any = None,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    max_inflight_bytes: int = DEFAULT_MAX_INFLIGHT_BYTES,
    max_frame_bytes: int = MAX_FRAME_BYTES,
    protocol: int = PROTOCOL_V2,
    gc_interval: Optional[float] = None,
) -> ChannelServer:
    """Start a :class:`ChannelServer`; returns once it is listening.

    The returned server exposes ``.host``/``.port`` (useful with
    ``port=0``) and must be stopped with ``await server.shutdown()``.
    ``protocol=1`` pins the server to the JSON protocol (it still
    answers HELLO, negotiating every peer down to v1).
    """

    server = ChannelServer(
        registry,
        obs=obs,
        max_inflight=max_inflight,
        max_inflight_bytes=max_inflight_bytes,
        max_frame_bytes=max_frame_bytes,
        protocol=protocol,
        gc_interval=gc_interval,
    )
    return await server.start(host, port)


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point: ``python -m repro.net [--host H] [--port P]``.

    Prints the bound port as the first stdout line (so scripts can
    capture an ephemeral port), then serves until interrupted.
    """

    parser = argparse.ArgumentParser(
        prog="python -m repro.net",
        description="Serve named repro channels over TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 picks an ephemeral port")
    parser.add_argument("--protocol", type=int, choices=sorted(SUPPORTED_VERSIONS),
                        default=PROTOCOL_V2,
                        help="highest wire protocol version to negotiate (1 = JSON only)")
    parser.add_argument("--shards", type=int, default=8, help="registry shard count")
    parser.add_argument("--idle-seconds", type=float, default=300.0, help="idle-channel GC threshold")
    parser.add_argument("--gc-interval", type=float, default=30.0, help="seconds between GC slices (0 disables)")
    parser.add_argument("--max-inflight", type=int, default=DEFAULT_MAX_INFLIGHT,
                        help="per-connection in-flight op cap (backpressure threshold)")
    parser.add_argument("--max-inflight-bytes", type=int, default=DEFAULT_MAX_INFLIGHT_BYTES,
                        help="per-connection cap on bytes held by parked ops")
    parser.add_argument("--max-frame-mib", type=float, default=MAX_FRAME_BYTES / (1024 * 1024),
                        help="reject frames larger than this many MiB")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (>1 serves an SO_REUSEPORT cluster)")
    args = parser.parse_args(argv)

    if args.workers > 1:
        from .cluster.supervisor import supervisor_main

        return supervisor_main(args)

    async def _run() -> None:
        registry = ChannelRegistry(args.shards, idle_seconds=args.idle_seconds)
        server = await serve(
            args.host,
            args.port,
            registry=registry,
            max_inflight=args.max_inflight,
            max_inflight_bytes=args.max_inflight_bytes,
            max_frame_bytes=int(args.max_frame_mib * 1024 * 1024),
            protocol=args.protocol,
            gc_interval=args.gc_interval or None,
        )
        # First line: the public port (scripted harnesses `head -1` it).
        # Then one machine-parseable line per worker so tests can attach
        # to a specific worker; a single-worker server is worker 0.
        print(server.port, flush=True)
        print(f"worker 0 {server.port}", flush=True)
        print(
            f"repro.net: serving protocol v{args.protocol} on {server.host}:{server.port}",
            file=sys.stderr,
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.shutdown(drain=True, timeout=5.0)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("repro.net: interrupted, shut down", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI net-smoke
    sys.exit(main())
