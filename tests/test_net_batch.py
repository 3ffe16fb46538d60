"""Protocol v2 end-to-end: BATCH framing, negotiation, byte backpressure.

Everything here runs real sockets against a real server, mirroring
``test_net_server.py``.  The BATCH cases cover the shapes the decoder
and the vectorized dispatch must agree on — empty, single-op, cap-sized,
and batches carrying a mid-batch CANCEL_OP — plus the mixed-version
scenario (a v1 JSON peer and a v2 binary peer sharing one channel) and
a deterministic proof that the parked lane's byte budget bounds server
memory no matter how fast a client pours oversized sends in.
"""

import asyncio

import pytest

from repro.errors import ConnectionLostError, ProtocolError
from repro.net import ChannelServer, PROTOCOL_V1, PROTOCOL_V2, connect, serve
from repro.net.protocol import (
    OP_BATCH,
    OP_CANCEL_OP,
    OP_CLOSED,
    OP_OK,
    OP_OK_B,
    OP_OPEN,
    OP_RECEIVE,
    OP_SEND,
    OP_TRY_RECEIVE,
    OP_TRY_SEND,
    Frame,
    FrameDecoder,
    encode_batch,
    encode_frame,
)


def run(coro, timeout=15):
    async def guarded():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(guarded())


class TestBatchFraming:
    """BATCH containers on the wire, against a live server."""

    def test_empty_batch_is_a_noop(self):
        async def main():
            server = await serve("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(encode_batch([]))
                # The server must survive it and keep serving: a normal
                # OPEN on the same connection still answers.
                writer.write(encode_frame(OP_OPEN, 7, {"channel": "e", "capacity": 1}))
                await writer.drain()
                decoder = FrameDecoder()
                while True:
                    chunk = await reader.read(4096)
                    assert chunk, "server closed instead of answering"
                    frames = list(decoder.feed(chunk))
                    if frames:
                        return frames
            finally:
                writer.close()
                await server.shutdown()

        frames = run(main())
        assert [f.req_id for f in frames] == [7]
        assert frames[0].op == OP_OK

    def test_single_op_batch_round_trips(self):
        async def main():
            server = await serve("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(
                    encode_batch([Frame(OP_OPEN, 3, {"channel": "s", "capacity": 2})])
                )
                await writer.drain()
                decoder = FrameDecoder()
                while True:
                    frames = list(decoder.feed(await reader.read(4096)))
                    if frames:
                        return frames
            finally:
                writer.close()
                await server.shutdown()

        frames = run(main())
        assert frames[0].op == OP_OK and frames[0].req_id == 3

    def test_max_size_batch_hits_the_frame_cap(self):
        cap = 4096
        filler = Frame(OP_SEND, 1, {"channel": "c", "value": "x" * 256})
        subs = [filler] * 64
        with pytest.raises(ProtocolError):
            encode_batch(subs, max_frame_bytes=cap)

    def test_nested_batch_rejected_by_decoder(self):
        inner = encode_batch([Frame(OP_OPEN, 1, {"channel": "n", "capacity": 0})])
        outer = bytearray(encode_batch([]))
        # Splice the inner BATCH in as a sub-frame of an outer BATCH.
        import struct

        body = inner
        length = 9 + len(body)
        outer = struct.pack("!IBQ", length, OP_BATCH, 0) + body
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="nested"):
            list(decoder.feed(outer))

    def test_batched_replies_correlate_per_op(self):
        """Pipelined v2 requests come back per-req_id even when the
        server coalesces its replies into one BATCH frame."""

        async def main():
            server = await serve("127.0.0.1", 0)
            client = await connect("127.0.0.1", server.port)
            try:
                assert client.version == PROTOCOL_V2
                ch = await client.channel("pipe", capacity=64)
                sends = [ch.send(b"m%d" % i) for i in range(32)]
                await asyncio.gather(*sends)
                got = await asyncio.gather(*(ch.receive() for _ in range(32)))
                return sorted(got)
            finally:
                await client.close()
                await server.shutdown()

        got = run(main())
        assert got == sorted(b"m%d" % i for i in range(32))

    def test_mid_batch_cancel_op_interrupts_parked_op(self):
        """A CANCEL_OP later in the same BATCH interrupts an op that the
        batch itself parked — per-op identity survives batching."""

        async def main():
            server = await serve("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(encode_frame(OP_OPEN, 1, {"channel": "mb", "capacity": 0}))
                await writer.drain()
                decoder = FrameDecoder()
                while not list(decoder.feed(await reader.read(4096))):
                    pass
                # One batch: a rendezvous SEND (parks: no receiver) then
                # a CANCEL_OP aimed at that same send.
                writer.write(
                    encode_batch(
                        [
                            Frame(OP_SEND, 2, {"channel": "mb", "value": 1}),
                            Frame(OP_CANCEL_OP, 3, {"target": 2}),
                        ]
                    )
                )
                await writer.drain()
                while True:
                    frames = list(decoder.feed(await reader.read(4096)))
                    if frames:
                        return frames
            finally:
                writer.close()
                await server.shutdown()

        frames = run(main())
        assert frames[0].req_id == 2
        assert frames[0].op == OP_CLOSED
        assert frames[0].payload.get("reason") == "interrupt"


class TestMixedVersionPeers:
    """A v1 JSON peer and a v2 binary peer sharing one channel."""

    def test_v1_and_v2_clients_interoperate(self):
        async def main():
            server = await serve("127.0.0.1", 0)
            v1 = await connect("127.0.0.1", server.port, protocol=1)
            v2 = await connect("127.0.0.1", server.port)
            try:
                assert v1.version == PROTOCOL_V1
                assert v2.version == PROTOCOL_V2
                ch1 = await v1.channel("mix", capacity=8)
                ch2 = await v2.channel("mix", capacity=8)
                # v2 sends bytes (struct-packed SEND_B); v1 receives them
                # through the JSON lane's base64 marker.
                await ch2.send(b"\x00binary\xff")
                assert await ch1.receive() == b"\x00binary\xff"
                # v1 sends bytes the other way (JSON + base64 on the
                # wire); v2 receives them struct-packed.
                await ch1.send(b"from-v1")
                assert await ch2.receive() == b"from-v1"
                # Structured payloads stay JSON in both directions.
                await ch2.send({"k": [1, 2]})
                assert await ch1.receive() == {"k": [1, 2]}
                return True
            finally:
                await v1.close()
                await v2.close()
                await server.shutdown()

        assert run(main())

    def test_server_pinned_to_v1_negotiates_down(self):
        async def main():
            server = await serve("127.0.0.1", 0, protocol=1)
            client = await connect("127.0.0.1", server.port)
            try:
                assert client.version == PROTOCOL_V1
                ch = await client.channel("down", capacity=2)
                await ch.send(b"still works")
                return await ch.receive()
            finally:
                await client.close()
                await server.shutdown()

        assert run(main()) == b"still works"

    def test_client_falls_back_when_server_rejects_hello(self):
        """Against a legacy server that errors on HELLO, connect() must
        reconnect pinned to v1 instead of failing."""

        from repro.net.protocol import OP_ERROR

        hellos_seen = 0

        async def legacy(reader, writer):
            # Pre-v2 behavior: unknown op -> ERROR; known ops -> OK.
            nonlocal hellos_seen
            decoder = FrameDecoder()
            try:
                while True:
                    chunk = await reader.read(4096)
                    if not chunk:
                        return
                    for frame in decoder.feed(chunk):
                        if frame.op == OP_OPEN:
                            writer.write(encode_frame(OP_OK, frame.req_id, {"capacity": 0}))
                        else:
                            hellos_seen += 1
                            writer.write(
                                encode_frame(OP_ERROR, frame.req_id, {"message": "unknown op"})
                            )
                        await writer.drain()
            except ConnectionError:
                pass

        async def main():
            server = await asyncio.start_server(legacy, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await connect("127.0.0.1", port)
            try:
                assert client.version == PROTOCOL_V1
                assert hellos_seen == 1
                # The fallback connection speaks plain v1.
                await client.channel("legacy", capacity=0)
                return True
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        assert run(main())


class TestByteBackpressure:
    """The parked lane's byte budget bounds server memory."""

    def test_inflight_bytes_stay_bounded_with_no_receiver(self):
        """A client pours 64 KiB sends into a rendezvous channel nobody
        reads; every send parks, and the admission gate must stop
        accepting new frames once ``max_inflight_bytes`` of parked
        payload is held — regardless of the op-count cap."""

        payload = b"z" * (64 * 1024)
        budget = 256 * 1024  # 4 parked sends fit, the rest must wait

        async def main():
            server = await serve(
                "127.0.0.1", 0, max_inflight=1024, max_inflight_bytes=budget
            )
            client = await connect("127.0.0.1", server.port)
            try:
                ch = await client.channel("slow", capacity=0)
                sends = [
                    asyncio.create_task(ch.send(payload)) for _ in range(16)
                ]
                await asyncio.sleep(0.3)
                conns = list(server._conns.values())
                held = max(c.inflight_bytes for c in conns)
                parked = sum(len(c.inflight) for c in conns)
                # No parked frame exceeds the budget plus one frame of
                # slack (the op that tipped it over the watermark).
                assert held <= budget + len(payload) + 1024
                assert parked >= 2  # some genuinely parked
                for t in sends:
                    t.cancel()
                await asyncio.gather(*sends, return_exceptions=True)
                return True
            finally:
                await client.close()
                await server.shutdown(drain=False)

        assert run(main(), timeout=30)

    def test_reply_bytes_apply_backpressure_to_slow_reader(self):
        """A peer that submits receives but never reads its replies must
        not make the server buffer reply bytes without bound: the reader
        loop stops admitting once the transport watermark is hit."""

        async def main():
            server = await serve("127.0.0.1", 0)
            feeder = await connect("127.0.0.1", server.port)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                ch = await feeder.channel("spray", capacity=-1)
                big = b"y" * 8192
                for _ in range(256):
                    await ch.send(big)
                # Raw v1 peer: pipeline many receives, then stop reading.
                writer.write(encode_frame(OP_OPEN, 1, {"channel": "spray", "capacity": -1}))
                reqs = bytearray()
                for i in range(256):
                    reqs += encode_frame(3, 10 + i, {"channel": "spray"})  # OP_RECEIVE
                writer.write(bytes(reqs))
                await writer.drain()
                await asyncio.sleep(0.5)
                conn = next(
                    c for c in server._conns.values() if c.version == PROTOCOL_V1
                )
                # The coalesced out-buffer must be bounded by the flush
                # watermark machinery, not holding all ~2 MiB of replies.
                pending = conn.out.pending_bytes
                assert pending < 2 * 1024 * 1024
                return True
            finally:
                writer.close()
                await feeder.close()
                await server.shutdown(drain=False)

        assert run(main(), timeout=30)


class TestLoadgenSchema:
    """The A/B-era report rows are self-describing."""

    def test_report_carries_protocol_arm_fields(self):
        from repro.net.loadgen import run_load

        async def main():
            server = await serve("127.0.0.1", 0)
            try:
                return await run_load(
                    "127.0.0.1",
                    server.port,
                    producers=1,
                    consumers=1,
                    ops=40,
                    warmup=4,
                    window=4,
                )
            finally:
                await server.shutdown()

        row = run(main())
        assert row["protocol"] == PROTOCOL_V2
        assert row["batch"] is True
        assert row["window"] == 4
        assert row["warmup_ops_per_conn"] == 4
        assert row["ops_completed"] == 40

    def test_v1_arm_reports_protocol_1(self):
        from repro.net.loadgen import run_load

        async def main():
            server = await serve("127.0.0.1", 0)
            try:
                return await run_load(
                    "127.0.0.1",
                    server.port,
                    producers=1,
                    consumers=1,
                    ops=40,
                    protocol=1,
                    batch=False,
                    window=1,
                    warmup=2,
                )
            finally:
                await server.shutdown()

        row = run(main())
        assert row["protocol"] == PROTOCOL_V1
        assert row["batch"] is False
        assert row["window"] == 1
        assert row["ops_completed"] == 40


async def _raw_client(server):
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    return reader, writer, FrameDecoder()


async def _replies(reader, decoder, count):
    """Read until ``count`` replies (or EOF); returns them by req_id."""

    got = {}
    while len(got) < count:
        chunk = await reader.read(4096)
        if not chunk:
            break
        for frame in decoder.feed(chunk):
            got[frame.req_id] = frame
    return got


async def _open(reader, writer, decoder, name, capacity=0):
    writer.write(encode_frame(OP_OPEN, 1, {"channel": name, "capacity": capacity}))
    await writer.drain()
    await _replies(reader, decoder, 1)


def _is_interrupt(frame):
    return frame.op == OP_CLOSED and frame.payload.get("reason") == "interrupt"


async def _until(predicate, timeout=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


class TestParkedOps:
    """A ``SEND``/``RECEIVE`` that parks holds its cell before its task
    first runs.  Every path that can cancel it in that window abandons
    it through the interrupt protocol, and when a resumption won the
    reply is ``OK`` with the result: each element is delivered exactly
    once, and nothing is left parked in the channel."""

    @pytest.mark.parametrize("parks", ["send", "receive"])
    def test_parked_op_cancelled_in_the_same_batch(self, parks):
        async def main():
            server = await serve("127.0.0.1", 0)
            reader, writer, decoder = await _raw_client(server)
            try:
                await _open(reader, writer, decoder, "pc")
                op = (Frame(OP_SEND, 2, {"channel": "pc", "value": 1}) if parks == "send"
                      else Frame(OP_RECEIVE, 2, {"channel": "pc"}))
                writer.write(encode_batch([op, Frame(OP_CANCEL_OP, 3, {"target": 2})]))
                cancelled = (await _replies(reader, decoder, 1))[2]
                probe = (Frame(OP_TRY_RECEIVE, 4, {"channel": "pc"}) if parks == "send"
                         else Frame(OP_TRY_SEND, 4, {"channel": "pc", "value": 2}))
                writer.write(encode_batch([probe]))
                probed = (await _replies(reader, decoder, 1))[4]
                entry = server.registry.get("pc")
                return cancelled, probed.payload, entry.inflight, entry.channel.stats
            finally:
                writer.close()
                await server.shutdown()

        cancelled, probed, inflight, stats = run(main())
        assert _is_interrupt(cancelled)
        assert probed["success"] is False  # no zombie waiter left behind
        assert inflight == 0
        assert (stats.sends, stats.receives) == (0, 0)
        assert (stats.send_interrupts, stats.rcv_interrupts) == (
            (1, 0) if parks == "send" else (0, 1)
        )

    @pytest.mark.parametrize("parks", ["send", "receive"])
    def test_resumed_in_the_cancelling_batch_replies_ok(self, parks):
        async def main():
            server = await serve("127.0.0.1", 0)
            reader, writer, decoder = await _raw_client(server)
            try:
                await _open(reader, writer, decoder, "pr")
                send = Frame(OP_SEND, 2 if parks == "send" else 3, {"channel": "pr", "value": 7})
                receive = Frame(OP_RECEIVE, 3 if parks == "send" else 2, {"channel": "pr"})
                first, second = (send, receive) if parks == "send" else (receive, send)
                writer.write(encode_batch([first, second, Frame(OP_CANCEL_OP, 4, {"target": 2})]))
                got = await _replies(reader, decoder, 2)
                entry = server.registry.get("pr")
                return got, entry.inflight, entry.channel.stats
            finally:
                writer.close()
                await server.shutdown()

        got, inflight, stats = run(main())
        sent = got[2 if parks == "send" else 3]
        received = got[3 if parks == "send" else 2]
        assert (sent.op, sent.payload) == (OP_OK, {})
        assert (received.op, received.payload) == (OP_OK, {"value": 7})
        assert inflight == 0
        assert (stats.sends, stats.receives) == (1, 1)

    @pytest.mark.parametrize("resumed", [False, True])
    def test_cancelled_while_the_reader_awaits_admission(self, resumed):
        async def main():
            server = await serve("127.0.0.1", 0, max_inflight=1)
            reader, writer, decoder = await _raw_client(server)
            await _open(reader, writer, decoder, "adm")
            # Both sends park; the first takes the only slot, so the
            # reader waits to admit the second, which holds cell 1.
            writer.write(encode_frame(OP_SEND, 2, {"channel": "adm", "value": 1}))
            writer.write(encode_frame(OP_SEND, 3, {"channel": "adm", "value": 2}))
            await writer.drain()
            entry = server.registry.get("adm")
            await _until(lambda: entry.inflight == 2)
            taken = []
            if resumed:
                taken = [entry.channel.try_receive() for _ in range(2)]
            await server.shutdown(drain=False)
            got = await _replies(reader, decoder, 2)
            writer.close()
            return got, taken, entry.inflight, entry.channel
        got, taken, inflight, channel = run(main())
        if resumed:
            assert taken == [(True, 1), (True, 2)]
            assert [(got[r].op, got[r].payload) for r in (2, 3)] == [(OP_OK, {})] * 2
            assert (channel.stats.sends, channel.stats.receives) == (2, 2)
        else:
            assert _is_interrupt(got[2]) and _is_interrupt(got[3])
            assert channel.try_receive() == (False, None)
            assert (channel.stats.sends, channel.stats.send_interrupts) == (0, 2)
        assert inflight == 0

    def test_connection_death_abandons_parked_ops(self):
        async def main():
            server = await serve("127.0.0.1", 0)
            reader, writer, decoder = await _raw_client(server)
            await _open(reader, writer, decoder, "a")
            await _open(reader, writer, decoder, "b")
            writer.write(
                encode_batch(
                    [
                        Frame(OP_RECEIVE, 2, {"channel": "a"}),  # parks
                        Frame(OP_SEND, 3, {"channel": "b", "value": 8}),  # parks
                        Frame(OP_SEND, 4, {"channel": "a", "value": 9}),  # resumes 2
                    ]
                )
            )
            writer.write_eof()  # the client goes away; its replies still flow
            got = await _replies(reader, decoder, 3)
            writer.close()
            a, b = server.registry.get("a"), server.registry.get("b")
            await _until(lambda: a.inflight == b.inflight == 0)
            leftover = b.channel.try_receive()
            await server.shutdown()
            return got, leftover, a.channel.stats, b.channel.stats

        got, leftover, a_stats, b_stats = run(main())
        assert (got[4].op, got[4].payload) == (OP_OK, {})
        assert (got[2].op, got[2].payload) == (OP_OK, {"value": 9})
        assert _is_interrupt(got[3])
        assert leftover == (False, None)
        assert (a_stats.sends, a_stats.receives) == (1, 1)
        assert (b_stats.sends, b_stats.send_interrupts) == (0, 1)

    def test_shutdown_drain_lands_parked_sends(self):
        async def main():
            server = await serve("127.0.0.1", 0)
            client = await connect("127.0.0.1", server.port)
            ch = await client.channel("drain0", capacity=0)
            sends = [asyncio.create_task(ch.send(i)) for i in range(3)]
            entry = server.registry.get("drain0")
            await _until(lambda: entry.inflight == 3)  # all three parked
            stopping = asyncio.create_task(server.shutdown(drain=True, timeout=5))
            await asyncio.sleep(0.05)  # reading has stopped; the drain waits
            taken = [entry.channel.try_receive() for _ in range(3)]
            await stopping
            acked = await asyncio.gather(*sends, return_exceptions=True)
            await client.close()
            return taken, acked, entry.inflight, entry.channel.stats

        taken, acked, inflight, stats = run(main())
        assert taken == [(True, 0), (True, 1), (True, 2)]
        assert acked == [None] * 3  # every accepted send landed and was acked
        assert inflight == 0
        assert (stats.sends, stats.receives) == (3, 3)
