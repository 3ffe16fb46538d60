"""Timing wrappers for the served stack (client side and shared pieces).

The codec and the writer are shared classes, but the client and the
server live in separate processes, so one wrapper set per process keeps
their numbers apart.  The server's own additions live in
``server_main.py``, which installs them before it calls ``serve``.
"""

from __future__ import annotations

from time import perf_counter_ns

from tracer import Tracer

#: Request encoders ``repro.net.client`` imports by name (patched there).
CLIENT_ENCODERS = ("encode_send_b_into", "encode_receive_b_into", "encode_frame_into")


def install_common_net_wrappers(tracer: Tracer) -> None:
    """``FrameDecoder.feed`` (decode) and ``CoalescingWriter.flush``."""

    from repro.net.iobuf import CoalescingWriter
    from repro.net.protocol import OP_BATCH, FrameDecoder

    decode = tracer.spans["net.decode"]
    counts = tracer.counts

    def make_feed(fn):
        def feed(self, chunk):
            t0 = perf_counter_ns()
            frames = list(fn(self, chunk))
            decode.append(perf_counter_ns() - t0)
            for f in frames:
                if f.op == OP_BATCH:
                    n = len(f.payload["frames"])
                    counts["net.decode.batches"] += 1
                    counts["net.decode.batched_ops"] += n
                    counts["net.decode.op_frames"] += n
                else:
                    counts["net.decode.op_frames"] += 1
            return iter(frames)

        return feed

    # Frames handed out per writer at its previous flush, keyed by id;
    # the writer is kept alive alongside so an id is never reused.
    marks: dict[int, tuple[object, int]] = {}

    def make_flush(fn):
        def flush(self):
            pending, before = self.pending_bytes, self.flushes
            fn(self)
            if self.flushes != before:
                last = marks.get(id(self), (self, 0))[1]
                marks[id(self)] = (self, self.frames_out)
                counts["net.flush.count"] += 1
                counts["net.flush.bytes"] += pending
                counts["net.flush.frames"] += self.frames_out - last

        return flush

    tracer.patch(FrameDecoder, "feed", make_feed)
    tracer.patch(CoalescingWriter, "flush", make_flush)


def install_client_wrappers(tracer: Tracer) -> None:
    from repro.net import client as client_mod

    install_common_net_wrappers(tracer)
    tracer.time_call(client_mod.RemoteChannel, "send", "net.client.op")
    tracer.time_call(client_mod.RemoteChannel, "receive", "net.client.op")
    for name in CLIENT_ENCODERS:
        tracer.time_call(client_mod, name, "net.client.encode")


def wrapped_originals() -> list[tuple[object, str]]:
    """The (owner, name) pairs the shared wrappers replace."""

    from repro.net.iobuf import CoalescingWriter
    from repro.net.protocol import FrameDecoder

    return [(FrameDecoder, "feed"), (CoalescingWriter, "flush")]
