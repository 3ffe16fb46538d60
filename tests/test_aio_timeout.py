"""AsyncChannel timeouts and close/cancel idempotency (net satellites).

``timeout=`` maps deadline expiry onto the paper's ``interrupt()``: the
parked op's cell is neutralized and the channel stays fully usable.
The close/cancel tests pin down idempotency — only the closing call
returns ``True``, and a second close wakes nobody twice.
"""

import asyncio

import pytest

from repro.aio import AsyncChannel
from repro.errors import ChannelClosedForReceive, ChannelClosedForSend


def run(coro):
    return asyncio.run(coro)


class TestReceiveTimeout:
    def test_expires_on_empty_channel(self):
        async def main():
            ch = AsyncChannel(0)
            with pytest.raises(asyncio.TimeoutError):
                await ch.receive(timeout=0.05)
            return "ok"

        assert run(main()) == "ok"

    def test_channel_usable_after_expiry(self):
        async def main():
            ch = AsyncChannel(0)
            with pytest.raises(asyncio.TimeoutError):
                await ch.receive(timeout=0.05)
            # The interrupted receive's cell was neutralized: a fresh
            # pair must still rendezvous.
            results = await asyncio.gather(ch.send(7), ch.receive())
            return results[1]

        assert run(main()) == 7

    def test_expired_receive_does_not_steal_later_send(self):
        async def main():
            ch = AsyncChannel(4)
            with pytest.raises(asyncio.TimeoutError):
                await ch.receive(timeout=0.05)
            await ch.send("kept")
            return await ch.receive(timeout=1)

        assert run(main()) == "kept"

    def test_completes_before_deadline(self):
        async def main():
            ch = AsyncChannel(1)
            await ch.send(3)
            return await ch.receive(timeout=5)

        assert run(main()) == 3

    def test_receive_catching_timeout(self):
        async def main():
            ch = AsyncChannel(0)
            with pytest.raises(asyncio.TimeoutError):
                await ch.receive_catching(timeout=0.05)
            ch.close()
            return await ch.receive_catching(timeout=1)

        assert run(main()) == (False, None)


class TestSendTimeout:
    def test_expires_on_full_channel(self):
        async def main():
            ch = AsyncChannel(1)
            await ch.send(1)
            with pytest.raises(asyncio.TimeoutError):
                await ch.send(2, timeout=0.05)
            return "ok"

        assert run(main()) == "ok"

    def test_capacity_intact_after_expiry(self):
        async def main():
            ch = AsyncChannel(1)
            await ch.send(1)
            with pytest.raises(asyncio.TimeoutError):
                await ch.send(2, timeout=0.05)
            assert await ch.receive() == 1
            # The dead cell must not eat the freed slot.
            await asyncio.wait_for(ch.send(3), timeout=1)
            return await ch.receive()

        assert run(main()) == 3

    def test_rendezvous_send_timeout(self):
        async def main():
            ch = AsyncChannel(0)
            with pytest.raises(asyncio.TimeoutError):
                await ch.send("x", timeout=0.05)
            results = await asyncio.gather(ch.send("y"), ch.receive())
            return results[1]

        assert run(main()) == "y"

    def test_element_not_lost_when_resume_beats_deadline(self):
        """A receiver arriving in the expiry window must get the element:
        the send either times out cleanly or delivers — never both."""

        async def main():
            for delay in (0.0, 0.005, 0.01, 0.02):
                ch = AsyncChannel(0)
                send = asyncio.create_task(ch.send("v", timeout=0.01))

                async def late_receiver():
                    await asyncio.sleep(delay)
                    return await ch.receive(timeout=0.05)

                recv = asyncio.create_task(late_receiver())
                send_failed = False
                try:
                    await send
                except asyncio.TimeoutError:
                    send_failed = True
                try:
                    value = await recv
                except asyncio.TimeoutError:
                    value = None
                if send_failed:
                    assert value is None, "send timed out AND delivered"
                else:
                    assert value == "v", "send succeeded but element lost"
            return "ok"

        assert run(main()) == "ok"


@pytest.mark.usefixtures("class_tier")
class TestCloseCancelIdempotency:
    """On the py tier's sync driver; rerun natively below."""

    tier = "py"

    def test_second_close_returns_false(self):
        async def main():
            ch = AsyncChannel(2)
            return ch.close(), ch.close(), ch.close()

        assert run(main()) == (True, False, False)

    def test_second_cancel_returns_false(self):
        async def main():
            ch = AsyncChannel(2)
            return ch.cancel(), ch.cancel()

        assert run(main()) == (True, False)

    def test_cancel_after_close_returns_false(self):
        async def main():
            ch = AsyncChannel(2)
            return ch.close(), ch.cancel(), ch.cancelled

        first, second, cancelled = run(main())
        assert first is True and second is False
        assert cancelled is True  # cancel still marks the discard flag

    def test_cancelled_property(self):
        async def main():
            ch = AsyncChannel(2)
            before = ch.cancelled
            ch.close()
            after_close = ch.cancelled
            ch2 = AsyncChannel(2)
            ch2.cancel()
            return before, after_close, ch2.cancelled

        assert run(main()) == (False, False, True)

    def test_second_close_wakes_nobody_twice(self):
        """Each parked receiver observes exactly one close exception;
        a repeated close() neither re-wakes nor corrupts anything."""

        async def main():
            ch = AsyncChannel(0)
            wakeups = []

            async def receiver(i):
                try:
                    await ch.receive()
                except ChannelClosedForReceive:
                    wakeups.append(i)

            tasks = [asyncio.create_task(receiver(i)) for i in range(3)]
            await asyncio.sleep(0.05)  # all three park
            assert ch.close() is True
            assert ch.close() is False  # idempotent, wakes nobody
            await asyncio.gather(*tasks)
            assert ch.close() is False
            return sorted(wakeups)

        assert run(main()) == [0, 1, 2]

    def test_close_with_concurrently_parked_senders(self):
        """close() on a full channel fails *new* sends but lets the
        already-parked sender deliver during draining (§5 semantics)."""

        async def main():
            ch = AsyncChannel(1)
            await ch.send("buffered")
            parked = asyncio.create_task(ch.send("parked"))
            await asyncio.sleep(0.05)
            assert ch.close() is True
            assert ch.close() is False
            with pytest.raises(ChannelClosedForSend):
                await ch.send("late")
            drained = [await ch.receive(), await ch.receive()]
            await parked  # completed by the draining receive
            with pytest.raises(ChannelClosedForReceive):
                await ch.receive()
            return drained

        assert run(main()) == ["buffered", "parked"]

    def test_cancel_wakes_parked_senders_once(self):
        async def main():
            ch = AsyncChannel(0)
            outcomes = []

            async def sender(i):
                try:
                    await ch.send(i)
                    outcomes.append((i, "sent"))
                except ChannelClosedForSend:
                    outcomes.append((i, "cancelled"))

            tasks = [asyncio.create_task(sender(i)) for i in range(3)]
            await asyncio.sleep(0.05)
            assert ch.cancel() is True
            assert ch.cancel() is False
            await asyncio.gather(*tasks)
            return sorted(outcomes)

        assert run(main()) == [(0, "cancelled"), (1, "cancelled"), (2, "cancelled")]


class TestCloseCancelIdempotencyNative(TestCloseCancelIdempotency):
    """The same cases on the c tier's native sync driver."""

    tier = "c"
