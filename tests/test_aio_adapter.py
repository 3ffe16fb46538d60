"""Tests for the asyncio adapter (the adoptable library surface)."""

import asyncio

import pytest

from repro.aio import AsyncChannel
from repro.errors import ChannelClosedForReceive, ChannelClosedForSend


def run(coro):
    return asyncio.run(coro)


class TestBasics:
    def test_buffered_pipeline(self):
        async def main():
            ch = AsyncChannel(capacity=4)
            out = []

            async def prod():
                for i in range(50):
                    await ch.send(i)
                ch.close()

            async def cons():
                async for v in ch:
                    out.append(v)

            await asyncio.gather(prod(), cons())
            return out

        assert run(main()) == list(range(50))

    def test_rendezvous_mpmc(self):
        async def main():
            ch = AsyncChannel(0)
            got = []

            async def p(pid):
                for i in range(15):
                    await ch.send(pid * 100 + i)

            async def c():
                for _ in range(15):
                    got.append(await ch.receive())

            await asyncio.gather(p(0), p(1), p(2), c(), c(), c())
            return got

        got = run(main())
        assert sorted(got) == sorted(p * 100 + i for p in range(3) for i in range(15))

    def test_send_suspends_until_receive(self):
        async def main():
            ch = AsyncChannel(0)
            order = []

            async def p():
                order.append("send-start")
                await ch.send(1)
                order.append("send-done")

            async def c():
                await asyncio.sleep(0.01)
                order.append("recv-start")
                v = await ch.receive()
                order.append(("recv-done", v))

            await asyncio.gather(p(), c())
            return order

        order = run(main())
        assert order == ["send-start", "recv-start", ("recv-done", 1), "send-done"] or order == [
            "send-start",
            "recv-start",
            "send-done",
            ("recv-done", 1),
        ]

    def test_capacity_exposed(self):
        assert AsyncChannel(7).capacity == 7

    def test_stats_exposed(self):
        async def main():
            ch = AsyncChannel(2)
            await ch.send(1)
            await ch.receive()
            return ch.stats.sends, ch.stats.receives

        assert run(main()) == (1, 1)


@pytest.mark.usefixtures("class_tier")
class TestTryOpsAndClose:
    """Sync-lane ops on the py tier's driver; rerun natively below."""

    tier = "py"

    def test_try_ops_synchronous(self):
        async def main():
            ch = AsyncChannel(1)
            assert ch.try_send(1) is True
            assert ch.try_send(2) is False
            assert ch.try_receive() == (True, 1)
            assert ch.try_receive() == (False, None)
            return "ok"

        assert run(main()) == "ok"

    def test_close_stops_iteration(self):
        async def main():
            ch = AsyncChannel(4)
            await ch.send(1)
            await ch.send(2)
            ch.close()
            return [v async for v in ch]

        assert run(main()) == [1, 2]

    def test_send_after_close_raises(self):
        async def main():
            ch = AsyncChannel(1)
            ch.close()
            with pytest.raises(ChannelClosedForSend):
                await ch.send(1)
            return "ok"

        assert run(main()) == "ok"

    def test_close_wakes_waiting_receiver(self):
        async def main():
            ch = AsyncChannel(0)

            async def receiver():
                with pytest.raises(ChannelClosedForReceive):
                    await ch.receive()
                return "woken"

            task = asyncio.create_task(receiver())
            await asyncio.sleep(0.01)
            ch.close()
            return await task

        assert run(main()) == "woken"

    def test_cancel_discards(self):
        async def main():
            ch = AsyncChannel(4)
            await ch.send(1)
            ch.cancel()
            with pytest.raises(ChannelClosedForReceive):
                await ch.receive()
            return "ok"

        assert run(main()) == "ok"

    def test_receive_catching(self):
        async def main():
            ch = AsyncChannel(2)
            await ch.send(9)
            ch.close()
            first = await ch.receive_catching()
            second = await ch.receive_catching()
            return first, second

        assert run(main()) == ((True, 9), (False, None))


class TestTryOpsAndCloseNative(TestTryOpsAndClose):
    """The same cases on the c tier's native sync driver."""

    tier = "c"


class TestCancellation:
    def test_cancelled_send_cleans_up(self):
        async def main():
            ch = AsyncChannel(0)
            task = asyncio.create_task(ch.send(42))
            await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # The channel must be clean: a fresh pair transfers fine.
            results = await asyncio.gather(ch.send(7), ch.receive())
            return results[1]

        assert run(main()) == 7

    def test_cancelled_receive_cleans_up(self):
        async def main():
            ch = AsyncChannel(0)
            task = asyncio.create_task(ch.receive())
            await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            results = await asyncio.gather(ch.send(8), ch.receive())
            return results[1]

        assert run(main()) == 8

    def test_element_never_lost_when_resume_beats_cancel(self):
        async def main():
            ch = AsyncChannel(0)
            sender = asyncio.create_task(ch.send(99))
            await asyncio.sleep(0.01)
            receiver = asyncio.create_task(ch.receive())
            await asyncio.sleep(0.01)
            sender.cancel()  # resumption already happened
            value = await receiver
            try:
                await sender
            except asyncio.CancelledError:
                pass
            return value

        assert run(main()) == 99

    def test_cancel_one_of_many_senders(self):
        async def main():
            ch = AsyncChannel(0)
            s1 = asyncio.create_task(ch.send("a"))
            s2 = asyncio.create_task(ch.send("b"))
            await asyncio.sleep(0.01)
            s1.cancel()
            try:
                await s1
            except asyncio.CancelledError:
                pass
            v = await ch.receive()
            await s2
            return v

        assert run(main()) == "b"

    def test_buffered_sender_cancellation_restores_capacity(self):
        async def main():
            ch = AsyncChannel(1)
            await ch.send(1)  # fills the buffer
            blocked = asyncio.create_task(ch.send(2))
            await asyncio.sleep(0.01)
            blocked.cancel()
            try:
                await blocked
            except asyncio.CancelledError:
                pass
            assert await ch.receive() == 1
            # Capacity restored past the dead cell: this must not block.
            await asyncio.wait_for(ch.send(3), timeout=1)
            return await ch.receive()

        assert run(main()) == 3


@pytest.mark.usefixtures("class_tier")
class TestCancelRacesResumption:
    """A parked op cancelled just before a peer resumes it, with its task
    not yet run again: the resumption wins and nothing is lost.  On the
    py tier; rerun natively below."""

    tier = "py"

    def test_cancelled_receive_keeps_the_delivered_element(self):
        async def main():
            ch = AsyncChannel(0)
            receiver = asyncio.create_task(ch.receive())
            await asyncio.sleep(0)  # parked
            receiver.cancel()
            sent = ch.try_send("elem")
            return sent, await receiver, ch.stats.sends, ch.stats.receives

        assert run(main()) == (True, "elem", 1, 1)

    def test_cancelled_send_completes_once_its_element_is_taken(self):
        async def main():
            ch = AsyncChannel(0)
            sender = asyncio.create_task(ch.send("elem"))
            await asyncio.sleep(0)  # parked
            sender.cancel()
            taken = ch.try_receive()
            return taken, await sender, ch.stats.sends, ch.stats.receives

        assert run(main()) == ((True, "elem"), None, 1, 1)

    def test_parked_receive_with_timeout_gets_an_element_sent_in_time(self):
        async def main():
            ch = AsyncChannel(0)
            receiver = asyncio.create_task(ch.receive(timeout=0.05))
            await asyncio.sleep(0.01)
            sent = ch.try_send("elem")
            return sent, await receiver

        assert run(main()) == (True, "elem")


class TestCancelRacesResumptionNative(TestCancelRacesResumption):
    """The same races on the c tier (native core and kernels)."""

    tier = "c"
