"""Tests for the OS-thread adapter (GIL-preemptive stress)."""

import threading

import pytest

from repro.errors import ChannelClosedForReceive, ChannelClosedForSend
from repro.threads import BlockingChannel


def run_threads(*targets, timeout=60):
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
        assert not t.is_alive(), "worker thread did not finish"


class TestBasics:
    def test_buffered_pipeline(self):
        ch = BlockingChannel(capacity=8)
        out = []

        def prod():
            for i in range(500):
                ch.send(i)
            ch.close()

        def cons():
            for v in ch:
                out.append(v)

        run_threads(prod, cons)
        assert out == list(range(500))

    def test_rendezvous_pair(self):
        ch = BlockingChannel(0)
        out = []

        def prod():
            for i in range(200):
                ch.send(i)

        def cons():
            for _ in range(200):
                out.append(ch.receive())

        run_threads(prod, cons)
        assert out == list(range(200))

    def test_mpmc_conservation(self):
        ch = BlockingChannel(0)
        got = []
        lock = threading.Lock()

        def prod(pid):
            for i in range(150):
                ch.send(pid * 1000 + i)

        def cons():
            for _ in range(150):
                v = ch.receive()
                with lock:
                    got.append(v)

        run_threads(*(lambda p=p: prod(p) for p in range(4)), *(cons for _ in range(4)))
        assert sorted(got) == sorted(p * 1000 + i for p in range(4) for i in range(150))

    def test_mpmc_buffered(self):
        ch = BlockingChannel(4)
        got = []
        lock = threading.Lock()

        def prod(pid):
            for i in range(100):
                ch.send(pid * 1000 + i)

        def cons():
            for _ in range(100):
                v = ch.receive()
                with lock:
                    got.append(v)

        run_threads(*(lambda p=p: prod(p) for p in range(3)), *(cons for _ in range(3)))
        assert sorted(got) == sorted(p * 1000 + i for p in range(3) for i in range(100))


class TestTimeouts:
    """A timed-out op is interrupted: it leaves no waiter behind that a
    later op could hand an element to."""

    def test_receive_timeout(self):
        ch = BlockingChannel(0)
        with pytest.raises(TimeoutError):
            ch.receive(timeout=0.05)
        assert ch.try_send("x") is False  # no zombie receiver took it
        with pytest.raises(TimeoutError):
            ch.receive(timeout=0.05)
        assert (ch.stats.sends, ch.stats.receives, ch.stats.rcv_interrupts) == (0, 0, 2)

    def test_send_timeout(self):
        ch = BlockingChannel(0)
        with pytest.raises(TimeoutError):
            ch.send(1, timeout=0.05)
        assert ch.try_receive() == (False, None)  # the timed-out 1 is gone
        with pytest.raises(TimeoutError):
            ch.send(2, timeout=0.05)
        assert (ch.stats.sends, ch.stats.receives, ch.stats.send_interrupts) == (0, 0, 2)

    def test_buffered_send_timeout_frees_its_cell(self):
        ch = BlockingChannel(1)
        ch.send(1)
        with pytest.raises(TimeoutError):
            ch.send(2, timeout=0.05)
        assert ch.receive(timeout=1) == 1
        ch.send(3, timeout=1)  # capacity restored past the dead cell
        assert ch.try_receive() == (True, 3)
        assert ch.try_receive() == (False, None)

    def test_resumption_racing_the_timeout_delivers_once(self):
        """Timeouts race peers resuming the parked op; every element is
        received exactly once, or the send that carried it timed out."""

        ch = BlockingChannel(0)
        got, sent = [], []

        def receiver():
            for _ in range(200):
                try:
                    got.append(ch.receive(timeout=0.0005))
                except TimeoutError:
                    pass

        def sender():
            for i in range(200):
                try:
                    ch.send(i, timeout=0.0005)
                    sent.append(i)
                except TimeoutError:
                    pass

        run_threads(receiver, sender)
        assert sorted(got) == sent
        assert ch.stats.sends == ch.stats.receives == len(sent)


class TestCloseSemantics:
    def test_close_from_other_thread_wakes_receiver(self):
        ch = BlockingChannel(0)
        outcome = []

        def receiver():
            try:
                outcome.append(ch.receive())
            except ChannelClosedForReceive:
                outcome.append("closed")

        def closer():
            import time

            time.sleep(0.05)
            ch.close()

        run_threads(receiver, closer)
        assert outcome == ["closed"]

    def test_try_ops(self):
        ch = BlockingChannel(1)
        assert ch.try_send(1) is True
        assert ch.try_send(2) is False
        assert ch.try_receive() == (True, 1)
        assert ch.try_receive() == (False, None)

    def test_send_after_close(self):
        ch = BlockingChannel(2)
        ch.send(1)
        ch.close()
        with pytest.raises(ChannelClosedForSend):
            ch.send(2)
        assert ch.receive() == 1
        with pytest.raises(ChannelClosedForReceive):
            ch.receive()

    def test_per_producer_fifo_under_preemption(self):
        ch = BlockingChannel(2)
        got = []
        lock = threading.Lock()

        def prod(pid):
            for i in range(120):
                ch.send((pid, i))

        def cons():
            for _ in range(240):
                v = ch.receive()
                with lock:
                    got.append(v)

        run_threads(lambda: prod(0), lambda: prod(1), cons)
        for pid in (0, 1):
            seq = [i for (q, i) in got if q == pid]
            assert seq == sorted(seq)
