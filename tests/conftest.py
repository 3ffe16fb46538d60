"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro import _engine
from repro.baselines import (
    GoChannel,
    KotlinLegacyChannel,
    KovalChannel2019,
    MPDQSyncQueue,
    ScherersSyncQueue,
)
from repro.core import BufferedChannel, BufferedChannelEB, RendezvousChannel
from repro.sim import NullCostModel, RandomPolicy, Scheduler


def run_tasks(*gens, seed=None, names=None, max_steps=2_000_000):
    """Run generators to completion; DES order, or seeded-random if given."""

    policy = RandomPolicy(seed) if seed is not None else None
    sched = Scheduler(
        policy=policy,
        cost_model=NullCostModel() if seed is not None else None,
        max_steps=max_steps,
    )
    tasks = []
    for i, gen in enumerate(gens):
        name = names[i] if names else None
        tasks.append(sched.spawn(gen, name))
    sched.run()
    return sched, tasks


# Channel factories with rendezvous semantics (capacity 0).
RENDEZVOUS_FACTORIES = {
    "faa-rendezvous": lambda: RendezvousChannel(seg_size=2),
    "faa-buffered-c0": lambda: BufferedChannel(0, seg_size=2),
    "faa-eb-c0": lambda: BufferedChannelEB(0, seg_size=2),
    "java-sync-queue": lambda: ScherersSyncQueue(),
    "koval-2019": lambda: KovalChannel2019(),
    "go-channel": lambda: GoChannel(0),
    "kotlin-legacy": lambda: KotlinLegacyChannel(0),
    "mpdq": lambda: MPDQSyncQueue(),
}

# Factories with buffering support, parameterized by capacity.
BUFFERED_FACTORIES = {
    "faa-buffered": lambda c: BufferedChannel(c, seg_size=2),
    "faa-eb": lambda c: BufferedChannelEB(c, seg_size=2),
    "go-channel": lambda c: GoChannel(c),
    "kotlin-legacy": lambda c: KotlinLegacyChannel(c),
}

# Factories with full close()/cancel()/try semantics (ChannelBase API).
FULL_API_FACTORIES = {
    "faa-rendezvous": lambda: RendezvousChannel(seg_size=2),
    "faa-buffered-c2": lambda: BufferedChannel(2, seg_size=2),
    "faa-eb-c2": lambda: BufferedChannelEB(2, seg_size=2),
}


@pytest.fixture(params=sorted(RENDEZVOUS_FACTORIES))
def rendezvous_factory(request):
    return RENDEZVOUS_FACTORIES[request.param]


@pytest.fixture(params=sorted(BUFFERED_FACTORIES))
def buffered_factory(request):
    return BUFFERED_FACTORIES[request.param]


@pytest.fixture(params=sorted(FULL_API_FACTORIES))
def full_api_factory(request):
    return FULL_API_FACTORIES[request.param]


@pytest.fixture
def class_tier(request):
    """Pin the process-default engine tier to the test class's ``tier``.

    Channels built during the test resolve that tier (the asyncio
    adapter binds its sync driver from it).  A ``c`` class is skipped
    when the compiled extension is unavailable.
    """

    tier = request.cls.tier
    if tier == "c" and not _engine.available():
        pytest.skip(f"compiled engine unavailable: {_engine.probe_error()}")
    prev = _engine.set_default_engine(tier)
    yield tier
    _engine.set_default_engine(prev)
