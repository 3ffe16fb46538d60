"""Tests for the benchmark's own code, at tiny sizes.

    python3 -m pytest perfbench/tests -q

They run the real workloads (the served ones start real server
processes) with shrunken element counts, warm-ups and probe counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import netload  # noqa: E402
import run  # noqa: E402
import simload  # noqa: E402
import spread  # noqa: E402
from tracer import Tracer  # noqa: E402

# The engine probe is one-shot per process: activate the benchmark's own
# build before anything in this process resolves a tier.
ENGINE_DIR, EXPECTED_TIER = run.prepare(ROOT)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(simload, "ELEMENTS", {"sim-fig5": 64, "sim-profile": 32})
    monkeypatch.setattr(simload, "SETUP_PROBES", 1)
    monkeypatch.setattr(netload, "SETUP_PROBES", 1)
    monkeypatch.setattr(netload, "WARMUP_MESSAGES", 20)


def _run_cli(argv: list[str]) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, out.getvalue().splitlines()


def test_spec_matches_the_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(common.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(common.PER_LAYER)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["unit"] == common.UNITS[m["name"]]
    assert tuple(WORKLOADS) == run.WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tiny, workload, trace):
    code, lines = _run_cli(["--workload", workload, "--seed", "3", "--seconds", "0.4",
                            "--trace", str(trace)])
    assert code == 0
    result = json.loads(lines[-1])
    meta = json.loads(next(ln for ln in lines if ln.startswith("# meta "))[len("# meta "):])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, meta
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0
    assert meta["engine_tier"] == EXPECTED_TIER
    assert {"nproc", "python", "cpu_model", "loadavg_before", "loadavg_after"} <= set(meta)
    assert any(ln.startswith("# fail_frac = ") for ln in lines)


def test_injected_dropped_message_raises_fail_frac(tiny, monkeypatch):
    from repro.net.client import RemoteChannel

    send = RemoteChannel.send
    dropped = []

    async def lossy_send(self, element, **kwargs):
        # Drop one bench message on the floor while reporting success.
        if self.name == "bench" and not dropped:
            dropped.append(element)
            return None
        return await send(self, element, **kwargs)

    monkeypatch.setattr(RemoteChannel, "send", lossy_send)
    out = netload.measure("net-closed", 1, 0.3, ROOT, ENGINE_DIR)
    assert dropped
    assert out["failed"] == 1
    assert out["failed"] / out["attempted"] > 0


def _targets():
    from repro.net import client as client_mod
    from repro.obs.events import SchedulerObserver
    from repro.obs.profiler import ContentionProfiler
    from repro.sim.scheduler import Scheduler

    import netwrap

    sim = [(Scheduler, "run"), (SchedulerObserver, "__call__"),
           (ContentionProfiler, "__call__"), (ContentionProfiler, "report")]
    client = [(client_mod.RemoteChannel, "send"), (client_mod.RemoteChannel, "receive")]
    client += [(client_mod, name) for name in netwrap.CLIENT_ENCODERS]
    return sim + netwrap.wrapped_originals() + client


def _snapshot():
    return [(owner, name, vars(owner).get(name, "<inherited>")) for owner, name in _targets()]


def test_traced_runs_restore_the_originals(tiny):
    before = _snapshot()
    out = simload.measure_traced("sim-profile", 2, 0.3)
    assert out["values"]["obs.hook_calls_per_step"] > 0
    out = netload.measure_traced("net-closed", 2, 0.3, ROOT, ENGINE_DIR)
    assert out["checks"]["traced_server"]
    assert out["values"]["net.client.encode_us"] > 0
    after = _snapshot()
    for (owner, name, a), (_, _, b) in zip(before, after):
        assert a is b, f"{owner.__name__}.{name} was not restored"


def test_untraced_runs_install_no_wrapper(tiny, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an untraced run installed a wrapper")

    monkeypatch.setattr(Tracer, "patch", forbidden)
    before = _snapshot()
    simload.measure("sim-fig5", 1, 0.2, ROOT, ENGINE_DIR)
    # The server reports how many wrappers it installed; netload raises
    # when an untraced server reports any.
    netload.measure("net-open", 1, 0.2, ROOT, ENGINE_DIR)
    assert _snapshot() == before


def test_lost_elements_count_as_failures():
    p = simload.Point("faa-channel", 10, stats={"sends": 10, "receives": 9})
    assert simload.point_failures(p) == 1
    assert simload.point_failures(simload.Point("go-channel", 10, error="DeadlockError")) == 10
    assert simload.point_failures(simload.Point("go-channel", 10)) == 0
    ledger = netload.Ledger(issued=3, acked={0, 1, 2})
    ledger.received.update({0: 1, 2: 2, 7: 1})
    assert ledger.failures() == 3  # seq 1 lost, seq 2 duplicated, seq 7 unknown


def test_percentile_nearest_rank():
    vals = list(range(1, 101))
    assert common.percentile(vals, 50) == 50
    assert common.percentile(vals, 99) == 99
    assert common.percentile([], 99) == 0.0


def test_compare_refuses_a_tier_mismatch(tmp_path):
    def record(tier):
        return {"result": {"correct": True, "attempted": 1, "failed": 0,
                           "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}},
                "meta": {"workload": "sim-fig5", "engine_tier": tier, "seconds": 20, "trace": 0}}

    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text(json.dumps(record("c")) + "\n")
    new.write_text(json.dumps(record("py")) + "\n")
    assert spread.main(["compare", str(old), str(new)]) == 2
    new.write_text(json.dumps(record("c")) + "\n")
    assert spread.main(["compare", str(old), str(new)]) == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-fig5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
