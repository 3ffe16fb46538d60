"""Repeat the benchmark over seeds, and compare two sets of runs.

    python3 perfbench/spread.py run --workload W --seeds 1-10 --seconds S --out FILE [--trace 0|1]
    python3 perfbench/spread.py summary FILE
    python3 perfbench/spread.py compare OLD NEW

``run`` appends one JSON record per run (result line plus stamps) to
FILE.  ``summary`` prints, per workload and metric, the median and the
quartile spread ``(q3 - q1) / median`` next to the metric's bound from
``BENCHMARK.json``.  ``compare`` prints NEW's median over OLD's per
workload and metric and fails (exit 1) when a metric is worse than its
bound allows — and refuses outright (exit 2) when the two sets ran
different engine tiers or run lengths, which would compare different
programs rather than one program twice.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def _bounds() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def cmd_run(args: argparse.Namespace) -> int:
    out = Path(args.out)
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: failed\n{proc.stderr[-3000:]}", file=sys.stderr)
            return 1
        meta = next(json.loads(ln[len("# meta "):]) for ln in lines if ln.startswith("# meta "))
        record = {"result": json.loads(lines[-1]), "meta": meta}
        with out.open("a") as f:
            f.write(json.dumps(record) + "\n")
        print(f"seed {seed}: correct={record['result']['correct']} " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in record["result"]["metrics"].items()))
    return 0


def _load(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            by_workload[rec["meta"]["workload"]].append(rec)
    return by_workload


def _values(records: list[dict]) -> dict[str, list[float]]:
    vals: dict[str, list[float]] = defaultdict(list)
    for rec in records:
        for name, m in rec["result"]["metrics"].items():
            vals[name].append(m["value"])
    return vals


def _spread(values: list[float]) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def cmd_summary(args: argparse.Namespace) -> int:
    bounds = _bounds()
    for workload, records in sorted(_load(args.file).items()):
        ok = all(r["result"]["correct"] for r in records)
        print(f"{workload}: {len(records)} runs, all correct={ok}")
        for name, vals in _values(records).items():
            bound = bounds.get(name, {}).get("bound")
            spread = _spread(vals)
            flag = ""
            if bound is not None:
                flag = "  OVER BOUND" if spread > bound else ("  over bound/3" if spread > bound / 3 else "")
            print(f"  {name:34s} median={statistics.median(vals):<12.6g} spread={spread:.4f}"
                  f" bound={bound}{flag}")
    return 0


def _stamp(records: list[dict], key: str) -> set:
    return {r["meta"][key] for r in records}


def cmd_compare(args: argparse.Namespace) -> int:
    old, new = _load(args.old), _load(args.new)
    bounds = _bounds()
    worse = False
    for workload in sorted(set(old) & set(new)):
        for key in ("engine_tier", "seconds", "trace"):
            a, b = _stamp(old[workload], key), _stamp(new[workload], key)
            if len(a | b) != 1:
                print(f"{workload}: {key} differs between the sets ({sorted(a)} vs {sorted(b)});"
                      " refusing to compare", file=sys.stderr)
                return 2
        vo, vn = _values(old[workload]), _values(new[workload])
        for name in vo:
            mo, mn = statistics.median(vo[name]), statistics.median(vn.get(name, [0.0]))
            spec = bounds.get(name, {})
            ratio = mn / mo if mo else float("nan")
            verdict = ""
            if "bound" in spec:
                change = (mn - mo) / mo if spec["better"] == "lower" else (mo - mn) / mo
                if change > spec["bound"]:
                    verdict, worse = "  WORSE", True
            print(f"{workload:12s} {name:34s} old={mo:<12.6g} new={mn:<12.6g} new/old={ratio:.4f}{verdict}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True)
    r.add_argument("--seconds", type=int, required=True)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", required=True)
    s = sub.add_parser("summary")
    s.add_argument("file")
    c = sub.add_parser("compare")
    c.add_argument("old")
    c.add_argument("new")
    args = p.parse_args(argv)
    return {"run": cmd_run, "summary": cmd_summary, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
