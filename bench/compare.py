"""Summarise or compare benchmark runs.

    python3 bench/compare.py RUNS.log             # medians and spreads
    python3 bench/compare.py --json RUNS.log      # the same as JSON
    python3 bench/compare.py BASE.log NEW.log     # NEW against BASE

A log is the stdout of any number of ``bench/run.py`` runs; only their
``{"record": ...}`` lines are read.  Spread is the distance between the
first and third quartile as a share of the median.  Comparing refuses
(exit 2) when the two sides were measured in different environments:
Python, numpy, CPU count or machine.  Work counters and verdict digests
of the same workload and seed must be equal when the sources are equal;
when the sources differ, changes are listed.  Exit 1 when a metric got
worse than its bound in BENCHMARK.json or a counter or digest differs
for equal sources.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENVIRONMENT = ("python", "implementation", "numpy", "nproc", "affinity", "machine")


def records(path: str) -> list[dict]:
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith('{"record"'):
            out.append(json.loads(line)["record"])
    return out


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def grouped(recs: list[dict]) -> dict[tuple[int, str], list[dict]]:
    out: dict[tuple[int, str], list[dict]] = {}
    for r in recs:
        out.setdefault((r["trace"], r["stamp"]["workload"]), []).append(r)
    return out


def environment(recs: list[dict]) -> set[tuple]:
    return {tuple(r["stamp"][k] for k in ENVIRONMENT) for r in recs}


def summary(recs: list[dict]) -> dict:
    """Per workload and mode: each metric's median, quartiles and spread."""
    out: dict = {}
    for (trace, workload), runs in sorted(grouped(recs).items()):
        mode = out.setdefault(workload, {}).setdefault("traced" if trace else "timed", {})
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            med, spr = spread(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            mode[name] = {"median": med, "q1": q[0], "q3": q[2], "spread": spr, "runs": len(values)}
    return out


def main(argv: list[str]) -> int:
    if argv[:1] == ["--json"] and len(argv) == 2:
        recs = records(argv[1])
        if len(environment(recs)) > 1:
            print("refusing to summarise results from several environments", file=sys.stderr)
            return 2
        print(json.dumps({"stamp": {k: recs[0]["stamp"][k] for k in ENVIRONMENT},
                          "workloads": summary(recs)}, indent=1, sort_keys=True))
        return 0
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sides = [records(p) for p in argv]
    envs = set().union(*(environment(s) for s in sides))
    if len(envs) > 1:
        print(f"refusing to compare: results come from {len(envs)} environments:", file=sys.stderr)
        for env in sorted(envs, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(ENVIRONMENT, env)), file=sys.stderr)
        return 2
    bad = False
    base = grouped(sides[0])
    new = grouped(sides[-1])
    for key in sorted(base.keys() | new.keys()):
        trace, workload = key
        print(f"{workload}  ({'traced' if trace else 'timed'}; runs: {len(base.get(key, []))}"
              + (f" vs {len(new.get(key, []))})" if len(sides) == 2 else ")"))
        if key not in base or key not in new:
            print("  only on one side")
            continue
        names = list(base[key][0]["metrics"])
        for name in names:
            b_med, b_spread = spread([r["metrics"][name] for r in base[key]])
            line = f"  {name:<30} {b_med:>14.6g} spread {b_spread:7.3f}"
            info = bounds.get(name)
            if len(sides) == 1:
                if info and b_spread > info["bound"]:
                    line += f"  WIDER THAN BOUND {info['bound']}"
                    bad = True
                print(line)
                continue
            n_med, n_spread = spread([r["metrics"][name] for r in new[key]])
            change = (n_med - b_med) / b_med if b_med else 0.0
            line += f"  -> {n_med:>14.6g} spread {n_spread:7.3f}  {change:+.3f}"
            if info:
                worse = change if info["better"] == "lower" else -change
                if max(b_spread, n_spread) > info["bound"]:
                    line += "  unresolved (spread wider than bound)"
                elif worse > info["bound"]:
                    line += f"  REGRESSED beyond bound {info['bound']}"
                    bad = True
            print(line)
        bad |= exact_checks(base[key], new[key])
    return 1 if bad else 0


def exact_checks(base: list[dict], new: list[dict]) -> bool:
    """Counters and digests of runs with the same seed."""
    bad = False
    by_seed = {r["stamp"]["seed"]: r for r in base}
    for r in new:
        other = by_seed.get(r["stamp"]["seed"])
        if other is None or other is r:
            continue
        same_src = other["stamp"]["src_sha256"] == r["stamp"]["src_sha256"]
        for field in ("counters", "verdict_digest"):
            if other.get(field) != r.get(field):
                what = "MISMATCH for equal sources" if same_src else "changed"
                print(f"  seed {r['stamp']['seed']}: {field} {what}: {other.get(field)} -> {r.get(field)}")
                bad |= same_src
        if r.get("counters_repeat") is False:
            print(f"  seed {r['stamp']['seed']}: counters did not repeat within the run")
            bad = True
    return bad


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
