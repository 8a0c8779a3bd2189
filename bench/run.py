"""orderdim benchmark: one workload per run, every answer checked.

    python3 bench/run.py --workload dim-survey --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --smoke

Run it from a checkout that holds ``src/orderdim``; it imports the library
from there and starts the CLI as ``python -m orderdim.cli`` with
``PYTHONPATH=src``.  Workloads: dim-survey, ramsey-grid, geometry-certs
(in this process) and cli-pipelines (real CLI processes, one pipeline at
a time).  The loop is closed with one caller.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
number of blocks untraced and then traced, and prints per-layer self
times and work counters.  ``--smoke`` runs one tiny block of every
workload plus the budget probe, checks every answer and times nothing.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A wrong answer prints correct=false and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as T
import workloads as W
from oracle import Mismatch

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Fresh-interpreter import launches per run for setup_s; a few come
# before the timed loop, the rest between blocks, so that a short burst
# of load on the machine moves only a few of them.
SETUP_LAUNCHES = 11
SETUP_BEFORE = 4
IMPORTTIME_LAUNCHES = 5

# Blocks in a traced run.  Fixed, so the work counters of a seed repeat
# exactly whatever the speed.
TRACE_BLOCKS = {"dim-survey": 2, "ramsey-grid": 4, "geometry-certs": 3, "cli-pipelines": 3}


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def fail_setup(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def stamp(workload: str | None, seed: int | None) -> dict:
    """Where a result came from.  Results are comparable only when the
    environment part (everything except commit, sources, seed, workload)
    is equal."""
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    src = hashlib.sha256()
    for path in sorted((SRC / "orderdim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "workload": workload,
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD read from .git in the checkout; None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


# --- launches in fresh interpreters --------------------------------------


def setup_launch(module: str, env) -> float:
    """Seconds from starting a fresh interpreter until `import module` is
    done, read on the shared monotonic clock."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", f"import time, {module}; print(repr(time.monotonic()))"],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        check=True,
        timeout=60,
    ).stdout
    return float(out) - t0


def import_times(env) -> tuple[float, float]:
    """Median cumulative import time of numpy and of orderdim (package and
    cli together), from `python -X importtime` in fresh processes."""
    numpy_s, orderdim_s = [], []
    for _ in range(IMPORTTIME_LAUNCHES):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import orderdim.cli"],
            env=env,
            cwd=ROOT,
            stderr=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            check=True,
            timeout=60,
        ).stderr.decode()
        got_numpy, got_orderdim = 0.0, 0.0
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            field = parts[2]
            name = field.strip()
            depth = (len(field) - len(field.lstrip()) - 1) // 2
            cumulative = int(parts[1]) / 1e6
            if name == "numpy" and not got_numpy:
                got_numpy = cumulative
            if depth == 0 and (name == "orderdim" or name.startswith("orderdim.")):
                got_orderdim += cumulative
        numpy_s.append(got_numpy)
        orderdim_s.append(got_orderdim)
    return statistics.median(numpy_s), statistics.median(orderdim_s)


# --- running operations --------------------------------------------------


class WrongAnswer(Exception):
    pass


class Runner:
    """Runs operations one at a time and keeps what the metrics need."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.next_id = 0
        self.reset()

    def reset(self) -> None:
        self.times: list[float] = []
        self.failures: list[str] = []
        self.verdicts: list = []
        self.stdout_bytes = 0
        self.op_ids: list[int] = []

    def execute(self, op, keep_verdict: bool = False) -> None:
        inputs = op.build()
        op_id = self.next_id
        self.next_id += 1
        self.op_ids.append(op_id)
        if self.tracer is not None:
            self.tracer.op = op_id
        t0 = time.perf_counter()
        try:
            result = op.run(inputs)
        except Exception as exc:  # a library failure is counted, not fatal
            self.times.append(time.perf_counter() - t0)
            self.failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            if keep_verdict:
                self.verdicts.append([op.kind, type(exc).__name__])
            return
        finally:
            if self.tracer is not None:
                self.tracer.op = None
        self.times.append(time.perf_counter() - t0)
        try:
            verdict = op.check(result)
        except Mismatch as exc:
            raise WrongAnswer(f"{op.kind}: {exc}") from None
        if op.kind.startswith("cli/"):
            self.stdout_bytes += len(result[0])
        if keep_verdict:
            self.verdicts.append([op.kind, verdict])


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )


# --- modes ---------------------------------------------------------------


def timed_run(workload: str, seed: int, seconds: float) -> int:
    env = W.cli_env()
    module = "orderdim.cli" if workload == "cli-pipelines" else "orderdim"
    setup_launch(module, env)  # warm-up: a fresh checkout compiles bytecode here
    setups = [setup_launch(module, env) for _ in range(SETUP_BEFORE)]
    lib = None if workload == "cli-pipelines" else W.Lib()
    if workload == "cli-pipelines":
        W.write_iso_input()
    block_fn = W.BLOCKS[workload]
    runner = Runner()
    for op in block_fn(lib, seed, 0, small=True):  # warm-up, not measured
        runner.execute(op)
    runner.reset()
    digest_of_block0 = None
    blocks = 0
    deadline = time.perf_counter() + seconds
    while blocks < 2 or time.perf_counter() < deadline:
        ops = block_fn(lib, seed, blocks)
        for op in ops:
            runner.execute(op, keep_verdict=blocks == 0)
        if blocks == 0:
            digest_of_block0 = W.digest(runner.verdicts)
        blocks += 1
        if len(setups) < SETUP_LAUNCHES:
            setups.append(setup_launch(module, env))
    while len(setups) < SETUP_LAUNCHES:
        setups.append(setup_launch(module, env))

    who = resource.RUSAGE_CHILDREN if workload == "cli-pipelines" else resource.RUSAGE_SELF
    times = runner.times
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(times) / sum(times),
        "latency_p50_ms": statistics.median(times) * 1000,
        "latency_p90_ms": statistics.quantiles(times, n=10, method="inclusive")[8] * 1000,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    above = sum(1 for t in times if t * 1000 > metrics["latency_p90_ms"])
    fail_ratio = len(runner.failures) / len(times)
    print(f"workload {workload}  seed {seed}  blocks {blocks}  operations {len(times)}  (closed loop, one caller)")
    units = metric_units("end_to_end")
    for name, value in metrics.items():
        print(f"  {name:<16} {value:>12.4f} {units[name]}")
    print(f"  {'fail_ratio':<16} {fail_ratio:>12.4f} ratio  ({len(runner.failures)}/{len(times)})")
    print(f"  latency samples {len(times)}, {above} above p90; setup launches {len(setups)}")
    print(f"  verdict digest (block 0) {digest_of_block0}")
    for failure in runner.failures[:5]:
        print(f"  failed: {failure}")
    record = {
        "stamp": stamp(workload, seed),
        "trace": 0,
        "metrics": metrics,
        "fail_ratio": fail_ratio,
        "blocks": blocks,
        "operations": len(times),
        "above_p90": above,
        "setup_launches": setups,
        "verdict_digest": digest_of_block0,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    emit(True, len(times), len(runner.failures), metrics, units)
    return 0


def smoke_ops(lib, inprocess_cli: bool):
    out = {}
    for name, block_fn in W.BLOCKS.items():
        if name == "cli-pipelines":
            out[name] = block_fn(lib, 0, 0, small=True, inprocess=inprocess_cli)
        else:
            out[name] = block_fn(lib, 0, 0, small=True)
    out["budget-probe"] = W.budget_ops(lib)
    return out


def traced_run(workload: str, seed: int) -> int:
    env = W.cli_env()
    numpy_s, orderdim_s = import_times(env)
    W.write_iso_input()
    lib = W.Lib()
    block_fn = W.BLOCKS[workload]

    def blocks(k):
        if workload == "cli-pipelines":
            return block_fn(lib, seed, k, inprocess=True)
        return block_fn(lib, seed, k)

    count = TRACE_BLOCKS[workload]
    tracer = T.Tracer()
    plain, traced = Runner(), Runner(tracer)
    for ops in smoke_ops(lib, inprocess_cli=True).values():  # warm-up
        for op in ops:
            plain.execute(op)
    plain.reset()
    # Untraced and traced passes alternate block by block, so a change in
    # the machine's speed falls on both sides of the overhead ratio.
    block0_ops = None
    for k in range(count):
        for op in blocks(k):
            plain.execute(op, keep_verdict=k == 0)
        tracer.install()
        try:
            for op in blocks(k):
                traced.execute(op)
        finally:
            tracer.uninstall()
        if k == 0:
            block0_ops = set(traced.op_ids)
    workload_ops = set(traced.op_ids)
    ratio = (len(traced.times) / sum(traced.times)) / (len(plain.times) / sum(plain.times))
    workload_bytes = traced.stdout_bytes
    failed = len(traced.failures)
    attempted = len(traced.times)
    # The smoke set of every workload is traced too, so that every layer
    # has spans on every workload; it is fixed, the same on every run.
    tracer.install()
    smoke_failures = []
    for ops in smoke_ops(lib, inprocess_cli=True).values():
        traced.reset()
        for op in ops:
            traced.execute(op)
        workload_ops |= set(traced.op_ids)
        workload_bytes += traced.stdout_bytes
        smoke_failures += traced.failures
    # Block 0 again: its counters must come out the same.
    traced.reset()
    for op in blocks(0):
        traced.execute(op)
    repeat = tracer.counters(set(traced.op_ids))
    first = tracer.counters(block0_ops)
    tracer.uninstall()
    drift = {k: [first[k], repeat[k]] for k in first if first[k] != repeat[k]}

    metrics = tracer.layer_metrics(workload_ops)
    metrics["cli.import_numpy_s"] = numpy_s
    metrics["cli.import_orderdim_s"] = orderdim_s
    metrics["cli.stdout_bytes"] = workload_bytes
    metrics["trace.ops_ratio"] = ratio
    units = metric_units("per_layer")
    metrics = {k: metrics[k] for k in units}

    W.OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(W.OUT_DIR / f"spans-{workload}-{seed}.jsonl")
    print(f"workload {workload}  seed {seed}  traced blocks {count}  operations {attempted}")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>14.6f} {units[name]}")
    print(f"  tracing overhead: traced/untraced ops_per_s = {ratio:.4f}")
    print(f"  smoke set failures (budget probe expected today): {len(smoke_failures)}")
    for failure in smoke_failures:
        print(f"    {failure}")
    if drift:
        print(f"  COUNTER DRIFT on block 0 (first, repeat): {drift}")
    record = {
        "stamp": stamp(workload, seed),
        "trace": 1,
        "metrics": metrics,
        "counters": first,
        "counters_repeat": not drift,
        "verdict_digest": W.digest(plain.verdicts),
    }
    print(json.dumps({"record": record}, sort_keys=True))
    emit(True, attempted, failed, metrics, units)
    return 0


def smoke() -> int:
    lib = W.Lib()
    W.write_iso_input()
    worst = 0
    sets = smoke_ops(lib, inprocess_cli=False)
    sets["cli-pipelines/in-process"] = W.cli_block(lib, 0, 0, small=True, inprocess=True)
    summary = {}
    for name, ops in sets.items():
        runner = Runner()
        for op in ops:
            runner.execute(op, keep_verdict=True)
        summary[name] = {
            "operations": len(ops),
            "failed": len(runner.failures),
            "digest": W.digest(runner.verdicts)[:16],
        }
        print(f"smoke {name:<26} {len(ops):>3} operations, {len(runner.failures)} failed, digest {summary[name]['digest']}")
        for failure in runner.failures:
            print(f"    {failure}")
        if name != "budget-probe" and runner.failures:
            worst = 1
    print(json.dumps({"smoke": summary, "correct": worst == 0}, sort_keys=True))
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(W.BLOCKS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "orderdim" / "__init__.py").is_file():
        fail_setup(f"no orderdim sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import orderdim

    if Path(orderdim.__file__).resolve().parent != (SRC / "orderdim").resolve():
        fail_setup(f"imported orderdim from {orderdim.__file__}, not from {SRC}")
    try:
        if args.smoke:
            return smoke()
        if args.trace:
            return traced_run(args.workload, args.seed)
        return timed_run(args.workload, args.seed, args.seconds)
    except WrongAnswer as exc:
        print(f"bench: WRONG ANSWER: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
