"""The four workloads: seeded inputs, timed operations, answer checks.

A workload is a stream of blocks.  Block k is built from the run seed and
k alone, so the same seed gives the same inputs however fast the program
is.  Every block of a workload has the same make-up (how many operations
of each kind and cost class), so blocks cost about the same; only the
drawn instances differ.  Each operation is

- ``build()``: makes the library objects it needs, untimed, fresh each
  time so no cached property carries over from an earlier call;
- ``run(inputs)``: the timed call into the library or the CLI;
- ``check(result)``: raises ``oracle.Mismatch`` on a wrong answer and
  returns the verdict that goes into the run's verdict digest.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle as O
from oracle import Mismatch

ROOT = Path(__file__).resolve().parent.parent
PINS_FILE = Path(__file__).resolve().parent / "pins.json"
OUT_DIR = ROOT / ".bench_out"


@dataclass
class Op:
    kind: str
    build: Callable[[], object]
    run: Callable[[object], object]
    check: Callable[[object], object]


class Lib:
    """orderdim's modules, looked up at call time so a tracer's wrappers
    are the functions that get called."""

    def __init__(self):
        for name in ("poset", "dimension", "geometry", "homogeneity", "ramsey", "flow"):
            setattr(self, name, importlib.import_module(f"orderdim.{name}"))

    @property
    def cli(self):
        return importlib.import_module("orderdim.cli")


@functools.cache
def pins() -> dict:
    """Reference answers recorded from the library by bench/pin.py."""
    return json.loads(PINS_FILE.read_text(encoding="utf-8"))


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode()
    ).hexdigest()


def _expect(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def block_rng(seed: int, workload: str, k: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{k}")


# --- dim-survey ----------------------------------------------------------

# Random posets per block, by number of linear extensions: (low, high,
# how many, sizes, edge densities).  For dimension 2 the extension count
# sets the cost of today's dimension search, so fixing the count per class keeps blocks
# comparable across seeds; densities only aim the rejection sampler at
# each class.  With the fixed members, a block has 81
# operations.  The class sizes put the median inside the 20-59 class and
# the 90th percentile inside the 1000-1999 class: inside a narrow class a
# percentile reads that class's typical cost, while at the gap between
# two classes it jumps with small changes.
DIM_CLASSES = (
    (1, 1, 5, (6, 10), (0.9, 1.0)),
    (2, 19, 24, (6, 10), (0.4, 0.9)),
    (20, 59, 19, (6, 10), (0.3, 0.6)),
    (60, 999, 18, (7, 10), (0.2, 0.5)),
    (1000, 1999, 7, (8, 10), (0.1, 0.35)),
    (2000, 9999, 2, (9, 10), (0.1, 0.3)),
)
# Above this many extensions only posets of dimension 2 are drawn.  For
# dimension 3 the cost of today's search at equal size and extension
# count ranges from 0.05 s to over 13 s, a tail that a run cannot
# average; one fixed member and the budget probe carry it instead.
DIM3_MAX_EXTENSIONS = 999

# A 10-element poset of dimension 3 with 8160 extensions, drawn by the
# sampler: 0.6 s today.  (A 9-element one with 6669 extensions took 13.8 s.)
DIM3_HEAVY = [16, 0, 0, 530, 0, 16, 534, 2, 539, 18]

DIM_CLASSES_SMALL = ((1, 1, 1, (6, 8), (0.9, 1.0)), (10, 99, 1, (6, 8), (0.3, 0.7)))


def _dim_fixed(small: bool):
    """Seed-independent members: crowns, an antichain and a chain, whose
    dimensions are known (crown(n) -> n, antichain -> 2, chain -> 1)."""
    chain10 = [sum(1 << j for j in range(i + 1, 10)) for i in range(10)]
    out = [("crown", [f"a{i}" for i in range(1, 4)] + [f"b{i}" for i in range(1, 4)], O.crown_bits(3), 3)]
    if small:
        return out
    for n in (4, 5):
        labels = [f"a{i}" for i in range(1, n + 1)] + [f"b{i}" for i in range(1, n + 1)]
        out.append(("crown", labels, O.crown_bits(n), n))
    out.append(("antichain", [f"e{i}" for i in range(1, 9)], [0] * 8, 2))
    out.append(("dim3", [f"x{i}" for i in range(10)], DIM3_HEAVY, 3))
    out.append(("chain", [f"c{i}" for i in range(1, 11)], chain10, 1))
    return out


def _dim_random(rng: random.Random, classes):
    out = []
    for low, high, count, (m_lo, m_hi), (d_lo, d_hi) in classes:
        got = 0
        while got < count:
            # Sizes go round in turn, not drawn: the cost of the small
            # posets near the median grows with the square of the size
            # (critical pairs), so every block gets the same size mix.
            m = m_lo + got % (m_hi - m_lo + 1)
            up = O.random_poset(rng, m, rng.uniform(d_lo, d_hi))
            if not low <= O.count_extensions(up) <= high:
                continue
            dim = O.dimension_of(up)
            if dim > 2 and high > DIM3_MAX_EXTENSIONS:
                continue
            out.append(("random", [f"x{i}" for i in range(m)], up, dim))
            got += 1
    return out


def dim_block(lib: Lib, seed: int, k: int, small: bool = False) -> list[Op]:
    rng = block_rng(seed, "dim-survey", k)
    members = _dim_fixed(small) + _dim_random(
        rng, DIM_CLASSES_SMALL if small else DIM_CLASSES
    )
    rng.shuffle(members)
    ops = []
    for kind, labels, up, want in members:
        rows = [[bool(up[i] >> j & 1) for j in range(len(up))] for i in range(len(up))]

        def check(res, labels=labels, up=up, want=want):
            _expect("dimension", res.dim, want)
            orders = [list(o.order) for o in res.witness.orders]
            _expect("witness size", len(orders), want)
            O.check_realizer(labels, up, orders)
            return [res.dim, orders]

        ops.append(
            Op(
                f"dimension/{kind}",
                lambda labels=labels, rows=rows: lib.poset.validate_poset(labels, rows),
                lambda p: lib.dimension.dimension(p),
                check,
            )
        )
    if small:
        ops.append(_szpilrajn_op(lib))
    return ops


def _szpilrajn_op(lib: Lib) -> Op:
    """A forced linear extension of crown(3): the witness builder that a
    critical-pair dimension search would call."""
    labels = ["a1", "a2", "a3", "b1", "b2", "b3"]
    up = O.crown_bits(3)
    forced = [("b1", "a1")]

    def check(order):
        O.check_extension(labels, up, order.order, forced)
        return list(order.order)

    return Op(
        "szpilrajn_extend",
        lambda: lib.poset.crown(3),
        lambda p: lib.poset.szpilrajn_extend(p, forced=forced),
        check,
    )


# --- ramsey-grid ---------------------------------------------------------

# product_ramsey_number(k, l, m, n, r_max) -> value, as the library's
# first version computes it.  (2,1,2,1) -> 3 is pigeonhole; (2,1,2,2) -> 5 is the
# square-point threshold the test suite freezes; None means a colouring
# without a monochromatic subgrid was found at every r <= r_max.
RAMSEY_NUMBERS = (
    ((2, 1, 2, 2, 6), 5),
    ((3, 1, 2, 2, 6), None),
    ((2, 2, 3, 1, 6), 6),
    ((3, 2, 3, 1, 6), None),
    ((2, 1, 2, 1, 6), 3),
    ((3, 1, 2, 1, 6), 4),
    ((2, 1, 3, 1, 6), 5),
    ((2, 1, 3, 2, 5), None),
    ((1, 2, 3, 2, 6), 3),
    ((2, 1, 2, 2, 4), None),
    ((3, 1, 2, 2, 5), None),
)
RAMSEY_NUMBERS_SMALL = (((2, 1, 2, 1, 6), 3), ((2, 1, 3, 2, 4), None))

# ramsey_witness_check(point, target, k, r, method) -> bool, from the
# library's first version: a point inside the crossed pair or the 2-chain.  The two
# reduction cases at r = 3 appear twice (with other labels), so that the
# 90th percentile of a block's 36 operations falls inside that group.
RAMSEY_WITNESS = tuple(
    [("crossed", 2, r, "exhaustive", r > 2) for r in (2, 3, 4, 5, 6, 7)]
    + [("chain", 2, r, "exhaustive", True) for r in (2, 3, 4, 5, 6, 7)]
    + [("crossed", 3, r, "exhaustive", r > 3) for r in (3, 4, 5)]
    + [("chain", 3, r, "exhaustive", True) for r in (3, 4, 5, 6)]
    + [
        ("crossed", 2, 2, "reduction", False),
        ("chain", 2, 2, "reduction", True),
    ]
    + [("crossed", 2, 3, "reduction", True), ("chain", 2, 3, "reduction", True)] * 2
)
RAMSEY_WITNESS_SMALL = (
    ("crossed", 2, 2, "exhaustive", False),
    ("crossed", 2, 3, "exhaustive", True),
    ("chain", 2, 2, "reduction", True),
)


def _label(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(4))


def ramsey_block(lib: Lib, seed: int, k: int, small: bool = False) -> list[Op]:
    rng = block_rng(seed, "ramsey-grid", k)
    ops = []
    for args, want in RAMSEY_NUMBERS_SMALL if small else RAMSEY_NUMBERS:
        def run(_, args=args):
            kk, l, m, n, r_max = args
            return lib.ramsey.product_ramsey_number(kk, l, m, n, r_max=r_max)

        def check(got, args=args, want=want):
            _expect(f"product_ramsey_number{args}", got, want)
            return got

        ops.append(Op("ramsey_number", lambda: None, run, check))
    for target, colours, r, method, want in RAMSEY_WITNESS_SMALL if small else RAMSEY_WITNESS:
        p, u, v = _label(rng), _label(rng) + "u", _label(rng) + "v"

        def build(p=p, u=u, v=v, target=target):
            lo = lib.poset.LinearOrder
            point = lib.poset.OrderedStructure.from_orders([lo([p]), lo([p])])
            second = [v, u] if target == "crossed" else [u, v]
            pair = lib.poset.OrderedStructure.from_orders([lo([u, v]), lo(second)])
            return point, pair

        def run(inputs, colours=colours, r=r, method=method):
            point, pair = inputs
            return lib.ramsey.ramsey_witness_check(point, pair, colours, r, method=method)

        def check(got, case=(target, colours, r, method), want=want):
            _expect(f"ramsey_witness_check{case}", got, want)
            return got

        ops.append(Op(f"ramsey_witness/{method}", build, run, check))
    rng.shuffle(ops)
    return ops


# --- geometry-certs ------------------------------------------------------


def _sample_op(lib, n, count, s) -> Op:
    def check(cloud):
        pts = list(cloud.points)
        O.check_sample(pts, n, count)
        return digest([[str(v) for v in p] for p in pts])

    return Op(
        "sample_dn",
        lambda: None,
        lambda _: lib.geometry.sample_dn(n, count, seed=s),
        check,
    )


def _induced_op(lib, n, count, s) -> Op:
    pts = list(lib.geometry.sample_dn(n, count, seed=s).points)

    def check(st):
        up = O.product_up(pts)
        lt = st.poset.lt
        for i in range(len(pts)):
            for j in range(len(pts)):
                if bool(lt[i, j]) != bool(up[i] >> j & 1):
                    raise Mismatch(f"induced order wrong on (p{i}, p{j})")
        for i, order in enumerate(st.realizers.orders):
            _expect(f"lex order {i}", list(order.order), [f"p{t}" for t in O.lex_rank_order(pts, i)])
        return digest([list(o.order) for o in st.realizers.orders])

    return Op(
        "induced_structure",
        lambda: lib.geometry.sample_dn(n, count, seed=s),
        lambda c: lib.geometry.induced_structure(c),
        check,
    )


def _dpo_op(lib, n, count, s) -> Op:
    def check(report):
        flags = [report.poset_ok, report.linears_ok, report.realization_ok]
        _expect("dpo axiom flags", flags, [True, True, True])
        _expect("density cells", len(report.density_defects), (count + 1) ** n)
        return [flags, len(report.density_defects)]

    return Op(
        "check_dpo_fragment",
        lambda: lib.geometry.sample_dn(n, count, seed=s),
        lambda c: lib.homogeneity.check_dpo_fragment(c),
        check,
    )


def _bnf_op(lib, n, size, steps, s) -> Op:
    def run(clouds):
        fwd, bwd = lib.geometry.back_and_forth_iso(clouds[0], clouds[1], steps)
        fwd.verify()
        bwd.verify()
        return fwd, bwd

    def check(result):
        fwd, bwd = result
        pairs = [(int(lab[1:]), y) for lab, y in fwd.images]
        _expect("matched pairs", len(pairs), steps)
        _expect("inverse map", sorted((x, int(lab[1:])) for lab, x in bwd.images), sorted(pairs))
        a_pts, b_pts = list(bwd.cloud.points), list(fwd.cloud.points)
        O.check_strict(a_pts)
        O.check_strict(b_pts)
        if len({x for x, _ in pairs}) != steps or len({y for _, y in pairs}) != steps:
            raise Mismatch("back-and-forth map is not injective")
        O.check_order_preserving(a_pts, b_pts, pairs)
        return [pairs, len(a_pts), len(b_pts)]

    return Op(
        "back_and_forth_iso",
        lambda: (
            lib.geometry.sample_dn(n, size, seed=s),
            lib.geometry.sample_dn(n, size, seed=s + 1),
        ),
        run,
        check,
    )


# enumerate_realizers tests every pair of extensions, so its cost grows
# with their square; the default budget stops at 1000 extensions.  The
# cloud is the first at or after the drawn seed with at most this many,
# so that the workload never fails and one cloud cannot dominate a run.
REALIZER_MAX_EXTENSIONS = 400


def _realizers_op(lib, count, s) -> Op:
    while True:
        pts = list(lib.geometry.sample_dn(2, count, seed=s).points)
        up = O.product_up(pts)
        if O.count_extensions(up) <= REALIZER_MAX_EXTENSIONS:
            break
        s += 1
    want = O.realizer_pair_census(up)

    def check(rs):
        _expect("realizer census", rs.census, want)
        return rs.to_json()

    return Op(
        "enumerate_realizers",
        lambda: lib.geometry.induced_structure(lib.geometry.sample_dn(2, count, seed=s)),
        lambda st: lib.flow.enumerate_realizers(st),
        check,
    )


def _decompose_op(lib, count, s) -> Op:
    cloud = lib.flow.symmetric_sample(2, count, seed=s)
    pts = list(cloud.points)
    group = O.product_automorphisms(pts)
    present = O.axis_permutations_present(pts)

    def check(rep):
        _expect("automorphism group size", rep.group_size, group)
        _expect("axis permutations present", rep.axis_permutations, present)
        _expect("factored + failed", len(rep.factorizations) + len(rep.failures), group)
        exact = present == 2 and not rep.failures and group == rep.stabilizer_size * present
        _expect("exact flag", rep.exact, exact)
        return rep.to_json()

    return Op(
        "semidirect_decomposition",
        lambda: lib.flow.symmetric_sample(2, count, seed=s),
        lambda c: lib.flow.semidirect_decomposition(c),
        check,
    )


def _pinned_cert_op(lib, kind: str, n: int) -> Op:
    builder = {
        "ap": "ap_failure_certificate",
        "nonhom": "nonhom_witness",
        "qnlex": "qn_lex_nonhom_witness",
    }[kind]

    def run(_):
        cert = getattr(lib.homogeneity, builder)(n)
        return cert, cert.replay()

    def check(result):
        cert, replayed = result
        _expect(f"{builder}({n}).replay()", replayed, True)
        _expect(f"{builder}({n}) digest", digest(cert.to_json()), pins()["certificates"][f"{kind}-{n}"])
        return digest(cert.to_json())

    return Op(f"certify/{kind}", lambda: None, run, check)


def _twohom_op(lib, rng: random.Random, s: int) -> Op:
    """Two-homogeneity on a sampled plane cloud: two point pairs that
    ascend on the same number of axes, so the extension must exist."""
    pts = list(lib.geometry.sample_dn(2, 8, seed=s).points)
    while True:
        i, j, i2, j2 = rng.sample(range(len(pts)), 4)
        ups = [sum(a < b for a, b in zip(pts[x], pts[y])) for x, y in ((i, j), (i2, j2))]
        if ups[0] == ups[1]:
            break
    steps = 6

    def run(cloud):
        cert = lib.homogeneity.two_homogeneity_certificate(
            cloud, (pts[i], pts[j]), (pts[i2], pts[j2]), steps
        )
        return cert, cert.replay()

    def check(result):
        cert, replayed = result
        _expect("two_homogeneity_certificate.replay()", replayed, True)
        data = cert.data
        _expect("pairs", [data["pair1"], data["pair2"]], [[i, j], [i2, j2]])
        mapping = dict(data["mapping"])
        _expect("seeded matches", [mapping[f"p{i}"], mapping[f"p{j}"]], [i2, j2])
        _expect("mapping size", len(mapping), steps + 2)
        return digest(cert.to_json())

    return Op("certify/twohom", lambda: lib.geometry.sample_dn(2, 8, seed=s), run, check)


def geometry_block(lib: Lib, seed: int, k: int, small: bool = False) -> list[Op]:
    rng = block_rng(seed, "geometry-certs", k)

    def s():
        return rng.randrange(1, 10**9)

    if small:
        ops = [
            _sample_op(lib, 2, 40, s()),
            _induced_op(lib, 2, 20, s()),
            _dpo_op(lib, 2, 6, s()),
            _bnf_op(lib, 2, 6, 8, s()),
            _realizers_op(lib, 5, s()),
            _decompose_op(lib, 4, s()),
            _pinned_cert_op(lib, "nonhom", 2),
            _twohom_op(lib, rng, s()),
        ]
    else:
        d = 2 + k % 2
        ops = [
            _sample_op(lib, 2, 600, s()),
            _sample_op(lib, 3, 2000, s()),
            _induced_op(lib, d, 200, s()),
            _dpo_op(lib, 2, 20, s()),
            _dpo_op(lib, 3, 10, s()),
            _bnf_op(lib, d, 30, 70 if d == 2 else 60, s()),
            _realizers_op(lib, 6, s()),
            _realizers_op(lib, 7, s()),
            # 6 points: the scan tries all 6! permutations whatever the
            # seed; with 8, a seed whose cloud is an antichain takes 5.6 s.
            _decompose_op(lib, 6, s()),
        ] + [
            # Five of the same kind and cost in the middle of the block:
            # eight operations cost less and seven more, so the median
            # falls inside this group, not in the gap between two groups
            # of other kinds where one drawn cloud can move it.
            _twohom_op(lib, rng, s())
            for _ in range(5)
        ] + [
            _pinned_cert_op(lib, kind, n)
            for kind in ("ap", "nonhom", "qnlex")
            for n in (2, 3)
        ]
    rng.shuffle(ops)
    return ops


# --- cli-pipelines -------------------------------------------------------

ISO_B = ".bench_out/iso-b.json"


def cli_families() -> dict[str, list[tuple[str, list[list[str]]]]]:
    """Pipeline variants by family, following the README's commands.
    Every variant's stdout is pinned in pins.json."""
    fam: dict[str, list] = {}
    fam["dim"] = [(f"dim-crown-{n}", [["gen", "crown", "--n", str(n)], ["dim"]]) for n in (3, 4)]
    fam["dpo"] = [
        (
            f"dpo-{c}-{s}",
            [["gen", "sample", "--n", "2", "--count", str(c), "--seed", str(s)], ["check", "dpo"]],
        )
        for c in (5, 6)
        for s in range(6)
    ]
    fam["flow"] = [
        (f"flow-grid-{m}", [["gen", "grid", "--m", str(m), "--n", "2"], ["flow", "realizers"]])
        for m in (2, 3)
    ]
    fam["dot"] = [
        (f"dot-crown-{n}", [["gen", "crown", "--n", str(n)], ["export", "dot"]]) for n in (3, 4, 5)
    ]
    fam["certify"] = [
        (f"certify-{kind}-{n}", [["certify", kind, "--n", str(n)]])
        for kind in ("ap", "nonhom", "qnlex", "twohom")
        for n in (2, 3)
    ]
    fam["ramsey"] = [
        (
            f"ramsey-21{m}{n}",
            [["ramsey", "number", "--k", "2", "--l", "1", "--m", str(m), "--n", str(n), "--rmax", "5"]],
        )
        for m, n in ((2, 1), (3, 1), (2, 2))
    ]
    fam["iso"] = [
        (
            f"iso-{s}",
            [
                ["gen", "sample", "--n", "2", "--count", "4", "--seed", str(s)],
                ["iso", "bnf", "--a", "-", "--b", ISO_B, "--steps", "10"],
            ],
        )
        for s in range(4)
    ]
    return fam


# Pipelines per block: one from each family, two certificates.
CLI_BLOCK = ("dim", "dpo", "flow", "dot", "certify", "certify", "ramsey", "iso")
CLI_BLOCK_SMALL = ("dim", "certify")


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def write_iso_input() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (ROOT / ISO_B).write_text(pins()["iso_b"], encoding="utf-8")


def run_pipeline(stages: list[list[str]], env) -> tuple[bytes, int]:
    """Real OS processes, one per stage, joined by pipes.  Returns the
    last stage's stdout and the largest exit code; waits for all."""
    procs: list[subprocess.Popen] = []
    try:
        prev = None
        for argv in stages:
            proc = subprocess.Popen(
                [sys.executable, "-m", "orderdim.cli", *argv],
                stdin=prev if prev is not None else subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                cwd=ROOT,
                env=env,
            )
            if prev is not None:
                prev.close()
            prev = proc.stdout
            procs.append(proc)
        out = procs[-1].stdout.read()
        procs[-1].stdout.close()
        codes = [p.wait(timeout=120) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    return out, max(codes)


def run_inprocess(main, stages: list[list[str]]) -> tuple[bytes, int]:
    """The same pipeline through cli.main in this process, stdin and
    stdout swapped for buffers."""
    data = ""
    worst = 0
    saved = sys.stdin
    try:
        for argv in stages:
            sys.stdin = io.StringIO(data)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                worst = max(worst, main(list(argv)))
            data = buf.getvalue()
    finally:
        sys.stdin = saved
    return data.encode(), worst


def cli_block(lib: Lib | None, seed: int, k: int, small: bool = False, inprocess: bool = False) -> list[Op]:
    rng = block_rng(seed, "cli-pipelines", k)
    fam = cli_families()
    env = cli_env()
    ops = []
    for family in CLI_BLOCK_SMALL if small else CLI_BLOCK:
        key, stages = rng.choice(fam[family])

        if inprocess:
            def run(_, stages=stages):
                return run_inprocess(lib.cli.main, stages)
        else:
            def run(_, stages=stages):
                return run_pipeline(stages, env)

        def check(result, key=key):
            out, code = result
            _expect(f"{key} exit code", code, 0)
            pin = pins()["cli"][key]
            _expect(f"{key} stdout bytes", len(out), pin["bytes"])
            _expect(f"{key} stdout sha256", hashlib.sha256(out).hexdigest(), pin["sha256"])
            return [key, len(out)]

        ops.append(Op(f"cli/{family}", lambda: None, run, check))
    rng.shuffle(ops)
    return ops


# --- budget probe --------------------------------------------------------


def budget_ops(lib: Lib) -> list[Op]:
    """Searches run under an explicit budget=.  Each must return the right
    answer or raise LimitExceeded; today both raise.  dim(antichain(10))
    is 2; the 3-colourings of the r x r grid without a monochromatic
    rectangle exist up to r = 10, so (3, 1, 2, 2) up to r = 7 is None."""

    def dim_check(res):
        _expect("dimension(antichain(10))", res.dim, 2)
        return res.dim

    def ramsey_check(got):
        _expect("product_ramsey_number(3, 1, 2, 2, r_max=7)", got, None)
        return got

    return [
        Op(
            "budget/dimension",
            lambda: lib.poset.antichain(10),
            lambda p: lib.dimension.dimension(p, budget=20_000),
            dim_check,
        ),
        Op(
            "budget/ramsey_number",
            lambda: None,
            lambda _: lib.ramsey.product_ramsey_number(3, 1, 2, 2, r_max=7, budget=50_000),
            ramsey_check,
        ),
    ]


BLOCKS = {
    "dim-survey": dim_block,
    "ramsey-grid": ramsey_block,
    "geometry-certs": geometry_block,
    "cli-pipelines": cli_block,
}
