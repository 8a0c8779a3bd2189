"""The bit-row poset kernel against the numpy oracles, and the numpy guard.

Posets store their strict order as one Python int per row; the dense
matrix `FinitePoset.lt` is built, and numpy imported, only when read.
The oracles in conftest are the matrix code the kernel replaced, so
every verdict, error and tie-break is compared with it on shuffled
random relations.  The guard runs the CLI with numpy made unimportable.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import orderdim
from orderdim.cli import main
from orderdim.errors import CycleIntroduced, ElementMismatch, OrderError, SelfCheckFailed
from orderdim.poset import (
    FinitePoset,
    LinearOrder,
    RealizerTuple,
    _find_cycle,
    crown,
    is_realizer,
    szpilrajn_extend,
    validate_poset,
)

from conftest import (
    oracle_covers,
    oracle_is_realizer,
    oracle_szpilrajn_extend,
    oracle_validate_poset,
    random_relation,
)

ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(orderdim.__file__)))


def outcome(fn, *args):
    """What a call did: its value, or its error's type and arguments."""
    try:
        return "ok", fn(*args)
    except OrderError as exc:
        return type(exc), exc.args, getattr(exc, "cycle", None)


def random_forced(rng: random.Random, p: FinitePoset) -> list[tuple[str, str]]:
    """A few ordered pairs to force; reversed relations make cycles."""
    return [
        (rng.choice(p.elements), rng.choice(p.elements))
        for _ in range(rng.randrange(7))
    ]


@settings(max_examples=300)
@given(st.integers(0, 2**32), st.integers(1, 7))
def test_validate_poset_matches_oracle(seed, m):
    labels, mat = random_relation(random.Random(seed), m)
    want = outcome(oracle_validate_poset, labels, mat)
    assert outcome(validate_poset, labels, mat) == want
    assert outcome(validate_poset, labels, mat.tolist()) == want
    if want[0] == "ok":
        assert np.array_equal(want[1].lt, mat)


@settings(max_examples=200)
@given(st.integers(0, 2**32), st.integers(1, 7))
def test_poset_operations_match_oracle(seed, m):
    rng = random.Random(seed)
    labels, mat = random_relation(rng, m)
    try:
        p = oracle_validate_poset(labels, mat)
    except OrderError:
        return
    assert p.covers() == oracle_covers(p)
    assert szpilrajn_extend(p) == oracle_szpilrajn_extend(p)
    for _ in range(3):
        forced = random_forced(rng, p)
        assert outcome(szpilrajn_extend, p, forced) == outcome(
            oracle_szpilrajn_extend, p, forced
        )
    orders = []
    for _ in range(rng.randrange(1, 4)):
        if rng.random() < 0.5:
            seq = list(p.elements)
            rng.shuffle(seq)
            orders.append(LinearOrder(seq))
        else:
            try:
                orders.append(szpilrajn_extend(p, random_forced(rng, p)))
            except CycleIntroduced:
                orders.append(szpilrajn_extend(p))
    t = RealizerTuple(orders)
    assert is_realizer(p, t) == oracle_is_realizer(p, t)
    q = t.intersection(p.elements)
    assert is_realizer(q, t)
    assert oracle_is_realizer(q, t)


def test_self_loop_forced_pair_is_a_one_cycle():
    p = crown(2)
    with pytest.raises(CycleIntroduced) as exc:
        szpilrajn_extend(p, [("a1", "a1")])
    assert exc.value.cycle == ("a1", "a1")


def test_find_cycle_without_cycle_is_a_self_check_failure():
    with pytest.raises(SelfCheckFailed):
        _find_cycle([0b10, 0b100, 0], 0, ("a", "b", "c"))


class TestLazyMatrix:
    def test_lt_is_read_only_bool_matrix_equal_to_rows(self):
        p = crown(3)
        assert p.lt.dtype == bool
        assert not p.lt.flags.writeable
        for i, row in enumerate(p.up):
            assert [bool(row >> j & 1) for j in range(len(p))] == p.lt[i].tolist()
        assert p.lt is p.lt

    def test_constructor_takes_nested_lists_and_arrays(self):
        rows = [[False, True], [False, False]]
        assert FinitePoset(("a", "b"), rows) == FinitePoset(("a", "b"), np.array(rows))
        assert FinitePoset(("a", "b"), rows).up == (0b10, 0)

    @pytest.mark.parametrize(
        "lt", [[[False, True]], [[False], [False, True]], [False, True], None, "ab"]
    )
    def test_wrong_shape_rejected(self, lt):
        with pytest.raises(ElementMismatch):
            validate_poset(("a", "b"), lt)

    def test_from_rows_rejects_out_of_range_bits(self):
        with pytest.raises(ElementMismatch):
            FinitePoset.from_rows(("a", "b"), [0b100, 0])


# --- numpy guard -------------------------------------------------------

PIPELINES = {
    "dim": [["gen", "crown", "--n", "3"], ["dim"]],
    "dpo": [["gen", "sample", "--n", "2", "--count", "5", "--seed", "1"], ["check", "dpo"]],
    "flow": [["gen", "grid", "--m", "2", "--n", "2"], ["flow", "realizers"]],
    "dot": [["gen", "crown", "--n", "3"], ["export", "dot"]],
    **{
        f"certify-{kind}": [["certify", kind, "--n", "2"]]
        for kind in ("ap", "nonhom", "qnlex", "twohom")
    },
    "ramsey": [["ramsey", "number", "--k", "2", "--l", "1", "--m", "2", "--n", "1", "--rmax", "5"]],
    "iso": [
        ["gen", "sample", "--n", "2", "--count", "4", "--seed", "0"],
        ["iso", "bnf", "--a", "-", "--b", "{b}", "--steps", "10"],
    ],
}

# Runs each pipeline through cli.main with numpy unimportable, then lifts
# the block and reads `lt` of the poset the `dim` pipeline generated.
GUARDED = r"""
import io, json, sys
from contextlib import redirect_stdout
sys.modules["numpy"] = None
import orderdim
from orderdim.cli import main
results = {}
for key, stages in json.loads(sys.argv[1]).items():
    data, runs = "", []
    for argv in stages:
        sys.stdin = io.StringIO(data)
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
        data = buf.getvalue()
        runs.append([code, data])
    results[key] = runs
blocked = sys.modules["numpy"] is None
del sys.modules["numpy"]
p = orderdim.FinitePoset.from_json(json.loads(results["dim"][0][1]))
lt = p.lt
print(json.dumps({
    "results": results,
    "blocked": blocked,
    "lt": lt.tolist(),
    "dtype": str(lt.dtype),
    "writeable": bool(lt.flags.writeable),
    "up": list(p.up),
}))
"""


def run_inprocess(monkeypatch, capsys, stages):
    data, runs = "", []
    for argv in stages:
        monkeypatch.setattr("sys.stdin", io.StringIO(data))
        code = main(argv)
        data = capsys.readouterr().out
        runs.append([code, data])
    return runs


def test_cli_runs_without_numpy(tmp_path, monkeypatch, capsys):
    b = tmp_path / "b.json"
    assert main(["gen", "sample", "--n", "2", "--count", "4", "--seed", "3", "--out", str(b)]) == 0
    pipelines = json.loads(json.dumps(PIPELINES).replace("{b}", str(b)))
    out = subprocess.run(
        [sys.executable, "-c", GUARDED, json.dumps(pipelines)],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["blocked"]
    for key, stages in pipelines.items():
        runs = got["results"][key]
        assert [code for code, _ in runs] == [0] * len(stages), key
        assert runs == run_inprocess(monkeypatch, capsys, stages), key
    assert got["dtype"] == "bool" and not got["writeable"]
    assert got["lt"] == [
        [bool(row >> j & 1) for j in range(len(got["up"]))] for row in got["up"]
    ]


def test_import_leaves_numpy_unloaded():
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import orderdim, orderdim.cli, sys; print('numpy' in sys.modules)",
        ],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
