"""End-to-end tests for the command-line surface.

Invocations go through main() in-process; stdin is monkeypatched for
pipe-style tests so outputs of one subcommand feed the next exactly as
they would in a shell.  Only a closed stdout needs a real process.
"""

import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from conftest import identity_seeded_back_and_forth, parse_dot

import orderdim
from orderdim import cli
from orderdim.cli import main
from orderdim.errors import LimitExceeded
from orderdim.homogeneity import Certificate
from orderdim.flow import symmetric_sample
from orderdim.geometry import MAX_CLOUD_DIM, MAX_SAMPLE_COORDINATES, PointCloud, sample_dn
from orderdim.poset import MAX_GENERATED_ELEMENTS, FinitePoset, OrderedStructure, crown, grid

# sha256 of `gen grid` stdout, frozen from the commit before grids became
# plain structures built by poset.grid
GRID_SHA256 = {
    (3, 2): "912ec6aff4de3d4a1c3e8a8879c55d3cd26f9db114bd9807c500681ca39fdc0e",
    (4, 3): "ba0d1706f704f51d77c6514979236736988b200aebfd2679d9e5a046df9169b0",
    (32, 2): "e6b03dcaabb79f5361ff20d285fe3611d5d56a2cfdb08c305af2deb0893a9583",
}

RAMSEY_SINGLETON_VALUE = 3  # least r with every 2-coloring of points of
# the r-chain containing a monochromatic 2-chain: pigeonhole at r=3


def run(capsys, monkeypatch, args, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(args)
    return code, capsys.readouterr().out


class TestGen:
    def test_crown_round_trips(self, capsys, monkeypatch):
        code, out = run(capsys, monkeypatch, ["gen", "crown", "--n", "3"])
        assert code == 0
        p = FinitePoset.from_json(json.loads(out))
        assert len(p) == 6
        assert p.to_json() == json.loads(out)

    def test_grid_round_trips(self, capsys, monkeypatch):
        code, out = run(
            capsys, monkeypatch, ["gen", "grid", "--m", "2", "--n", "2"]
        )
        assert code == 0
        s = OrderedStructure.from_json(json.loads(out))
        assert s.elements == ("1,1", "1,2", "2,1", "2,2")
        assert s.n == 2

    @pytest.mark.parametrize("m, n", sorted(GRID_SHA256))
    def test_grid_stdout_is_pinned(self, capsys, monkeypatch, m, n):
        # 32 x 32 is the cap
        code, out = run(capsys, monkeypatch, ["gen", "grid", "--m", str(m), "--n", str(n)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GRID_SHA256[m, n]

    def test_sample_round_trips_exactly(self, capsys, monkeypatch):
        code, out = run(
            capsys,
            monkeypatch,
            ["gen", "sample", "--n", "3", "--count", "4", "--seed", "9"],
        )
        assert code == 0
        payload = json.loads(out)
        c = PointCloud.from_json(payload)
        assert c.dim == 3 and len(c) == 4
        # fraction strings are canonical, so re-serialization is identity
        assert c.to_json() == payload

    def test_sample_count_zero_is_empty_cloud(self, capsys, monkeypatch):
        code, out = run(
            capsys, monkeypatch, ["gen", "sample", "--n", "2", "--count", "0"]
        )
        assert code == 0
        assert json.loads(out) == {"dim": 2, "points": []}

    def test_symmetric_sample_closed_under_swap(self, capsys, monkeypatch):
        code, out = run(
            capsys,
            monkeypatch,
            ["gen", "sample", "--n", "2", "--count", "2", "--symmetric"],
        )
        assert code == 0
        pts = {tuple(p) for p in json.loads(out)["points"]}
        assert {(b, a) for a, b in pts} == pts

    def test_out_writes_file(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "crown.json"
        code, out = run(
            capsys,
            monkeypatch,
            ["gen", "crown", "--n", "2", "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        assert FinitePoset.from_json(json.loads(target.read_text()))


class TestPipes:
    def test_crown_dim_is_n(self, capsys, monkeypatch):
        _, crown_json = run(capsys, monkeypatch, ["gen", "crown", "--n", "3"])
        code, out = run(capsys, monkeypatch, ["dim"], stdin_text=crown_json)
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 3
        assert len(payload["witness"]) == 3

    def test_crown6_dim_past_extension_cap(self, capsys, monkeypatch):
        _, crown_json = run(capsys, monkeypatch, ["gen", "crown", "--n", "6"])
        code, out = run(capsys, monkeypatch, ["dim"], stdin_text=crown_json)
        assert code == 0
        assert json.loads(out)["dim"] == 6

    def test_dim_max_ext_bounds_search_steps(self, capsys, monkeypatch):
        _, crown_json = run(capsys, monkeypatch, ["gen", "crown", "--n", "6"])
        code, out = run(
            capsys, monkeypatch, ["dim", "--max-ext", "5"], stdin_text=crown_json
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "LimitExceeded"
        assert "critical-pair colouring" in payload["detail"]

    def test_dim_witness_realizes_input(self, capsys, monkeypatch):
        _, crown_json = run(capsys, monkeypatch, ["gen", "crown", "--n", "2"])
        _, out = run(capsys, monkeypatch, ["dim"], stdin_text=crown_json)
        from orderdim.poset import RealizerTuple, is_realizer

        p = FinitePoset.from_json(json.loads(crown_json))
        t = RealizerTuple.from_json(json.loads(out)["witness"])
        assert is_realizer(p, t)

    def test_grid_realizer_census(self, capsys, monkeypatch):
        _, grid_json = run(
            capsys, monkeypatch, ["gen", "grid", "--m", "2", "--n", "2"]
        )
        code, out = run(
            capsys, monkeypatch, ["flow", "realizers"], stdin_text=grid_json
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["census"] == 2
        assert sorted(payload["sigmas"]) == [[0, 1], [1, 0]]

    def test_sample_check_dpo_clean(self, capsys, monkeypatch):
        _, cloud_json = run(
            capsys,
            monkeypatch,
            ["gen", "sample", "--n", "2", "--count", "4", "--seed", "3"],
        )
        code, out = run(capsys, monkeypatch, ["check", "dpo"], stdin_text=cloud_json)
        assert code == 0
        payload = json.loads(out)
        assert payload["universal_ok"]
        # a finite fragment always has empty cells: defects are reported,
        # not treated as failures
        assert isinstance(payload["density_defects"], list)

    def test_symmetric_decompose_exact(self, capsys, monkeypatch):
        _, cloud_json = run(
            capsys,
            monkeypatch,
            ["gen", "sample", "--n", "2", "--count", "2", "--symmetric"],
        )
        code, out = run(
            capsys, monkeypatch, ["flow", "decompose"], stdin_text=cloud_json
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"]
        assert payload["group_size"] == 2
        assert payload["stabilizer_size"] == 1
        assert payload["axis_permutations"] == 2
        sigmas = sorted(f["sigma"] for f in payload["factorizations"])
        assert sigmas == [[0, 1], [1, 0]]

    def test_decompose_refuses_nine_axes_under_a_small_budget(self, capsys, monkeypatch):
        # 9! coordinate permutations exceed a budget of 1000.
        monkeypatch.setenv("ORDERDIM_BUDGET", "1000")
        cloud = json.dumps({"dim": 9, "points": [[str(v) for v in range(1, 10)]]})
        code, out = run(capsys, monkeypatch, ["flow", "decompose"], stdin_text=cloud)
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == "LimitExceeded"

    def test_decompose_past_eight_points(self, capsys, monkeypatch):
        _, cloud_json = run(
            capsys,
            monkeypatch,
            ["gen", "sample", "--n", "2", "--count", "10", "--symmetric", "--seed", "3"],
        )
        code, out = run(
            capsys, monkeypatch, ["flow", "decompose"], stdin_text=cloud_json
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["group_size"] == 4
        assert payload["axis_permutations"] == 2


class TestEmbedExtendIso:
    def test_rigid_embed_matches_ranks(self, capsys, monkeypatch):
        _, grid_json = run(
            capsys, monkeypatch, ["gen", "grid", "--m", "2", "--n", "2"]
        )
        code, out = run(capsys, monkeypatch, ["embed", "rigid"], stdin_text=grid_json)
        assert code == 0
        payload = json.loads(out)
        s = OrderedStructure.from_json(json.loads(grid_json))
        for e, coord in zip(payload["elements"], payload["coordinates"]):
            assert coord == [o.rank[e] for o in s.realizers.orders]

    def test_forth_covers_all_elements(self, capsys, monkeypatch, tmp_path):
        struct = tmp_path / "s.json"
        cloud = tmp_path / "c.json"
        run(
            capsys,
            monkeypatch,
            ["gen", "grid", "--m", "2", "--n", "2", "--out", str(struct)],
        )
        run(
            capsys,
            monkeypatch,
            ["gen", "sample", "--n", "2", "--count", "0", "--out", str(cloud)],
        )
        code, out = run(
            capsys,
            monkeypatch,
            ["extend", "forth", "--struct", str(struct), "--cloud", str(cloud)],
        )
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload["mapping"]) == ["1,1", "1,2", "2,1", "2,2"]
        assert len(payload["cloud"]["points"]) == 4

    def test_iso_table_is_bijective(self, capsys, monkeypatch, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(
            capsys,
            monkeypatch,
            ["gen", "sample", "--n", "2", "--count", "2", "--seed", "1",
             "--out", str(a)],
        )
        run(
            capsys,
            monkeypatch,
            ["gen", "sample", "--n", "2", "--count", "3", "--seed", "2",
             "--out", str(b)],
        )
        code, out = run(
            capsys,
            monkeypatch,
            ["iso", "bnf", "--a", str(a), "--b", str(b), "--steps", "6"],
        )
        assert code == 0
        payload = json.loads(out)
        lefts = [row[0] for row in payload["table"]]
        rights = [row[1] for row in payload["table"]]
        assert len(set(lefts)) == len(lefts)
        assert len(set(rights)) == len(rights)
        # every original point of both inputs got matched within 6 steps
        assert {"p0", "p1"} <= set(lefts)
        assert {"p0", "p1", "p2"} <= set(rights)


    def test_iso_refuses_negative_steps(self, capsys, monkeypatch, tmp_path):
        a = tmp_path / "a.json"
        run(
            capsys,
            monkeypatch,
            ["gen", "sample", "--n", "2", "--count", "2", "--out", str(a)],
        )
        code, out = run(
            capsys,
            monkeypatch,
            ["iso", "bnf", "--a", str(a), "--b", str(a), "--steps", "-2"],
        )
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == "TooSmall"


class TestCertify:
    @pytest.mark.parametrize("kind", ["ap", "nonhom", "qnlex", "twohom"])
    def test_certificates_replay(self, capsys, monkeypatch, kind):
        code, out = run(capsys, monkeypatch, ["certify", kind, "--n", "2"])
        assert code == 0
        cert = Certificate.from_json(json.loads(out))
        assert cert.replay()

    def test_nonhom_n3_replays(self, capsys, monkeypatch):
        code, out = run(capsys, monkeypatch, ["certify", "nonhom", "--n", "3"])
        assert code == 0
        assert Certificate.from_json(json.loads(out)).replay()

    @pytest.mark.parametrize(
        "kind, n, phase",
        [
            ("ap", 512, "the amalgamation diagram"),
            *(
                (kind, n, f"point clouds are capped at {MAX_CLOUD_DIM} dimensions")
                for kind in ("nonhom", "qnlex", "twohom")
                for n in (MAX_CLOUD_DIM + 1, 100_000_000)
            ),
        ],
    )
    def test_sizes_past_the_limits_are_single_line_json(
        self, capsys, monkeypatch, kind, n, phase
    ):
        # refused before any point or diagram row is built
        tracemalloc.start()
        try:
            code, out = run(capsys, monkeypatch, ["certify", kind, "--n", str(n)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out.count("\n") == 1
        payload = json.loads(out)
        assert payload["error"] == "LimitExceeded"
        assert payload["detail"].startswith(phase)
        assert peak < 1 << 20


class TestRamsey:
    def test_singleton_number(self, capsys, monkeypatch):
        code, out = run(
            capsys,
            monkeypatch,
            ["ramsey", "number", "--k", "2", "--l", "1", "--m", "2",
             "--n", "1", "--rmax", "5"],
        )
        assert code == 0
        assert json.loads(out) == {"value": RAMSEY_SINGLETON_VALUE}

    def test_number_none_past_rmax(self, capsys, monkeypatch):
        code, out = run(
            capsys,
            monkeypatch,
            ["ramsey", "number", "--k", "2", "--l", "1", "--m", "2",
             "--n", "1", "--rmax", "2"],
        )
        assert code == 0
        assert json.loads(out) == {"value": None}

    def test_number_honours_env_budget(self, capsys, monkeypatch):
        args = ["ramsey", "number", "--k", "2", "--l", "1", "--m", "2",
                "--n", "2", "--rmax", "5"]
        code, out = run(capsys, monkeypatch, args)
        assert code == 0
        assert out == '{\n  "value": 5\n}\n'
        monkeypatch.setenv("ORDERDIM_BUDGET", "100")
        code, out = run(capsys, monkeypatch, args)
        assert code == 1
        assert out.count("\n") == 1
        payload = json.loads(out)
        assert payload["error"] == "LimitExceeded"
        assert payload["detail"].startswith("grid coloring search at r=")

    def test_witness_check(self, capsys, monkeypatch, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(
            capsys,
            monkeypatch,
            ["gen", "grid", "--m", "1", "--n", "1", "--out", str(a)],
        )
        run(
            capsys,
            monkeypatch,
            ["gen", "grid", "--m", "2", "--n", "1", "--out", str(b)],
        )
        code, out = run(
            capsys,
            monkeypatch,
            ["ramsey", "witness", "--a", str(a), "--b", str(b),
             "--k", "2", "--r", "3"],
        )
        assert code == 0
        assert json.loads(out) == {"holds": True}

    @pytest.mark.parametrize("r", ["5", "6"])
    def test_witness_of_a_point_in_the_square_past_the_colorings_scan(
        self, capsys, monkeypatch, tmp_path, r
    ):
        # 2^(r^2) colorings of the grid's points: decided by the coloring
        # kernel, not walked one by one
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, monkeypatch, ["gen", "grid", "--m", "1", "--n", "2", "--out", str(a)])
        run(capsys, monkeypatch, ["gen", "grid", "--m", "2", "--n", "2", "--out", str(b)])
        code, out = run(
            capsys,
            monkeypatch,
            ["ramsey", "witness", "--a", str(a), "--b", str(b), "--k", "2", "--r", r],
        )
        assert code == 0
        assert json.loads(out) == {"holds": True}

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_witness_refuses_fewer_than_one_color(self, capsys, monkeypatch, tmp_path, k):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, monkeypatch, ["gen", "grid", "--m", "1", "--n", "1", "--out", str(a)])
        run(capsys, monkeypatch, ["gen", "grid", "--m", "2", "--n", "1", "--out", str(b)])
        code, out = run(
            capsys,
            monkeypatch,
            ["ramsey", "witness", "--a", str(a), "--b", str(b),
             "--k", k, "--r", "3"],
        )
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": "TooSmall", "detail": "colorings need k >= 1"}


class TestEnumerationsPastTheBudget:
    """Enumerations whose size is known up front are refused before any
    work, as one LimitExceeded JSON line."""

    def assert_refused(self, code, out, phase):
        assert code == 1
        assert out.count("\n") == 1
        payload = json.loads(out)
        assert payload["error"] == "LimitExceeded"
        assert payload["detail"].startswith(phase)

    @pytest.mark.parametrize("n, count", [(16, 1), (40, 2)])
    def test_check_dpo_cells(self, capsys, monkeypatch, n, count):
        _, cloud = run(
            capsys, monkeypatch, ["gen", "sample", "--n", str(n), "--count", str(count)]
        )
        code, out = run(capsys, monkeypatch, ["check", "dpo"], stdin_text=cloud)
        self.assert_refused(code, out, "cell enumeration: cells times axes: ")

    def test_ramsey_witness_copy_candidates(self, capsys, monkeypatch, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, monkeypatch, ["gen", "grid", "--m", "2", "--n", "1", "--out", str(a)])
        run(capsys, monkeypatch, ["gen", "grid", "--m", "3", "--n", "1", "--out", str(b)])
        # one order each: the 3-chain's C(1000, 3) subsets of the 1000^1 grid
        code, out = run(
            capsys,
            monkeypatch,
            ["ramsey", "witness", "--a", str(a), "--b", str(b),
             "--k", "2", "--r", "1000"],
        )
        self.assert_refused(
            code, out, "copy coloring search: subsets of the host to test as copies: "
        )


class TestExport:
    def test_dot_edges_are_covers(self, capsys, monkeypatch):
        _, crown_json = run(capsys, monkeypatch, ["gen", "crown", "--n", "3"])
        code, out = run(capsys, monkeypatch, ["export", "dot"], stdin_text=crown_json)
        assert code == 0
        p = FinitePoset.from_json(json.loads(crown_json))
        want = set()
        for a in p.elements:
            for b in p.elements:
                if p.less(a, b) and not any(
                    p.less(a, c) and p.less(c, b) for c in p.elements
                ):
                    want.add((a, b))
        got = set()
        for line in out.splitlines():
            if "->" in line:
                left, right = line.strip().rstrip(";").split(" -> ")
                got.add((left.strip('"'), right.strip('"')))
        assert got == want

    def test_dot_quotes_grid_labels(self, capsys, monkeypatch):
        _, grid_json = run(
            capsys, monkeypatch, ["gen", "grid", "--m", "2", "--n", "2"]
        )
        poset_only = json.loads(grid_json)
        poset_only.pop("orders")
        code, out = run(
            capsys, monkeypatch, ["export", "dot"],
            stdin_text=json.dumps(poset_only),
        )
        assert code == 0
        assert '"1,1" -> "1,2";' in out

    def test_dot_escapes_quotes_backslashes_and_newlines(self, capsys, monkeypatch):
        labels = ['a"b', "c\\d", "e\nf", "g\\", '"', ""]
        lt = [[False] * len(labels) for _ in labels]
        lt[0][1] = lt[1][3] = lt[2][3] = True
        lt[0][3] = True
        code, out = run(
            capsys, monkeypatch, ["export", "dot"],
            stdin_text=json.dumps({"elements": labels, "lt": lt}),
        )
        assert code == 0
        assert '  "a\\"b" -> "c\\\\d";' in out.splitlines()
        assert '  "g\\\\";' in out.splitlines()
        nodes, edges = parse_dot(out)
        assert nodes == labels
        assert edges == [("a\"b", "c\\d"), ("c\\d", "g\\"), ("e\nf", "g\\")]


class TestDeterminismAndErrors:
    def test_byte_identical_reruns(self, capsys, monkeypatch):
        args = ["gen", "sample", "--n", "3", "--count", "5", "--seed", "7"]
        _, first = run(capsys, monkeypatch, args)
        _, second = run(capsys, monkeypatch, args)
        assert first == second

    def test_dim_deterministic(self, capsys, monkeypatch):
        _, crown_json = run(capsys, monkeypatch, ["gen", "crown", "--n", "3"])
        _, first = run(capsys, monkeypatch, ["dim"], stdin_text=crown_json)
        _, second = run(capsys, monkeypatch, ["dim"], stdin_text=crown_json)
        assert first == second

    def test_library_error_is_single_line_json(self, capsys, monkeypatch):
        bad = json.dumps({"elements": ["a"], "lt": [[True]]})
        code, out = run(capsys, monkeypatch, ["dim"], stdin_text=bad)
        assert code == 1
        assert out.count("\n") == 1
        payload = json.loads(out)
        assert payload["error"] == "ReflexiveViolation"
        assert payload["detail"]

    def test_toosmall_error(self, capsys, monkeypatch):
        code, out = run(
            capsys, monkeypatch, ["gen", "sample", "--n", "1", "--count", "2"]
        )
        assert code == 1
        assert json.loads(out)["error"] == "TooSmall"

    def test_usage_error_exits_two(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_subcommand_exits_two(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_recursion_error_is_single_line_json(self, capsys, monkeypatch):
        def too_deep(p, budget=None):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(sys.modules["orderdim.dimension"], "dimension", too_deep)
        _, crown_json = run(capsys, monkeypatch, ["gen", "crown", "--n", "3"])
        code, out = run(capsys, monkeypatch, ["dim"], stdin_text=crown_json)
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out) == {
            "error": "RecursionError",
            "detail": "maximum recursion depth exceeded",
        }

    @pytest.mark.parametrize(
        "args, payload",
        [
            (["dim"], {"elements": "ab", "lt": [[False, False], [False, False]]}),
            (["export", "dot"], {"elements": [1, 2], "lt": [[False, False], [False, False]]}),
            (["dim"], {"elements": ["a", "b"], "lt": [[False, 1], [False, False]]}),
            (["dim"], {"elements": ["a", "b"], "lt": [["x", False], [False, False]]}),
            (
                ["flow", "realizers"],
                {"elements": ["a", "b"], "lt": [[False, False], [False, False]],
                 "orders": ["ab", "ba"]},
            ),
        ],
    )
    def test_malformed_poset_json_is_single_line_json(self, capsys, monkeypatch, args, payload):
        code, out = run(capsys, monkeypatch, args, stdin_text=json.dumps(payload))
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == "TypeError"

    @pytest.mark.parametrize("args", [["check", "dpo"], ["flow", "decompose"]])
    @pytest.mark.parametrize(
        "payload",
        [
            {"dim": 2.7, "points": [["1/1", "2/1"]]},
            {"dim": "2", "points": [["1/1", "2/1"]]},
            {"dim": 2, "points": [[True, False]]},
            {"dim": 2, "points": [["1/1", "2/1"]], "strict": "false"},
        ],
    )
    def test_malformed_cloud_json_is_single_line_json(self, capsys, monkeypatch, args, payload):
        code, out = run(capsys, monkeypatch, args, stdin_text=json.dumps(payload))
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == "TypeError"

    def test_failed_certificate_replay_is_single_line_json(self, capsys, monkeypatch):
        identity_seeded_back_and_forth(monkeypatch)
        code, out = run(capsys, monkeypatch, ["certify", "twohom"])
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == "SelfCheckFailed"

    def test_missing_input_file_is_single_line_json(self, capsys, monkeypatch, tmp_path):
        missing = tmp_path / "missing.json"
        code, out = run(capsys, monkeypatch, ["dim", "--in", str(missing)])
        assert code == 1
        assert out.count("\n") == 1
        payload = json.loads(out)
        assert payload["error"] == "FileNotFoundError"
        assert str(missing) in payload["detail"]

    def test_float_coordinates_are_refused(self, capsys, monkeypatch):
        cloud = '{"dim": 2, "points": [[1.5, 2]]}'
        code, out = run(capsys, monkeypatch, ["check", "dpo"], stdin_text=cloud)
        assert code == 1
        assert out.count("\n") == 1
        payload = json.loads(out)
        assert payload["error"] == "TypeError"
        assert "floats are not exact" in payload["detail"]


# Runs the CLI under an address-space cap, so an allocation sized by the
# input fails here instead of exhausting the machine.
CAPPED_CLI = r"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from orderdim.cli import main
sys.exit(main(sys.argv[1:]))
"""


def assert_capped_cli_refuses(args, stdin=""):
    """The CLI under CAPPED_CLI exits 1 with one LimitExceeded JSON line
    and nothing on stderr, so no traceback."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(orderdim.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert out.returncode == 1, out.stderr
    assert out.stdout.count("\n") == 1
    assert json.loads(out.stdout)["error"] == "LimitExceeded"
    assert out.stderr == ""


CLOUD = {"dim": 2, "points": []}
POSET = {"elements": ["a"], "lt": [[False]]}


class TestPayloadOfAnotherKind:
    """A payload that is no JSON object, or lacks a field its reader
    needs, is one TypeError line that says so."""

    @pytest.mark.parametrize("command, payload, detail", [
        *[(c, CLOUD, "has no 'elements' field")
          for c in ("dim", "flow realizers", "embed rigid", "export dot")],
        *[(c, POSET, "has no 'dim' field") for c in ("check dpo", "flow decompose")],
        *[(c, payload, "is not a JSON object")
          for c in ("dim", "flow realizers", "check dpo") for payload in ([], "x")],
    ])
    def test_one_type_error_line(self, capsys, monkeypatch, command, payload, detail):
        code, out = run(capsys, monkeypatch, command.split(), stdin_text=json.dumps(payload))
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": "TypeError", "detail": f"the payload {detail}"}


class TestCloudInputGuard:
    """A cloud's dim is refused before anything is allocated per axis."""

    HUGE = {"dim": 1_000_000_000, "points": []}

    @pytest.mark.parametrize("command", ["check dpo", "iso bnf", "flow decompose"])
    def test_huge_dim_is_one_json_line(self, command, tmp_path):
        cloud = tmp_path / "cloud.json"
        cloud.write_text(json.dumps(self.HUGE))
        args = command.split()
        if command == "iso bnf":
            args += ["--a", str(cloud), "--b", str(cloud)]
        assert_capped_cli_refuses(args, json.dumps(self.HUGE))

    def test_cap_is_checked_in_the_constructor(self):
        with pytest.raises(LimitExceeded, match="capped at 1000 dimensions"):
            PointCloud(MAX_CLOUD_DIM + 1, [])
        assert PointCloud(MAX_CLOUD_DIM, []).axis_values(MAX_CLOUD_DIM - 1) == frozenset()


class TestGenSizeGuard:
    """gen refuses a size it cannot build before allocating anything."""

    @pytest.mark.parametrize(
        "command",
        [
            "gen crown --n 100000000",
            "gen sample --n 100000000 --count 1",
            "gen sample --n 2 --count 100000000",
            "gen grid --m 100000 --n 100000",
            "gen grid --m 1 --n 100000000",
            "gen sample --symmetric --n 12 --count 1",
            "gen sample --symmetric --n 100000000 --count 1",
        ],
    )
    def test_oversized_gen_is_one_json_line(self, command):
        assert_capped_cli_refuses(command.split())

    def test_caps_are_checked_in_the_builders(self):
        with pytest.raises(LimitExceeded, match=r"^crown\(513\) is past the cap of 1024 elements"):
            crown(MAX_GENERATED_ELEMENTS // 2 + 1)
        assert len(grid(32, 2)) == MAX_GENERATED_ELEMENTS
        for m, n in ((33, 2), (2, 11), (1, MAX_GENERATED_ELEMENTS + 1)):
            with pytest.raises(LimitExceeded, match="past the cap of 1024 points and axes"):
                grid(m, n)
        with pytest.raises(LimitExceeded, match="and 500000 coordinates"):
            sample_dn(2, MAX_SAMPLE_COORDINATES // 2 + 1, seed=0)
        with pytest.raises(LimitExceeded, match="caps of 1000 dimensions"):
            sample_dn(MAX_CLOUD_DIM + 1, 0, seed=0)
        # 9 axes: one orbit of 9! points is 3,265,920 coordinates.
        with pytest.raises(LimitExceeded, match="^362880 points of dimension 9"):
            symmetric_sample(9, 1)


class TestClosedStdout:
    """A reader that closes the pipe early gets exit 1 and an empty stderr."""

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "args, stdin",
        [
            (["gen", "crown", "--n", "3"], b""),
            (["dim"], b"{bad"),  # the error line meets the closed pipe
        ],
        ids=["output", "error"],
    )
    def test_exits_one_without_traceback(self, args, stdin, unbuffered):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(orderdim.__file__)))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "orderdim.cli", *args],
                input=stdin,
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert out.returncode == 1
        assert out.stderr == b""


class TestProcessEntry:
    """run() is main(), then a frozen collector, then sys.exit with
    main()'s code."""

    @pytest.fixture
    def events(self, monkeypatch, capsys):
        # freeze records the stdout written before it, exit the code
        seen = []
        monkeypatch.setattr(gc, "freeze", lambda: seen.append(("freeze", capsys.readouterr().out)))

        def exit_(code):
            seen.append(("exit", code))
            raise SystemExit(code)

        monkeypatch.setattr(sys, "exit", exit_)
        return seen

    def test_freezes_once_after_main_returns(self, events, monkeypatch):
        monkeypatch.setattr(cli, "main", lambda: events.append(("main",)) or 3)
        with pytest.raises(SystemExit):
            cli.run()
        assert events == [("main",), ("freeze", ""), ("exit", 3)]

    @pytest.mark.parametrize(
        "argv, stdin, code",
        [(["gen", "crown", "--n", "3"], "", 0), (["dim"], "{bad", 1)],
        ids=["output", "error"],
    )
    def test_exits_with_mains_code_after_its_output(self, events, monkeypatch, capsys, argv, stdin, code):
        expected = run(capsys, monkeypatch, argv, stdin)
        assert expected[0] == code
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        monkeypatch.setattr("sys.argv", ["orderdim", *argv])
        with pytest.raises(SystemExit):
            cli.run()
        assert events == [("freeze", expected[1]), ("exit", code)]

    def test_exits_one_on_a_broken_pipe(self, events, monkeypatch, tmp_path):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

            def fileno(self):
                return fd

        # main points the stdout descriptor at devnull: give it one to spare
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr("sys.stdout", ClosedPipe())
            monkeypatch.setattr("sys.argv", ["orderdim", "gen", "crown", "--n", "3"])
            with pytest.raises(SystemExit):
                cli.run()
        finally:
            os.close(fd)
        assert events == [("freeze", ""), ("exit", 1)]
