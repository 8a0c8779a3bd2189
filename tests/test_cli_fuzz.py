"""Fuzzing the CLI's JSON inputs through main(), in this process.

Every input below is broken by construction: text that is not JSON,
JSON of the wrong shape, a float or a boolean where a label, a relation
cell or a coordinate goes, or a repeated label.  Each command must exit
1 and print exactly one line, a JSON object naming the error, and no
traceback may escape.  Valid posets whose labels hold quotes,
backslashes and newlines must give `export dot` well-formed DOT.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from conftest import parse_dot
from hypothesis import given, strategies as st

from orderdim.cli import main
from orderdim.geometry import sample_dn
from orderdim.poset import LinearOrder, OrderedStructure, crown

POSET = crown(2).to_json()
STRUCTURE = OrderedStructure.from_orders(
    [LinearOrder(("a", "b", "c")), LinearOrder(("b", "c", "a"))]
).to_json()
CLOUD = sample_dn(2, 3, seed=0).to_json()

# Command line up to its input file, and the valid payload whose broken
# copies that file holds; GOOD stands for a file with a valid structure.
COMMANDS = {
    "dim": (["dim", "--in"], POSET),
    "export dot": (["export", "dot", "--in"], POSET),
    "check dpo": (["check", "dpo", "--in"], CLOUD),
    "flow realizers": (["flow", "realizers", "--in"], STRUCTURE),
    "ramsey witness": (
        ["ramsey", "witness", "--k", "2", "--r", "2", "--b", "GOOD", "--a"],
        STRUCTURE,
    ),
}

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=12,
)
not_a_label = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(allow_nan=False),
    st.lists(st.text(max_size=2), max_size=2),
)
not_a_cell = st.one_of(
    st.none(), st.integers(0, 1), st.floats(allow_nan=False), st.text(max_size=2)
)
not_a_coordinate = st.one_of(
    st.booleans(), st.floats(allow_nan=False), st.none(), st.sampled_from(["1/0", "x"])
)
BAD_VALUE = {
    "elements": not_a_label,
    "orders": not_a_label,
    "lt": not_a_cell,
    "points": not_a_coordinate,
}


def _cells(payload: dict):
    """Paths to every label, relation cell and coordinate of a payload."""
    out = []
    for key in ("elements", "orders", "lt", "points"):
        value = payload.get(key, [])
        for i, item in enumerate(value):
            if isinstance(item, list):
                out.extend((key, i, j) for j in range(len(item)))
            else:
                out.append((key, i))
    return out


@st.composite
def broken_payloads(draw, payload: dict) -> str:
    """Text of a copy of payload that no command may accept."""
    kind = draw(
        st.sampled_from(
            ["text", "truncated", "shape", "missing", "cell", "duplicate", "dim"]
        )
    )
    text = json.dumps(payload)
    if kind == "text":
        return draw(st.sampled_from(["", "{", "[1,", "nul", "{'a': 1}", "\x00"])) + draw(
            st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
        )
    if kind == "truncated":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "shape":
        value = draw(json_values.filter(lambda v: not isinstance(v, dict)))
        return json.dumps(value)
    copy = json.loads(text)
    if kind == "missing" or (kind == "dim" and "dim" not in copy):
        del copy[draw(st.sampled_from(sorted(copy)))]
        copy.update(draw(st.dictionaries(st.text(max_size=3), json_values, max_size=2)))
        copy.pop("strict", None)
        if "dim" in copy and "points" in copy:
            copy["points"] = draw(not_a_coordinate)
        return json.dumps(copy)
    if kind == "dim":
        copy["dim"] = draw(
            st.one_of(st.booleans(), st.floats(allow_nan=False), st.text(max_size=2))
        )
        return json.dumps(copy)
    if kind == "duplicate":
        if "points" in copy:
            copy["points"].append(copy["points"][0])
        else:
            copy["elements"][1] = copy["elements"][0]
        return json.dumps(copy)
    path = draw(st.sampled_from(_cells(copy)))
    target = copy
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = draw(BAD_VALUE[path[0]])
    return json.dumps(copy)


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, "good.json"), "w", encoding="utf-8") as fh:
            json.dump(STRUCTURE, fh)
        yield d


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_valid_payload_is_accepted(command, workdir):
    argv, payload = COMMANDS[command]
    path = os.path.join(workdir, "input.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    argv = [os.path.join(workdir, "good.json") if a == "GOOD" else a for a in argv]
    code, out, _ = run_main(argv + [path])
    assert code == 0, out


@pytest.mark.parametrize("command", sorted(COMMANDS))
@given(data=st.data())
def test_broken_json_gives_one_error_line(command, workdir, data):
    argv, payload = COMMANDS[command]
    text = data.draw(broken_payloads(payload))
    path = os.path.join(workdir, "input.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    argv = [os.path.join(workdir, "good.json") if a == "GOOD" else a for a in argv]
    code, out, err = run_main(argv + [path])
    assert code == 1, (text, out)
    assert out.endswith("\n") and out.count("\n") == 1, out
    report = json.loads(out)
    assert set(report) == {"detail", "error"}
    assert "Traceback" not in err


def test_zero_denominator_coordinate_is_a_clean_error(workdir):
    path = os.path.join(workdir, "input.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": 2, "points": [["1/0", "1"]]}, fh)
    code, out, _ = run_main(["check", "dpo", "--in", path])
    assert code == 1
    assert json.loads(out)["error"] == "ValueError"


# Labels of valid posets for `export dot`, rich in DOT's special characters.
dot_labels = st.lists(
    st.text(st.sampled_from('ab"\\\n ->;{}'), max_size=5),
    min_size=1,
    max_size=5,
    unique=True,
)


@given(labels=dot_labels, data=st.data())
def test_export_dot_quotes_every_label(labels, data, workdir):
    # Relations only from lower to higher index: always acyclic; the
    # command reads the transitive closure of the drawn edges.
    m = len(labels)
    up = [[False] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            up[i][j] = data.draw(st.booleans())
    for k in range(m):
        for i in range(m):
            for j in range(m):
                up[i][j] = up[i][j] or (up[i][k] and up[k][j])
    path = os.path.join(workdir, "input.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"elements": labels, "lt": up}, fh)
    code, out, err = run_main(["export", "dot", "--in", path])
    assert code == 0, out
    nodes, edges = parse_dot(out)
    assert nodes == labels
    covers = [
        (labels[i], labels[j])
        for i in range(m)
        for j in range(m)
        if up[i][j] and not any(up[i][k] and up[k][j] for k in range(m))
    ]
    assert sorted(edges) == sorted(covers)
