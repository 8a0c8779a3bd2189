"""Byte pins for the stdout of `embed rigid`, `extend forth` and `iso bnf`.

Each case runs the command in-process on fixed inputs and compares the
length and sha256 of its stdout with values frozen from an earlier
commit.  A refactor of rank placement, gap regions or back-and-forth
must leave every byte of these outputs as it was.  The CLI's own JSON
emitter is held to json.dumps(sort_keys=True, indent=2), byte for byte,
on these outputs and on drawn JSON values.
"""

import hashlib
import io
import json

import pytest
from hypothesis import given, strategies as st

from orderdim.cli import _json_text, main
from orderdim.poset import LinearOrder, OrderedStructure, grid


def structure(*orders: str) -> dict:
    """The structure realized by the given orders, each a space-separated
    label list from bottom to top."""
    return OrderedStructure.from_orders([LinearOrder(o.split()) for o in orders]).to_json()


def cloud(dim: int, *points: str) -> dict:
    """A strict cloud, each point a space-separated list of 'p/q' values."""
    return {"dim": dim, "points": [p.split() for p in points]}


STRUCTURES = {
    "grid2x2": grid(2, 2).to_json(),
    "grid3x2": grid(3, 2).to_json(),
    "four-in-two": structure("a b c d", "b d a c"),
    "five-in-three": structure("a b c d e", "e c a d b", "c b e a d"),
    "chain3-in-three": structure("x y z", "x y z", "x y z"),
}

CLOUDS = {
    "empty2": cloud(2),
    "empty3": cloud(3),
    "three2": cloud(2, "1/2 3/1", "-1/1 1/4", "5/3 -2/1"),
    "five2": cloud(2, "0/1 0/1", "1/1 -1/1", "-1/1 1/1", "2/1 2/1", "1/3 7/5"),
    "four3": cloud(3, "0/1 1/1 2/1", "3/1 -1/1 1/2", "-2/1 4/1 5/1", "1/7 2/7 -3/7"),
}

# name -> (arguments, {option or "stdin": ("s" structure or "c" cloud, input name)})
CASES = {
    "embed rigid grid2x2": (["embed", "rigid"], {"stdin": ("s", "grid2x2")}),
    "embed rigid grid3x2": (["embed", "rigid"], {"stdin": ("s", "grid3x2")}),
    "embed rigid four-in-two": (["embed", "rigid"], {"stdin": ("s", "four-in-two")}),
    "embed rigid five-in-three": (["embed", "rigid"], {"stdin": ("s", "five-in-three")}),
    "extend forth grid2x2 empty2": (
        ["extend", "forth"], {"--struct": ("s", "grid2x2"), "--cloud": ("c", "empty2")}
    ),
    "extend forth grid3x2 three2": (
        ["extend", "forth"], {"--struct": ("s", "grid3x2"), "--cloud": ("c", "three2")}
    ),
    "extend forth four-in-two five2": (
        ["extend", "forth"], {"--struct": ("s", "four-in-two"), "--cloud": ("c", "five2")}
    ),
    "extend forth five-in-three four3": (
        ["extend", "forth"], {"--struct": ("s", "five-in-three"), "--cloud": ("c", "four3")}
    ),
    "extend forth chain3-in-three empty3": (
        ["extend", "forth"], {"--struct": ("s", "chain3-in-three"), "--cloud": ("c", "empty3")}
    ),
    "iso bnf three2 five2 steps 7": (
        ["iso", "bnf", "--steps", "7"], {"--a": ("c", "three2"), "--b": ("c", "five2")}
    ),
    "iso bnf five2 three2 steps 12": (
        ["iso", "bnf", "--steps", "12"], {"--a": ("c", "five2"), "--b": ("c", "three2")}
    ),
    "iso bnf empty3 four3 steps 6": (
        ["iso", "bnf", "--steps", "6"], {"--a": ("c", "empty3"), "--b": ("c", "four3")}
    ),
    "iso bnf four3 four3 steps 9": (
        ["iso", "bnf", "--steps", "9"], {"--a": ("c", "four3"), "--b": ("c", "four3")}
    ),
}

# name -> (stdout length, sha256 of stdout)
PINS = {
    "embed rigid five-in-three": (286, "1bf0d475e184824ecfef85410252a8484f6245830d15ae45eb94fe486a46314d"),
    "embed rigid four-in-two": (202, "39ffe6daa94abc5bb126a2f5408ff83506d8784f46852b80e3d84f9b06488e69"),
    "embed rigid grid2x2": (210, "336c9d947c2b3fa068f3ba79ebdb2254907f91eef7d354d8d6de2598d6a6680e"),
    "embed rigid grid3x2": (415, "9ae196c1f7b25be740120f6cd88b153c42f71e0a204330406f5d80d2b9bcd0a5"),
    "extend forth chain3-in-three empty3": (294, "ba6c57f6ade81724c75864622462692380d02cd51695ad5afba26d3952c2341d"),
    "extend forth five-in-three four3": (692, "db0b98ea0b27743c6f620bac7e083d607f925a27465ba9deac25718159c6cfc2"),
    "extend forth four-in-two five2": (540, "d228cab26dbe1affd871af0b12ba579786c539b13ff6c996fd969ed1b87042ca"),
    "extend forth grid2x2 empty2": (315, "7a93242d9e770b949c7c178d4eec5c995b1bf69703c666b192aa5e9543c493d5"),
    "extend forth grid3x2 three2": (757, "70ed96c20fcfb481f21867351290a989e2d72ab70201c67e42be5f215d1c6749"),
    "iso bnf empty3 four3 steps 6": (1074, "17441c5b840e2561e92c00744912580c929ef6c38610d23242d58e73ab53f15b"),
    "iso bnf five2 three2 steps 12": (1669, "d9daad6b6b6ac8f018df7b0b67cd717cc28c15971f26895d4aba25f1a2897618"),
    "iso bnf four3 four3 steps 9": (1554, "31945c89a1807993073888176d2d0695f607cc918036dad49a9efff854bf1157"),
    "iso bnf three2 five2 steps 7": (1070, "b35440f1f125aa0c28478d442b737f6f16fd1111c267816a8aedeb6e62835938"),
}


def run_case(name: str, tmp_path, monkeypatch, capsys) -> bytes:
    args, inputs = CASES[name]
    args = list(args)
    for option, (kind, key) in inputs.items():
        payload = json.dumps((STRUCTURES if kind == "s" else CLOUDS)[key])
        if option == "stdin":
            monkeypatch.setattr("sys.stdin", io.StringIO(payload))
            continue
        path = tmp_path / f"{option.strip('-')}.json"
        path.write_text(payload, encoding="utf-8")
        args += [option, str(path)]
    capsys.readouterr()
    assert main(args) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_is_pinned(name, tmp_path, monkeypatch, capsys):
    out = run_case(name, tmp_path, monkeypatch, capsys)
    assert (len(out), hashlib.sha256(out).hexdigest()) == PINS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_stdout_is_json_dumps_bytes(name, tmp_path, monkeypatch, capsys):
    out = run_case(name, tmp_path, monkeypatch, capsys).decode()
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.lists(st.text()) | st.lists(st.integers()) | st.lists(st.booleans())
    | st.dictionaries(st.text(), inner),
    max_leaves=30,
)


@given(JSON_VALUES)
def test_json_text_is_json_dumps_bytes(value):
    assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.5, {1: "a"}, {"a"}, [b"x"]], ids=["float", "int-key", "set", "bytes"])
def test_json_text_refuses_what_to_json_never_builds(value):
    with pytest.raises(TypeError):
        _json_text(value)
