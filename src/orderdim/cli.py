"""Command-line surface: generate, analyze, certify, export.

Every subcommand wraps one library operation family.  JSON is the only
interchange format; fractions travel as "p/q" strings, so piping output
between subcommands is lossless.  Inputs default to stdin (a lone "-"
also means stdin), output goes to stdout unless --out is given.  Library
errors, unreadable files, and a search that recurses too deep, exit 1
after printing a single-line error JSON; usage errors exit 2 via
argparse.  A reader that closes stdout early gets exit 1 and no
traceback.

Each handler imports the library modules it calls, when it is called,
so a process loads only what its subcommand runs: `gen crown` and
`export dot` load poset alone (beyond the package's eager core),
`ramsey number` and `gen grid` add ramsey but no geometry, and `flow
realizers` adds flow alone.  No command loads dataclasses or inspect.
`python -X importtime -m orderdim.cli <cmd>` lists the modules loaded.

A process enters through run(), both as `python -m orderdim.cli` and as
the `orderdim` script: it calls main(), freezes the garbage collector so
that the interpreter's exit-time collections skip every live object,
and exits with main()'s code.  main(argv) itself leaves the collector
alone, for tests and library callers.  JSON output is written by one
emitter that gives json.dumps(sort_keys=True, indent=2)'s bytes without
its pure-Python indenting encoder.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import NoReturn, Sequence

from .errors import OrderError

__all__ = ["main", "run"]


def _read_json(path: str | None) -> dict:
    if path is None or path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    return json.loads(raw)


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(payload, out: str | None) -> None:
    _emit(_json_text(payload) + "\n", out)


# JSON text of a list item, by its exact type, for lists of one scalar type
_SCALAR_TEXT = {str: _quote, int: int.__repr__, bool: ("false", "true").__getitem__}


def _json_text(value) -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte.

    An indent makes json fall back to its pure-Python encoder; this one
    writes the same layout, escapes strings with json's C escaper, and
    joins a list of strings, of ints or of booleans in one call.  It takes what the
    library's to_json methods build: dicts with string keys, lists,
    tuples, strings, ints, booleans and None.  Anything else, floats
    included, raises TypeError.
    """
    chunks: list[str] = []
    _encode(value, "\n", chunks.append)
    return "".join(chunks)


def _encode(value, newline: str, put) -> None:
    """Append value's JSON text to put, each nested line starting with
    newline plus two spaces."""
    if isinstance(value, str):
        put(_quote(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep = "," + inner
        kinds = set(map(type, value))
        text = _SCALAR_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
        if text is not None:
            put("[" + inner + sep.join(map(text, value)) + newline + "]")
        else:
            lead = "[" + inner
            for x in value:
                put(lead)
                _encode(x, inner, put)
                lead = sep
            put(newline + "]")
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key, x in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(lead + _quote(key) + ": ")
            _encode(x, inner, put)
            lead = "," + inner
        put(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _cmd_gen(args) -> None:
    if args.shape == "crown":
        from .poset import crown

        payload = crown(args.n).to_json()
    elif args.shape == "grid":
        from .ramsey import GridStruct

        payload = GridStruct(args.m, args.n).structure.to_json()
    elif args.symmetric:
        from .flow import symmetric_sample

        payload = symmetric_sample(args.n, args.count, seed=args.seed).to_json()
    else:
        from .geometry import sample_dn

        payload = sample_dn(args.n, args.count, seed=args.seed).to_json()
    _emit_json(payload, args.out)


def _cmd_dim(args) -> None:
    from .dimension import dimension
    from .poset import FinitePoset

    p = FinitePoset.from_json(_read_json(args.infile))
    res = dimension(p, budget=args.max_ext)
    _emit_json({"dim": res.dim, "witness": res.witness.to_json()}, args.out)


def _cmd_embed(args) -> None:
    from .poset import OrderedStructure
    from .ramsey import rigid_embed

    s = OrderedStructure.from_json(_read_json(args.infile))
    coords = rigid_embed(s)
    _emit_json(
        {
            "elements": list(s.elements),
            "coordinates": [list(c) for c in coords],
        },
        args.out,
    )


def _cmd_extend(args) -> None:
    from .geometry import PartialEmbedding, PointCloud, forth_extend
    from .poset import OrderedStructure

    s = OrderedStructure.from_json(_read_json(args.struct))
    c = PointCloud.from_json(_read_json(args.cloud))
    emb = PartialEmbedding(source=s, cloud=c, images=())
    for e in s.elements:
        emb = forth_extend(emb, e)
    emb.verify()
    _emit_json(
        {"cloud": emb.cloud.to_json(), "mapping": emb.mapping}, args.out
    )


def _cmd_iso(args) -> None:
    from .geometry import PointCloud, back_and_forth_iso

    a = PointCloud.from_json(_read_json(args.a))
    b = PointCloud.from_json(_read_json(args.b))
    fwd, bwd = back_and_forth_iso(a, b, args.steps)
    fwd.verify()
    bwd.verify()
    table = [[e, fwd.cloud.label(y)] for e, y in fwd.images]
    _emit_json(
        {
            "table": table,
            "a": bwd.cloud.to_json(),
            "b": fwd.cloud.to_json(),
        },
        args.out,
    )


def _cmd_check(args) -> None:
    from .geometry import PointCloud
    from .homogeneity import check_dpo_fragment

    cloud = PointCloud.from_json(_read_json(args.infile))
    report = check_dpo_fragment(cloud)
    _emit_json(
        {
            "poset_ok": report.poset_ok,
            "linears_ok": report.linears_ok,
            "realization_ok": report.realization_ok,
            "universal_ok": report.universal_ok,
            "density_defects": [
                {
                    "region": None if d.region is None else d.region.to_json(),
                    "witnesses": list(d.witnesses),
                    "gaps": [list(g) for g in d.gaps],
                }
                for d in report.density_defects
            ],
        },
        args.out,
    )


def _cmd_certify(args) -> None:
    from .homogeneity import (
        ap_failure_certificate,
        nonhom_witness,
        qn_lex_nonhom_witness,
        two_homogeneity_demo,
    )

    if args.kind == "ap":
        cert = ap_failure_certificate(args.n)
    elif args.kind == "nonhom":
        cert = nonhom_witness(args.n)
    elif args.kind == "qnlex":
        cert = qn_lex_nonhom_witness(args.n)
    else:
        cert = two_homogeneity_demo(args.n)
    _emit_json(cert.to_json(), args.out)


def _cmd_ramsey(args) -> None:
    from .poset import OrderedStructure
    from .ramsey import product_ramsey_number, ramsey_witness_check

    if args.mode == "number":
        value = product_ramsey_number(
            args.k, args.l, args.m, args.n, r_max=args.rmax
        )
        _emit_json({"value": value}, args.out)
    else:
        a = OrderedStructure.from_json(_read_json(args.a))
        b = OrderedStructure.from_json(_read_json(args.b))
        holds = ramsey_witness_check(a, b, args.k, args.r, method=args.method)
        _emit_json({"holds": holds}, args.out)


def _cmd_flow(args) -> None:
    if args.mode == "realizers":
        from .flow import enumerate_realizers
        from .poset import OrderedStructure

        s = OrderedStructure.from_json(_read_json(args.infile))
        _emit_json(enumerate_realizers(s).to_json(), args.out)
    else:
        from .flow import semidirect_decomposition
        from .geometry import PointCloud

        c = PointCloud.from_json(_read_json(args.infile))
        _emit_json(semidirect_decomposition(c).to_json(), args.out)


def _dot_id(label: str) -> str:
    """label as a DOT quoted ID, with backslash, quote and newline escaped."""
    escaped = label.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def _cmd_export(args) -> None:
    from .poset import FinitePoset

    p = FinitePoset.from_json(_read_json(args.infile))
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for e in p.elements:
        lines.append(f"  {_dot_id(e)};")
    for a, b in sorted(p.covers()):
        lines.append(f"  {_dot_id(a)} -> {_dot_id(b)};")
    lines.append("}")
    _emit("\n".join(lines) + "\n", args.out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orderdim",
        description="finite partial-order combinatorics in exact arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default=None, help="output file (default stdout)")

    def add_in(p):
        p.add_argument(
            "--in", dest="infile", default=None,
            help="input file (default stdin)",
        )

    p = sub.add_parser("gen", help="generate posets, grids, and clouds")
    p.add_argument("shape", choices=("crown", "grid", "sample"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--count", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--symmetric", action="store_true")
    add_out(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("dim", help="order dimension with witness realizers")
    add_in(p)
    p.add_argument(
        "--max-ext",
        type=int,
        default=None,
        help="bound on search steps (default: ORDERDIM_BUDGET or 1000000)",
    )
    add_out(p)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("embed", help="embeddings into grids")
    p.add_argument("mode", choices=("rigid",))
    add_in(p)
    add_out(p)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("extend", help="grow a partial embedding")
    p.add_argument("mode", choices=("forth",))
    p.add_argument("--struct", required=True)
    p.add_argument("--cloud", required=True)
    add_out(p)
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("iso", help="back-and-forth partial isomorphism")
    p.add_argument("mode", choices=("bnf",))
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--steps", type=int, default=10)
    add_out(p)
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("check", help="axiom reports")
    p.add_argument("mode", choices=("dpo",))
    add_in(p)
    add_out(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("certify", help="machine-checked certificates")
    p.add_argument("kind", choices=("ap", "nonhom", "qnlex", "twohom"))
    p.add_argument("--n", type=int, default=2)
    add_out(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("ramsey", help="product Ramsey search")
    ram = p.add_subparsers(dest="mode", required=True)
    q = ram.add_parser("number")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--l", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--rmax", type=int, default=6)
    add_out(q)
    q.set_defaults(func=_cmd_ramsey)
    q = ram.add_parser("witness")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--method", choices=("reduction", "exhaustive"), default="reduction")
    add_out(q)
    q.set_defaults(func=_cmd_ramsey)

    p = sub.add_parser("flow", help="realizer censuses and decompositions")
    p.add_argument("mode", choices=("realizers", "decompose"))
    add_in(p)
    add_out(p)
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("export", help="DOT Hasse diagram")
    p.add_argument("mode", choices=("dot",))
    add_in(p)
    add_out(p)
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args)
        # Flush here, so a reader gone early surfaces inside this try.
        sys.stdout.flush()
    except BrokenPipeError:
        # Python's recipe: the flush at exit would raise again, so point
        # stdout at devnull.  Nobody reads an error line now; exit 1.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


def _run(args) -> int:
    try:
        args.func(args)
    except BrokenPipeError:
        raise
    except (
        OrderError, ValueError, KeyError, TypeError, RecursionError, OSError
    ) as exc:
        detail = str(exc) or type(exc).__name__
        sys.stdout.write(
            json.dumps(
                {"error": type(exc).__name__, "detail": detail},
                sort_keys=True,
            )
            + "\n"
        )
        return 1
    return 0


def run() -> NoReturn:
    """The process entry point: exit with main()'s code, skipping the
    interpreter's exit-time garbage collections.

    main() has flushed stdout and closed any --out file when it returns.
    gc.freeze() then moves every tracked object to the permanent
    generation, so the collections during interpreter shutdown skip them:
    about 6 ms a process with CPython 3.11 on 2 vCPUs, most of it spent
    on site's objects.  Refcount teardown, atexit handlers and the final
    flush of stdout and stderr still run.  The trade-off: cyclic garbage
    left at exit goes back to the OS without its __del__ running; the
    CLI holds no resource in a cycle.  Tests and library callers call
    main() and keep their collector.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
