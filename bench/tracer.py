"""Span tracer that wraps orderdim's public functions from outside.

Every function named in a package module's ``__all__`` gets a wrapper,
and every module attribute bound to that function is rebound to it, so a
call made through a re-import (``homogeneity.dimension``, ``cli.dimension``)
opens a span too and nested calls get a parent.  Spans are recorded only
while the benchmark runs an operation; each carries that operation's id.
They stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass

MODULES = ("poset", "dimension", "geometry", "homogeneity", "ramsey", "flow", "cli")

# Methods that are layer boundaries although they are not module functions.
METHODS = (
    ("geometry", "PartialEmbedding", "verify"),
    ("homogeneity", "Certificate", "replay"),
)

# Per-layer self-time metrics: metric name -> span names whose self time
# is summed.
SELF_TIMES = {
    "dimension.extensions_s": ("dimension.all_linear_extensions",),
    "dimension.critical_pairs_s": ("dimension.critical_pairs",),
    "dimension.self_s": ("dimension.dimension", "dimension.find_realizers"),
    "poset.validate_s": ("poset.validate_poset",),
    "poset.szpilrajn_s": ("poset.szpilrajn_extend",),
    "poset.is_realizer_s": ("poset.is_realizer",),
    "geometry.sample_dn_s": ("geometry.sample_dn",),
    "geometry.induced_structure_s": ("geometry.induced_structure",),
    "geometry.back_and_forth_s": ("geometry.back_and_forth_iso",),
    "geometry.verify_s": ("geometry.PartialEmbedding.verify",),
    "homogeneity.check_dpo_s": ("homogeneity.check_dpo_fragment",),
    "homogeneity.certify_s": (
        "homogeneity.ap_failure_certificate",
        "homogeneity.nonhom_witness",
        "homogeneity.qn_lex_nonhom_witness",
        "homogeneity.two_homogeneity_certificate",
    ),
    "homogeneity.replay_s": ("homogeneity.Certificate.replay",),
    "flow.enumerate_realizers_s": ("flow.enumerate_realizers",),
    "flow.decompose_s": ("flow.semidirect_decomposition",),
    "ramsey.number_s": ("ramsey.product_ramsey_number",),
    "ramsey.witness_s": ("ramsey.ramsey_witness_check",),
    "ramsey.enumerate_copies_s": ("ramsey.enumerate_copies",),
    "ramsey.find_mono_subgrid_s": ("ramsey.find_mono_subgrid",),
    "ramsey.induced_coloring_s": ("ramsey.induced_coloring",),
}

# Work counters: metric name -> (span name, what to count).
COUNTS = {
    "dimension.extensions": ("dimension.all_linear_extensions", "items"),
    "dimension.critical_pairs": ("dimension.critical_pairs", "items"),
    "poset.validate_calls": ("poset.validate_poset", "calls"),
    "geometry.points_added": ("geometry.back_and_forth_iso", "items"),
    "homogeneity.cells": ("homogeneity.check_dpo_fragment", "items"),
    "flow.census": ("flow.enumerate_realizers", "items"),
    "flow.candidate_tuples": ("flow.enumerate_realizers", "candidates"),
    "ramsey.copies": ("ramsey.enumerate_copies", "items"),
}

# Calls into a module from outside it that ended in LimitExceeded.
LIMITS = {
    "dimension.limit_exceeded": "dimension",
    "ramsey.limit_exceeded": "ramsey",
}


@dataclass
class Span:
    sid: int
    parent: int | None
    op: int
    name: str
    start: float
    dur: float = 0.0
    items: int = 0
    candidates: int = 0
    nested_items: int = 0
    error: str | None = None


def _items(name: str, args, result) -> int:
    """Work count carried by a finished call's result."""
    if name in ("dimension.critical_pairs", "ramsey.enumerate_copies"):
        return len(result)
    if name == "homogeneity.check_dpo_fragment":
        return len(result.density_defects)
    if name == "flow.enumerate_realizers":
        return result.census
    if name == "geometry.back_and_forth_iso":
        fwd, bwd = result
        return len(fwd.cloud) - len(args[1]) + len(bwd.cloud) - len(args[0])
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), parent, self.op, name, time.perf_counter())
        self.spans.append(span)
        return span

    def _wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            tracer.stack.append(span)
            t0 = span.start
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.stack.pop()
                span.dur += time.perf_counter() - t0
            if inspect.isgenerator(result):
                return tracer._iterate(span, result)
            span.items = _items(name, args, result)
            if name == "flow.enumerate_realizers":
                span.candidates = span.nested_items ** result.base.n
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _iterate(self, span: Span, gen):
        """Re-yield a generator, charging the time inside each step to span."""
        try:
            while True:
                self.stack.append(span)
                t0 = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    break
                except BaseException as exc:
                    span.error = type(exc).__name__
                    raise
                finally:
                    span.dur += time.perf_counter() - t0
                    self.stack.pop()
                span.items += 1
                yield item
        finally:
            gen.close()
            if span.parent is not None:
                self.spans[span.parent].nested_items += span.items

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and rebind every alias of it."""
        wrappers: dict[int, object] = {}
        for short in MODULES:
            mod = importlib.import_module(f"orderdim.{short}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(fn, f"{short}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if modname != "orderdim" and not modname.startswith("orderdim."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"orderdim.{short}"], cls_name)
            fn = cls.__dict__[meth]
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, f"{short}.{cls_name}.{meth}"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- aggregation -------------------------------------------------------

    def self_times(self, ops: set[int] | None = None) -> dict[str, float]:
        """Self time per span name: duration minus direct children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.dur
        out: dict[str, float] = {}
        for s in self.spans:
            if ops is None or s.op in ops:
                out[s.name] = out.get(s.name, 0.0) + s.dur - child[s.sid]
        return out

    def layer_metrics(self, ops: set[int] | None = None) -> dict[str, float]:
        selfs = self.self_times(ops)
        spans = [s for s in self.spans if ops is None or s.op in ops]
        out: dict[str, float] = {}
        for metric, names in SELF_TIMES.items():
            out[metric] = sum(selfs.get(n, 0.0) for n in names)
        for metric, (name, what) in COUNTS.items():
            picked = [s for s in spans if s.name == name]
            out[metric] = len(picked) if what == "calls" else sum(
                getattr(s, what) for s in picked
            )
        for metric, module in LIMITS.items():
            out[metric] = sum(
                1
                for s in spans
                if s.error == "LimitExceeded"
                and s.name.split(".")[0] == module
                and (
                    s.parent is None
                    or self.spans[s.parent].name.split(".")[0] != module
                )
            )
        # cli.main's own time is argparse plus JSON; its children are the library
        out["cli.overhead_s"] = selfs.get("cli.main", 0.0)
        out["cli.library_s"] = (
            sum(s.dur for s in spans if s.name == "cli.main") - out["cli.overhead_s"]
        )
        return out

    def counters(self, ops: set[int]) -> dict[str, int]:
        """The exact work counts of the given operations."""
        m = self.layer_metrics(ops)
        names = list(COUNTS) + list(LIMITS)
        return {n: int(m[n]) for n in names}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__, sort_keys=True) + "\n")
