"""Exact-arithmetic toolkit for finite partial-order combinatorics.

Submodules:

- poset: finite posets, linear orders, realizer tuples, Szpilrajn.
- dimension: order dimension by critical-pair colouring, with witnesses.
- geometry: rational point clouds, regions, back-and-forth embeddings.
- homogeneity: density-axiom reports and homogeneity certificates.
- ramsey: grid structures, rigid copies, product Ramsey numbers.
- flow: realizer enumeration and the automorphism action.
- cli: command-line entry point (gen / dim / certify / ramsey / ...).

``import orderdim`` loads only errors, poset and dimension.  The names
exported from the other four submodules are looked up on first use, so
a caller (or a CLI command) that never touches them never imports them.
``dimension`` stays eager: the function is bound over the submodule of
the same name before anything else can import that submodule.
"""

from importlib import import_module

from .errors import OrderError
from .poset import (
    FinitePoset,
    LinearOrder,
    OrderedStructure,
    RealizerTuple,
    antichain,
    chain,
    crown,
    is_realizer,
    szpilrajn_extend,
    validate_poset,
)
from .dimension import DimensionResult, all_linear_extensions, dimension

__version__ = "0.1.0"

# Exported name -> the submodule that defines it, imported on first use.
_LAZY = {
    **dict.fromkeys(
        (
            "PointCloud",
            "Region",
            "back_and_forth_iso",
            "induced_structure",
            "sample_dn",
        ),
        "geometry",
    ),
    **dict.fromkeys(
        (
            "AxiomReport",
            "Certificate",
            "CertificateKind",
            "FlipPattern",
            "ap_failure_certificate",
            "check_dpo_fragment",
            "nonhom_witness",
            "qn_lex_nonhom_witness",
            "two_homogeneity_certificate",
            "two_homogeneity_extend",
        ),
        "homogeneity",
    ),
    **dict.fromkeys(
        (
            "Coloring",
            "GridStruct",
            "Subgrid",
            "enumerate_copies",
            "product_ramsey_number",
            "ramsey_witness_check",
            "rigid_embed",
        ),
        "ramsey",
    ),
    **dict.fromkeys(
        (
            "RealizerSet",
            "classify_realizer",
            "cloud_automorphisms",
            "enumerate_realizers",
            "extend_realizer_closure",
            "logic_action",
            "semidirect_decomposition",
            "symmetric_sample",
        ),
        "flow",
    ),
}

__all__ = [
    "OrderError",
    "FinitePoset",
    "LinearOrder",
    "OrderedStructure",
    "RealizerTuple",
    "antichain",
    "chain",
    "crown",
    "is_realizer",
    "szpilrajn_extend",
    "validate_poset",
    "DimensionResult",
    "all_linear_extensions",
    "dimension",
    *_LAZY,
]


def __getattr__(name: str):
    """An exported name of a lazy submodule, or that submodule itself."""
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    if name in _LAZY.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
