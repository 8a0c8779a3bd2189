"""Exact-arithmetic toolkit for finite partial-order combinatorics.

Submodules:

- poset: finite posets, linear orders, realizer tuples, Szpilrajn.
- dimension: order dimension by critical-pair colouring, with witnesses.
- geometry: rational point clouds, regions, back-and-forth embeddings.
- homogeneity: density-axiom reports and homogeneity certificates.
- ramsey: rigid copies in grids, product Ramsey numbers.
- flow: realizer enumeration and the automorphism action.
- cli: command-line entry point (gen / dim / certify / ramsey / ...).

``import orderdim`` loads no submodule.  Every exported name is looked
up in its submodule on first use and then bound on the package, so a
caller (or a CLI command) that never touches a submodule never imports
it.  The package's class binds the ``dimension`` function wherever the
import system would bind the ``dimension`` submodule of the same name,
so ``orderdim.dimension`` is the function whichever module imports the
submodule first.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# Exported name -> the submodule that defines it, imported on first use.
_LAZY = {
    "OrderError": "errors",
    **dict.fromkeys(
        (
            "FinitePoset",
            "LinearOrder",
            "OrderedStructure",
            "RealizerTuple",
            "antichain",
            "chain",
            "crown",
            "grid",
            "is_realizer",
            "szpilrajn_extend",
            "validate_poset",
        ),
        "poset",
    ),
    **dict.fromkeys(
        ("DimensionResult", "all_linear_extensions", "dimension"), "dimension"
    ),
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

__all__ = [*_LAZY]


def __getattr__(name: str):
    """An exported name, bound on the package once found, or a submodule
    that defines some."""
    if name in _LAZY:
        value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _LAZY.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    # Loading a submodule binds it on its package under its own name, so
    # the `dimension` submodule would hide the `dimension` function.
    def __setattr__(self, name, value):
        if name == "dimension" and isinstance(value, ModuleType):
            value = value.dimension
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
