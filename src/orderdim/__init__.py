"""Exact-arithmetic toolkit for finite partial-order combinatorics.

Submodules:

- poset: finite posets, linear orders, realizer tuples, Szpilrajn.
- dimension: order dimension by critical-pair colouring, with witnesses.
- geometry: rational point clouds, regions, back-and-forth embeddings.
- homogeneity: density-axiom reports and homogeneity certificates.
- ramsey: grid structures, rigid copies, product Ramsey numbers.
- flow: realizer enumeration and the automorphism action.
- cli: command-line entry point (gen / dim / certify / ramsey / ...).
"""

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
from .geometry import (
    PointCloud,
    Region,
    back_and_forth_iso,
    induced_structure,
    sample_dn,
)
from .homogeneity import (
    AxiomReport,
    Certificate,
    CertificateKind,
    FlipPattern,
    ap_failure_certificate,
    check_dpo_fragment,
    nonhom_witness,
    qn_lex_nonhom_witness,
    two_homogeneity_certificate,
    two_homogeneity_extend,
)
from .ramsey import (
    Coloring,
    GridStruct,
    Subgrid,
    enumerate_copies,
    product_ramsey_number,
    ramsey_witness_check,
    rigid_embed,
)
from .flow import (
    RealizerSet,
    classify_realizer,
    cloud_automorphisms,
    enumerate_realizers,
    extend_realizer_closure,
    logic_action,
    semidirect_decomposition,
    symmetric_sample,
)

__version__ = "0.1.0"
