"""crystalk: exact K-theory ranks for integer involution lattices.

Given an integer matrix A with A*A = I acting on Z^n, the package
classifies the lattice action, computes the equivariant K-theory ranks
of the n-torus by two independent routes, and emits the K-theory of
the reduced C*-algebra of Z^n x| Z/2 together with replayable
certificates.  All arithmetic is exact.
"""

from .errors import (
    CrystalkError,
    DimensionTooLargeError,
    GridTooLargeError,
    InternalInvariantError,
    NotInvolutionError,
    NotSquareError,
    ScopeError,
    TableIntegrityError,
)
from .intlin import (
    CokernelShape,
    IntMatrix,
    SmithDecomposition,
    cokernel,
    exterior_trace_poly,
    kernel_basis,
    random_unimodular,
    smith_normal_form,
)
from .lattice import (
    ActionClass,
    InvolutiveLattice,
    StructureInvariants,
    canonical_matrix,
    classify,
    decompose,
    invariants,
    validate_involution,
)
from .repring import (
    LocalizedShape,
    PrimeSite,
    RModuleSum,
    localize,
    mult_one_minus_t,
    rank,
    tensor,
    tor1,
)
from .toruskt import (
    SPEC_VERSION,
    CertificateStep,
    CertificateTrace,
    CohomologyAction,
    FixedSetDescription,
    KRankReport,
    ScopeFlag,
    build_report,
    cohomology_invariants,
    fixed_set,
    integral_k_theory,
    k_ranks_delocalized,
    kunneth_assembly,
    twisted_ranks,
)

__version__ = "0.1.0"

__all__ = [
    "ActionClass",
    "CertificateStep",
    "CertificateTrace",
    "CohomologyAction",
    "CokernelShape",
    "CrystalkError",
    "DimensionTooLargeError",
    "FixedSetDescription",
    "GridTooLargeError",
    "IntMatrix",
    "InternalInvariantError",
    "InvolutiveLattice",
    "KRankReport",
    "LocalizedShape",
    "NotInvolutionError",
    "NotSquareError",
    "PrimeSite",
    "RModuleSum",
    "ScopeError",
    "ScopeFlag",
    "SmithDecomposition",
    "StructureInvariants",
    "TableIntegrityError",
    "build_report",
    "canonical_matrix",
    "classify",
    "cohomology_invariants",
    "cokernel",
    "decompose",
    "exterior_trace_poly",
    "fixed_set",
    "integral_k_theory",
    "invariants",
    "k_ranks_delocalized",
    "kernel_basis",
    "kunneth_assembly",
    "localize",
    "mult_one_minus_t",
    "random_unimodular",
    "rank",
    "smith_normal_form",
    "tensor",
    "tor1",
    "twisted_ranks",
    "validate_involution",
]
