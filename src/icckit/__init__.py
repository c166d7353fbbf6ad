"""icckit: exact decision procedures for the infinite-conjugacy-class
property of group extensions over a concrete catalog of kernels and
quotients, with verifiable witnesses and a brute-force oracle."""

__version__ = "0.1.0"

from .analyzer import (
    AnalyzerLimits,
    KernelTorsionWitness,
    KernelVectorWitness,
    QuotientLiftWitness,
    Report,
    analyze,
    theta_fc_injective,
    thm1_check,
    thm3_check,
)
from .catalog import (
    FgAbelianDesc,
    FiniteGroupDesc,
    FreeDesc,
    ProductDesc,
    fc_is_trivial,
    make_product,
)
from .dsl import Diagnostic, parse_extension, pretty_print
from .extension import (
    ExtensionSpec,
    ExtensionValidationError,
    UnsupportedExtensionError,
    make_extension,
)
from .intlinalg import (
    CyclotomicFactors,
    IntMatrix,
    IntPoly,
    Lattice,
    charpoly,
    cyclotomic_orders,
    cyclotomic_polynomial,
    hnf,
    kernel_lattice,
)
from .matgroup import (
    BasisOrbits,
    FiniteOrbit,
    FiniteOrbitCert,
    GroupInfinite,
    MatGroupGens,
    OrbitCapExceeded,
    basis_orbits,
    finite_orbit_sublattice,
    matrix_order,
    orbit_bfs,
    single_finite_orbit_space,
)
from .oracle import (
    ConcreteGroup,
    GrowthCurve,
    conjugacy_ball,
    crosscheck,
    exact_abelian_class,
    materialize,
)
from .words import (
    FreeAut,
    free_basis_inverse,
    free_reduce,
    is_inner,
    word_inverse,
    word_mul,
)

__all__ = [name for name in dir() if not name.startswith("_")]
