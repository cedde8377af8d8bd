"""Exact workbench for 4-dimensional real Lie bialgebras of symplectic type.

Exact-rational Lie algebra machinery, classical r-matrices, invariant frames
and Poisson bivectors on the corresponding groups, equivalence verifiers and
inequivalence invariants, and two integrable systems -- all cross-checked
against a transcribed reference table corpus.

The stated Python API is `__all__`; README's "Python API" paragraph names
the same set.  The commands `liebialg verify`, `derive` and `integrable`
reach the rest of the package.
"""

from .core import (
    StructureConstants,
    TwoFormLA,
    bialgebra_failure,
    find_symplectic,
    jacobi_check,
    mixed_jacobi_check,
)
from .rmatrix import (
    TensorElement,
    classify_r,
    schouten,
    solve_coboundary,
)
from .groupgeom import GroupChart, double_adjoint, invariant_frame
from .poisson import (
    PoissonBivector,
    multiplicative_check,
    pi_bivector,
    poisson_jacobi_check,
    sklyanin_bivector,
    symplectic_classify,
)
from .equivalence import (
    invariants,
    verify_automorphism,
    verify_bialgebra_equivalence,
    verify_isomorphism,
)

__all__ = [
    "StructureConstants",
    "TwoFormLA",
    "TensorElement",
    "PoissonBivector",
    "GroupChart",
    "jacobi_check",
    "mixed_jacobi_check",
    "bialgebra_failure",
    "find_symplectic",
    "solve_coboundary",
    "schouten",
    "classify_r",
    "invariant_frame",
    "double_adjoint",
    "sklyanin_bivector",
    "pi_bivector",
    "poisson_jacobi_check",
    "multiplicative_check",
    "symplectic_classify",
    "verify_isomorphism",
    "verify_automorphism",
    "verify_bialgebra_equivalence",
    "invariants",
]

__version__ = "0.1.0"
