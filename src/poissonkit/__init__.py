"""poissonkit: a family of skew-symmetric solutions of the Jacobi equations
built from an invertible matrix and univariate nonvanishing factors, with
numerical verification of the defining axioms, complete linear Casimir
sets, an explicit global reduction to canonical coordinates, and
structure-aware integrators."""

from types import ModuleType as _ModuleType

from .catalog import (
    catalog_entry,
    constant_symplectic,
    counterexample_field,
    kermack_mckendrick,
    toda,
)
from .darboux import (
    CanonicalReport,
    DarbouxChart,
    canonical_matrix,
    casimirs,
    certify_canonical,
    darboux_chart,
    default_anchors,
)
from .domain import BoxDomain
from .dynamics import (
    HamiltonianField,
    TrajectoryRecord,
    bracket,
    coordinate_hamiltonian,
    integrate_canonical,
    integrate_direct,
    linear_hamiltonian,
    quadratic_hamiltonian,
    trajectory_to_csv,
    vector_field,
)
from .errors import (
    CertificationFailureError,
    ConfigError,
    ConfigParseError,
    ConfigValidationError,
    EmptyDomainSampleError,
    FactorVanishesError,
    IndexOutOfRangeError,
    InvalidSizeError,
    MaxNewtonIterationsError,
    NoConvergenceError,
    OddRankError,
    OutOfDomainError,
    OutOfRangeError,
    OutOfValidityError,
    ParameterMismatchError,
    PoissonKitError,
    QuadratureFailureError,
    RankExceedsDimensionError,
    SingularMatrixError,
)
from .factors import (
    Affine,
    Constant,
    CustomFactor,
    Exponential,
    FactorFunction,
    Linear,
    Power,
)
from .structure import (
    MultiseparableSpec,
    build_spec,
    evaluate_structure,
    lambda_coefficient,
    structure_partials,
)
from .verify import (
    JacobiReport,
    StructureField,
    fd_structure_field,
    generic_field,
    jacobi_residual,
    jacobi_sweep,
    structure_field,
)

__version__ = "0.1.0"

#: Every public name bound above, each written once.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
