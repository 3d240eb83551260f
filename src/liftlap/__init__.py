"""Laplace spectra of covering simplicial complexes.

Construct simplicial complexes and their weighted, incidence-signed, or
incidence-weighted Laplace operators; build k-fold covering complexes
from permutation voltages; and verify the spectral decompositions that
relate a cover's spectrum to its base (block decomposition, two-fold
union, abelian character decomposition, spectral inclusion) together
with the Betti inequality, certified from exact ranks of the base and of
the base twisted by the voltages.
"""

from .complexes import (
    COMBINATORIAL,
    NORMALIZED,
    Face,
    SimplicialComplex,
    WeightScheme,
    as_face,
    build_complex,
    coboundary,
    compute_weights,
    decorated_coboundary,
)
from .covering import (
    CoveringMap,
    DerivedComplexResult,
    EdgeVoltages,
    Factorization,
    IncidenceVoltages,
    derived_complex,
    edge_voltages,
    factor_lifted_coboundary,
    induced_incidence_voltage,
    verify_covering,
)
from .errors import (
    CocycleError,
    CoveringViolation,
    DecompositionError,
    DimensionError,
    EigensolverError,
    GroupStructureError,
    LiftlapError,
    MalformedInputError,
    VoltageError,
    WeightError,
)
from .homology import (
    BettiInequalityReport,
    exact_betti_numbers,
    verify_betti_inequality,
)
from .operators import (
    DOWN,
    FULL,
    UP,
    IncidenceWeighting,
    SpectrumMultiset,
    incidence_weighting,
    laplacian_matrix,
    spectrum,
)
from .representation import (
    BlockDecomposition,
    BlockIdentity,
    VoltageGroup,
    abelian_decomposition,
    block_identity,
    block_values,
    decompose_representation,
    integer_split,
    voltage_group,
)

__version__ = "0.1.0"
