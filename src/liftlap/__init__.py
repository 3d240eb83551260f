"""Laplace spectra of covering simplicial complexes.

Construct simplicial complexes and their weighted, incidence-signed, or
incidence-weighted Laplace operators; build k-fold covering complexes
from permutation voltages; and verify the spectral decompositions that
relate a cover's spectrum to its base (block decomposition, two-fold
union, abelian character decomposition, spectral inclusion) together
with the Betti inequality via harmonic cochain lifting.
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
    connected_components,
)
from .covering import (
    CoveringMap,
    DerivedComplexResult,
    EdgeVoltages,
    IncidenceVoltages,
    derived_complex,
    edge_voltages,
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
    integer_rank,
    lift_cochain,
    verify_betti_inequality,
)
from .operators import (
    DOWN,
    FULL,
    UP,
    IncidenceWeighting,
    OperatorMatrix,
    SpectrumComparison,
    SpectrumMultiset,
    compare_spectra,
    decorated_coboundary,
    laplacian_matrix,
    layer_spectra,
    spectrum,
)
from .representation import (
    BlockDecomposition,
    VoltageGroup,
    abelian_weightings,
    block_weightings,
    decompose_representation,
    two_fold_signing,
    voltage_group,
)

__version__ = "0.1.0"
