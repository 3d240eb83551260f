"""Up/down/full Laplace operators and tolerance-aware spectra.

The matrix conventions follow the coboundary layout of
:mod:`liftlap.complexes`: the degree-i coboundary has rows indexed by
(i+1)-faces and columns by i-faces, so the i-up operator is
``W_i^{-1} D_i^T W_{i+1} D_i`` and the i-down operator is
``D_{i-1} W_{i-1}^{-1} D_{i-1}^T W_i``.

An incidence weighting decorates the coboundary: each nonzero, the sign
of an incidence, is multiplied by the incidence's value, a nonzero
scalar or a d x d matrix (every value of one weighting has the same d).
With matrix values each face becomes d rows and columns and each face
weight is repeated d times, so one assembly serves every case: the
plain operator, a signing (values -1), a complex character weighting,
a block of a lifted operator (values rho_j(psi)), and the lifted
coboundary itself (values the permutation matrices P(psi)).  The
adjoint uses the conjugate transpose.

One incidence layer serves two operators.  With
``A = W_{i+1}^{1/2} D_i W_i^{-1/2}`` (``D_i`` decorated or not), the
symmetrized i-up operator is ``A^H A`` and the symmetrized (i+1)-down
operator is ``A A^H``; their spectra agree except for
``|n_{i+1} - n_i|`` extra zeros.  :func:`layer_spectra` therefore
eigensolves only the smaller Gram matrix and pads the other side with
exact zeros, and at the top dimension (no (i+1)-faces) it solves
nothing.  The ``verify`` and ``decompose`` commands take every spectrum
they compare from it; ``liftlap spectrum`` eigensolves the assembled
operator, so its ``clamped`` count reports the operator's own kernel
noise.

Everything is dense: the package targets desk-scale complexes where
dense eigensolves are simpler and exactly testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .complexes import (
    COMBINATORIAL,
    Face,
    SimplicialComplex,
    WeightScheme,
    coboundary_matrix,
    compute_weights,
    weight_vector,
)
from .errors import DimensionError, EigensolverError, WeightError

UP = "up"
DOWN = "down"
FULL = "full"

DEFAULT_TOL = 1e-8
HERMITICITY_TOL = 1e-10


class IncidenceWeighting:
    """A nonzero weight on every (face, cofacet) incidence.

    A value is a scalar or a square d x d matrix; all values share one
    size ``block_size`` (1 for scalars, and a 1 x 1 matrix is stored as
    its scalar).  Pairs not listed carry the d x d identity, which is 1
    for scalars.  Real values are stored as floats and complex ones as
    complex numbers; ``dtype``, the dtype of the decorated coboundary,
    is float64 when every value is real and complex128 otherwise.  A
    signing is the scalar real case with values -1.
    """

    def __init__(self, values: Mapping | None = None):
        self._values = {}
        sizes = set()
        for (a, b), v in (values or {}).items():
            v = np.asarray(v)
            if v.shape == (1, 1):
                v = v[0, 0]
            # only a scalar (shape ()) or a square matrix (shape (d, d)) passes
            if v.shape[:1] != v.shape[1:]:
                raise WeightError(
                    f"incidence weight for ({a!r}, {b!r}) is neither a scalar nor a square matrix"
                )
            v = v.astype(np.complex128 if np.iscomplexobj(v) else np.float64)
            if not v.any():
                raise WeightError(f"incidence weight for ({a!r}, {b!r}) must be nonzero")
            sizes.add(len(v) if v.ndim else 1)
            self._values[(tuple(a), tuple(b))] = v if v.ndim else v.item()
        if len(sizes) > 1:
            raise WeightError(f"incidence weights mix block sizes {sorted(sizes)}")
        self.block_size = sizes.pop() if sizes else 1
        self._unit = 1.0 if self.block_size == 1 else np.eye(self.block_size)
        real = not any(np.iscomplexobj(v) for v in self._values.values())
        self.dtype = np.dtype(np.float64 if real else np.complex128)

    def value(self, face: Face, cofacet: Face):
        return self._values.get((tuple(face), tuple(cofacet)), self._unit)

    def items(self):
        return self._values.items()

    def __eq__(self, other):
        return (
            isinstance(other, IncidenceWeighting)
            and self._values.keys() == other._values.keys()
            and all(np.array_equal(v, other._values[pair]) for pair, v in self._values.items())
        )


def decorated_coboundary(K: SimplicialComplex, i: int, decoration=None) -> np.ndarray:
    """Coboundary matrix with each nonzero scaled by its incidence weight.

    With d x d weights the nonzero of incidence (F, Fbar) becomes the
    block ``sign * value(F, Fbar)``: row ``r`` and column ``c`` of the
    plain coboundary become rows ``r*d .. r*d+d-1`` and columns
    ``c*d .. c*d+d-1``.
    """
    D = coboundary_matrix(K, i)
    if decoration is None:
        return D
    if not isinstance(decoration, IncidenceWeighting):
        raise TypeError(f"unsupported decoration {decoration!r}")
    d = decoration.block_size
    rows, cols = np.nonzero(D)
    cofacets, faces = K.faces(i + 1), K.faces(i)
    values = np.array(
        [decoration.value(faces[c], cofacets[r]) for r, c in zip(rows.tolist(), cols.tolist())],
        dtype=decoration.dtype,
    ).reshape(-1, d, d)
    out = np.zeros((D.shape[0] * d, D.shape[1] * d), dtype=decoration.dtype)
    within = np.arange(d)
    out[(rows * d)[:, None, None] + within[:, None], (cols * d)[:, None, None] + within] = (
        D[rows, cols][:, None, None] * values
    )
    return out


@dataclass
class OperatorMatrix:
    """A Laplace operator matrix and its weight diagonal.

    ``weights`` is the diagonal of the weight matrix on the operator's
    own cochain degree; it drives the similarity transform used by the
    eigensolver path.
    """

    matrix: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix)
        self.weights = np.asarray(self.weights, dtype=float)
        n = self.matrix.shape[0]
        if self.matrix.shape != (n, n) or len(self.weights) != n:
            raise DimensionError("operator matrix must be square and match its weights")

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def _up_range(K: SimplicialComplex):
    return K.min_dim, K.top_dim


def _down_range(K: SimplicialComplex):
    return K.min_dim + 1, K.top_dim


def laplacian_matrix(
    K: SimplicialComplex,
    i: int,
    kind: str = UP,
    scheme: WeightScheme = COMBINATORIAL,
    decoration=None,
) -> OperatorMatrix:
    """Assemble the i-dimensional up/down/full Laplace operator of ``K``.

    ``decoration`` (an :class:`IncidenceWeighting`) applies to the
    coboundary layer each part actually uses: (i, i+1) for up, (i-1, i)
    for down.  With d x d values the operator is d times as wide, every
    face weight repeated d times.

    Valid dimensions: up needs ``min_dim <= i <= top_dim`` (the top
    dimension yields a zero matrix), down needs ``min_dim + 1 <= i <=
    top_dim``; full needs both.
    """
    w = compute_weights(K, scheme)
    w_i = _weights(K, i, w, decoration)
    if kind not in (UP, DOWN, FULL):
        raise DimensionError(f"unknown operator kind {kind!r}")
    lo_up, hi_up = _up_range(K)
    lo_dn, hi_dn = _down_range(K)

    def up_part():
        if not (lo_up <= i <= hi_up):
            raise DimensionError(f"up operator needs {lo_up} <= i <= {hi_up}, got {i}")
        if i == K.top_dim:
            return np.zeros((len(w_i), len(w_i)))
        D = decorated_coboundary(K, i, decoration)
        w_hi = _weights(K, i + 1, w, decoration)
        return (D.conj().T * w_hi) @ D / w_i[:, None]

    def down_part():
        if not (lo_dn <= i <= hi_dn):
            raise DimensionError(f"down operator needs {lo_dn} <= i <= {hi_dn}, got {i}")
        D = decorated_coboundary(K, i - 1, decoration)
        w_lo = _weights(K, i - 1, w, decoration)
        return (D / w_lo) @ (D.conj().T * w_i)

    if kind == UP:
        mat = up_part()
    elif kind == DOWN:
        mat = down_part()
    else:
        mat = up_part() + down_part()
    return OperatorMatrix(mat, w_i)


def _weights(K: SimplicialComplex, j: int, w, decoration) -> np.ndarray:
    """The dimension-j weight diagonal, each weight repeated once per row
    of the decoration's d x d values."""
    return np.repeat(weight_vector(K, j, w), getattr(decoration, "block_size", 1))


def _roots(weights: np.ndarray) -> np.ndarray:
    if np.any(weights <= 0):
        raise WeightError("weights must be strictly positive")
    return np.sqrt(weights)


def layer_spectra(
    K: SimplicialComplex,
    i: int,
    scheme: WeightScheme = COMBINATORIAL,
    decoration=None,
) -> tuple["SpectrumMultiset", "SpectrumMultiset"]:
    """Spectra of the i-up and the (i+1)-down operator from one eigensolve.

    Returns ``(up_i, down_{i+1})``, each the multiset :func:`spectrum`
    gives for the assembled operator, up to rounding.  ``A = W_{i+1}^{1/2} D_i
    W_i^{-1/2}`` is built once from :func:`decorated_coboundary`; the
    smaller of ``A^H A`` (up) and ``A A^H`` (down) goes through
    :func:`spectrum` with unit weights, and the other side is the same
    multiset padded with exact zeros.  At ``i == top_dim`` the up
    spectrum is all zeros and the down side is empty, and nothing is
    solved.  Valid layers: ``min_dim <= i <= top_dim``.
    """
    lo, hi = _up_range(K)
    if not lo <= i <= hi:
        raise DimensionError(f"incidence layer needs {lo} <= i <= {hi}, got {i}")
    w = compute_weights(K, scheme)
    A = decorated_coboundary(K, i, decoration) * (
        _roots(_weights(K, i + 1, w, decoration))[:, None] / _roots(_weights(K, i, w, decoration))
    )
    n_hi, n_lo = A.shape
    if n_lo <= n_hi:
        solved = spectrum(OperatorMatrix(A.conj().T @ A, np.ones(n_lo)))
    else:
        solved = spectrum(OperatorMatrix(A @ A.conj().T, np.ones(n_hi)))
    padded = SpectrumMultiset(solved.values + (0.0,) * abs(n_hi - n_lo), solved.clamped)
    return (solved, padded) if n_lo <= n_hi else (padded, solved)


def symmetrized_form(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Similarity transform ``W^{1/2} L W^{-1/2}`` with identical spectrum.

    For the operators assembled here the result is Hermitian positive
    semidefinite, which is what the eigensolver path relies on.
    """
    root = _roots(np.asarray(weights, dtype=float))
    return (matrix * root[:, None]) / root[None, :]


def spectrum(op: OperatorMatrix) -> "SpectrumMultiset":
    """Eigenvalues of an operator, sorted ascending, clamped at zero.

    Uses the symmetrized form; its hermiticity residue is asserted at
    ``1e-10`` (relative).  Eigenvalues with ``|v| <= 1e-9`` (relative)
    are the kernel up to eigensolver noise: they are set to exactly 0,
    and ``clamped`` counts those that were not 0 already.  Anything below
    ``-1e-9`` means the operator was not positive semidefinite and raises.
    """
    if op.size == 0:
        return SpectrumMultiset()
    sym = symmetrized_form(op.matrix, op.weights)
    scale = max(1.0, float(np.max(np.abs(sym))))
    residue = float(np.max(np.abs(sym - sym.conj().T)))
    if residue > HERMITICITY_TOL * scale:
        raise EigensolverError(f"symmetrized form is not Hermitian: residue {residue:g}")
    try:
        vals = np.linalg.eigvalsh((sym + sym.conj().T) / 2)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
    if np.any(vals < -1e-9 * scale):
        raise EigensolverError(f"negative eigenvalue {vals.min():g} in a PSD operator")
    noise = (np.abs(vals) <= 1e-9 * scale) & (vals != 0)
    vals = np.where(noise, 0.0, vals)
    return SpectrumMultiset(tuple(float(v) for v in np.sort(vals)), int(noise.sum()))


@dataclass(frozen=True)
class SpectrumMultiset:
    """Sorted real eigenvalue multiset; ``clamped`` counts the kernel
    values :func:`spectrum` set to exactly 0."""

    values: tuple = ()
    clamped: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(sorted(float(v) for v in self.values)))

    def __len__(self):
        return len(self.values)

    def union(self, other: "SpectrumMultiset") -> "SpectrumMultiset":
        return SpectrumMultiset(self.values + other.values)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class SpectrumComparison:
    """``witness`` is the first unmatched value (None when ``holds``)."""

    holds: bool
    max_pairing_error: float
    witness: float | None


def compare_spectra(
    a: SpectrumMultiset,
    b: SpectrumMultiset,
    mode: str = "equal",
    tol: float = DEFAULT_TOL,
) -> SpectrumComparison:
    """Compare eigenvalue multisets: ``equal`` or ``subset``.

    Two values match when ``|a - b| <= tol * max(1, |a|, |b|)``.
    ``subset`` greedily matches the sorted values of ``a`` into ``b``.  A
    union claim compares against ``b.union(c)`` with ``equal``.  Failure
    is reported (with the first unmatched value as witness), never raised.
    """
    if mode == "equal":
        return _equal(a, b, tol)
    if mode == "subset":
        return _subset(a, b, tol)
    raise ValueError(f"unknown comparison mode {mode!r}")


def _equal(a, b, tol) -> SpectrumComparison:
    worst = 0.0
    for x, y in zip(a.values, b.values):
        if not _close(x, y, tol):
            return SpectrumComparison(False, abs(x - y), x)
        worst = max(worst, abs(x - y))
    if len(a) != len(b):
        n = min(len(a), len(b))
        extra = a.values[n] if len(a) > n else b.values[n]
        return SpectrumComparison(False, float("inf"), extra)
    return SpectrumComparison(True, worst, None)


def _subset(a, b, tol) -> SpectrumComparison:
    worst = 0.0
    j = 0
    for x in a.values:
        while j < len(b.values) and b.values[j] < x and not _close(b.values[j], x, tol):
            j += 1
        if j >= len(b.values) or not _close(b.values[j], x, tol):
            return SpectrumComparison(False, float("inf"), x)
        worst = max(worst, abs(b.values[j] - x))
        j += 1
    return SpectrumComparison(True, worst, None)
