"""Up/down/full Laplace operators and tolerance-aware spectra.

The degree-i coboundary ``D_i`` of :mod:`liftlap.complexes` has rows
indexed by (i+1)-faces and columns by i-faces.  Every operator is
assembled Hermitian positive semidefinite from the weighted coboundary
``A_i = W_{i+1}^{1/2} D_i W_i^{-1/2}``: the i-up operator is
``A_i^H A_i`` and the i-down operator ``A_{i-1} A_{i-1}^H``.  Through
``W_i^{1/2}`` each is similar to its operator on cochains,
``W_i^{-1} D_i^H W_{i+1} D_i`` (up) or ``D_{i-1} W_{i-1}^{-1}
D_{i-1}^H W_i`` (down), so the spectrum is the same.

An incidence weighting decorates the coboundary: each nonzero, the sign
of an incidence, is multiplied by the incidence's value, a nonzero
scalar or a d x d matrix (every value of one weighting has the same d).
With matrix values each face becomes d rows and columns, each nonzero
the d² entries of its block, and each face weight is repeated d times,
so one assembly serves every case: the plain operator, a signing
(values -1), a complex character weighting, a block of a lifted
operator (values rho_j(psi)), and the lifted coboundary itself (values
the permutation matrices P(psi)).  The adjoint uses the conjugate
transpose.

One incidence layer serves two operators: the spectra of ``A_i^H A_i``
and ``A_i A_i^H``, the i-up and (i+1)-down operators, agree except for
``|n_{i+1} - n_i|`` extra zeros.  :func:`layer_spectra` therefore
eigensolves only the smaller Gram matrix and pads the other side with
exact zeros, and at the top dimension (no (i+1)-faces) it solves
nothing.  The ``verify`` and ``decompose`` commands take every spectrum
they compare from it; ``liftlap spectrum`` eigensolves the assembled
operator, so its ``clamped`` count reports the operator's own kernel
noise.

Incidence layers are stored as their nonzeros, (row, col, value)
triplets: a plain coboundary row has i+2 of them, a decorated one
(i+2)·d.  Only the eigensolve is dense: each entry of a Gram product is
summed over the cofacets (up) or faces (down) its two faces share,
straight into a dense array.  The package targets desk-scale complexes,
where dense eigensolves are simpler and exactly testable.
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
    coboundary,
    compute_weights,
)
from .errors import DimensionError, EigensolverError, WeightError

UP = "up"
DOWN = "down"
FULL = "full"

DEFAULT_TOL = 1e-8


class IncidenceWeighting:
    """A nonzero weight on every (face, cofacet) incidence.

    A value is a scalar or a square d x d matrix; all values share one
    size ``block_size`` (1 for scalars, and a 1 x 1 matrix is stored as
    its scalar).  Pairs not listed carry the d x d identity, which is 1
    for scalars.  A value whose imaginary part is exactly zero is stored
    real (float64) and any other as complex128; ``dtype``, the dtype of
    the decorated coboundary, is float64 when every value is real and
    complex128 otherwise, so a weighting file with only real parts, or a
    real block of a lifted operator, is solved in real arithmetic.  A
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
            if np.iscomplexobj(v) and not v.imag.any():
                v = v.real
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


def decorated_coboundary(K: SimplicialComplex, i: int, decoration=None):
    """Nonzeros ``(row, col, value)`` of the degree-i coboundary, each
    scaled by its incidence weight.

    Without a decoration these are the triplets of
    :func:`~liftlap.complexes.coboundary`.  With d x d weights the
    nonzero at (r, c) of incidence (F, Fbar) becomes the d² entries of
    the block ``sign * value(F, Fbar)``, zeros included, at rows
    ``r*d .. r*d+d-1`` and columns ``c*d .. c*d+d-1``.
    """
    rows, cols, signs = coboundary(K, i)
    if decoration is None:
        return rows, cols, signs
    if not isinstance(decoration, IncidenceWeighting):
        raise TypeError(f"unsupported decoration {decoration!r}")
    cofacets, faces = K.faces(i + 1), K.faces(i)
    d = decoration.block_size
    values = np.array(
        [decoration.value(faces[c], cofacets[r]) for r, c in zip(rows.tolist(), cols.tolist())],
        dtype=decoration.dtype,
    ).reshape(-1, d, d)
    values = signs[:, None, None] * values
    within = np.arange(d)
    rows = np.broadcast_to((rows * d)[:, None, None] + within[:, None], values.shape)
    cols = np.broadcast_to((cols * d)[:, None, None] + within, values.shape)
    return rows.ravel(), cols.ravel(), values.ravel()


@dataclass
class OperatorMatrix:
    """A Laplace operator and the weight diagonal ``W`` of its degree.

    ``matrix`` is the Hermitian PSD form ``W^{1/2} L W^{-1/2}`` of the
    operator ``L`` on cochains; ``L = W^{-1/2} matrix W^{1/2}``.
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


def laplacian_matrix(
    K: SimplicialComplex,
    i: int,
    kind: str = UP,
    scheme: WeightScheme = COMBINATORIAL,
    decoration=None,
) -> OperatorMatrix:
    """Assemble the i-dimensional up/down/full Laplace operator of ``K``.

    Up is ``A_i^H A_i``, down is ``A_{i-1} A_{i-1}^H`` and full is their
    sum, with ``A`` the weighted coboundary of the module docstring.
    ``decoration`` (an :class:`IncidenceWeighting`) applies to the
    coboundary layer each part actually uses: (i, i+1) for up, (i-1, i)
    for down.  With d x d values the operator is d times as wide, every
    face weight repeated d times.

    Valid dimensions: up needs ``min_dim <= i <= top_dim`` (the top
    dimension yields a zero matrix), down needs ``min_dim + 1 <= i <=
    top_dim``; full needs both.
    """
    w = compute_weights(K, scheme)
    if kind not in (UP, DOWN, FULL):
        raise DimensionError(f"unknown operator kind {kind!r}")
    mat = 0
    if kind != DOWN:
        if not K.min_dim <= i <= K.top_dim:
            raise DimensionError(f"up operator needs {K.min_dim} <= i <= {K.top_dim}, got {i}")
        mat = _gram(_weighted_coboundary(K, i, w, decoration), UP)
    if kind != UP:
        if not K.min_dim + 1 <= i <= K.top_dim:
            raise DimensionError(f"down operator needs {K.min_dim + 1} <= i <= {K.top_dim}, got {i}")
        mat = mat + _gram(_weighted_coboundary(K, i - 1, w, decoration), DOWN)
    return OperatorMatrix(mat, _weights(w[i], decoration))


def _weights(w: np.ndarray, decoration) -> np.ndarray:
    """A weight diagonal, each weight repeated once per row of the
    decoration's d x d values."""
    return np.repeat(w, getattr(decoration, "block_size", 1))


def _weighted_coboundary(K: SimplicialComplex, i: int, w, decoration):
    """Nonzeros ``(row, col, value)`` of ``A = W_{i+1}^{1/2} D_i W_i^{-1/2}``
    for the decorated degree-i coboundary ``D_i`` and the face weights
    ``w`` (all positive), followed by the shape of ``A``."""
    # at the top dimension there are no (i+1)-faces to weight
    hi, lo = _weights(w.get(i + 1, np.zeros(0)), decoration), _weights(w[i], decoration)
    rows, cols, values = decorated_coboundary(K, i, decoration)
    return rows, cols, values * np.sqrt(hi[rows] / lo[cols]), (len(hi), len(lo))


def _gram(layer, kind: str) -> np.ndarray:
    """``A^H A`` (``kind`` UP) or ``A A^H`` (DOWN) as a dense array, from
    the nonzeros of ``A`` that :func:`_weighted_coboundary` returns.

    Entry (a, b) is the sum of ``conj(u) * v`` over the pairs of nonzeros
    u at a and v at b that share a row (up) or a column (down; there the
    values enter conjugated).  The nonzeros are grouped by the shared
    index and each is paired with every member of its group, so a group
    of size s costs s² products, all formed at once and summed by
    ``np.bincount``, real and imaginary parts apart.  Entries (a, b) and
    (b, a) sum mirrored products in the same group order, so the result
    is exactly Hermitian.
    """
    rows, cols, values, (n_hi, n_lo) = layer
    if kind == UP:
        groups, index, n = rows, cols, n_lo
    else:
        groups, index, values, n = cols, rows, values.conj(), n_hi
    order = np.argsort(groups, kind="stable")
    groups, index, values = groups[order], index[order], values[order]
    counts = np.bincount(groups)
    size = counts[groups]
    # nonzero k is repeated size[k] times as the first of a pair; the
    # second runs over its group, which starts at first[k]
    first = (np.cumsum(counts) - counts)[groups]
    a = np.repeat(np.arange(len(index)), size)
    b = np.arange(len(a)) + np.repeat(first - (np.cumsum(size) - size), size)
    pairs = index[a] * n + index[b]
    u, v = values[a], values[b]
    if not np.iscomplexobj(u):
        return np.bincount(pairs, u * v, n * n).reshape(n, n)
    gram = np.bincount(pairs, u.real * v.real + u.imag * v.imag, n * n).astype(complex)
    gram.imag = np.bincount(pairs, u.real * v.imag - u.imag * v.real, n * n)
    return gram.reshape(n, n)


def layer_spectra(
    K: SimplicialComplex,
    i: int,
    scheme: WeightScheme = COMBINATORIAL,
    decoration=None,
) -> tuple["SpectrumMultiset", "SpectrumMultiset"]:
    """Spectra of the i-up and the (i+1)-down operator from one eigensolve.

    Returns ``(up_i, down_{i+1})``, each the multiset :func:`spectrum`
    gives for the assembled operator, up to rounding.  The weighted
    coboundary ``A`` is built once; the smaller of ``A^H A`` (up) and
    ``A A^H`` (down) goes through :func:`spectrum`, and the other side
    is the same multiset padded with exact zeros.  At ``i == top_dim``
    the up spectrum is all zeros and the down side is empty, and nothing
    is solved.  Valid layers: ``min_dim <= i <= top_dim``.
    """
    if not K.min_dim <= i <= K.top_dim:
        raise DimensionError(f"incidence layer needs {K.min_dim} <= i <= {K.top_dim}, got {i}")
    layer = _weighted_coboundary(K, i, compute_weights(K, scheme), decoration)
    n_hi, n_lo = layer[3]
    up = n_lo <= n_hi
    solved = spectrum(OperatorMatrix(_gram(layer, UP if up else DOWN), np.ones(min(n_hi, n_lo))))
    padded = SpectrumMultiset(solved.values + (0.0,) * abs(n_hi - n_lo), solved.clamped)
    return (solved, padded) if up else (padded, solved)


def spectrum(op: OperatorMatrix) -> "SpectrumMultiset":
    """Eigenvalues of an operator, sorted ascending, clamped at zero.

    Eigenvalues with ``|v| <= 1e-9`` (relative) are the kernel up to
    eigensolver noise: they are set to exactly 0, and ``clamped`` counts
    those that were not 0 already.  Anything below ``-1e-9`` means the
    operator was not positive semidefinite and raises.  ``eigvalsh``
    reads one triangle of ``op.matrix``, which this module assembles
    exactly Hermitian; a matrix built elsewhere should be as well.
    """
    if op.size == 0:
        return SpectrumMultiset()
    scale = max(1.0, float(np.max(np.abs(op.matrix))))
    try:
        vals = np.linalg.eigvalsh(op.matrix)
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


def _close(a, b, tol: float):
    """``|a - b| <= tol * max(1, |a|, |b|)``, elementwise on floats or arrays."""
    return abs(a - b) <= tol * np.maximum(1.0, np.maximum(abs(a), abs(b)))


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
    ``subset`` greedily matches the sorted values of ``a`` into ``b``:
    each takes the first unused value of ``b`` it matches, passing over
    the smaller ones it does not (found in array passes, which is exact
    for ``tol < 1`` and for spectra without negative values).  A union
    claim compares against ``b.union(c)`` with ``equal``.  Failure is
    reported (with the first unmatched value as witness), never raised.
    """
    if mode == "equal":
        return _equal(a, b, tol)
    if mode == "subset":
        return _subset(a, b, tol)
    raise ValueError(f"unknown comparison mode {mode!r}")


def _equal(a, b, tol) -> SpectrumComparison:
    n = min(len(a), len(b))
    x, y = np.array(a.values[:n]), np.array(b.values[:n])
    close = _close(x, y, tol)
    if not close.all():
        j = int(np.argmin(close))
        return SpectrumComparison(False, float(abs(x[j] - y[j])), a.values[j])
    if len(a) != len(b):
        extra = a.values[n] if len(a) > n else b.values[n]
        return SpectrumComparison(False, float("inf"), extra)
    return SpectrumComparison(True, float(np.max(abs(x - y), initial=0.0)), None)


def _subset(a, b, tol) -> SpectrumComparison:
    # The greedy pointer stops for x at the first value of b that is not
    # both below x and apart from it.  Below x, the values close to x are
    # the largest ones (when tol < 1 |x - y| falls faster than the bound
    # as y rises, and for 0 <= y < x the bound is fixed), so with no
    # pointer that stop is a bisection on the t values below x, and the
    # pointer moves it to the place after the previous match if later.
    # y has one pad value so that a stop or match past the end indexes it
    x, y = np.array(a.values), np.array(b.values + (0.0,))
    lo, hi = np.zeros(len(x), np.int64), np.searchsorted(y[: len(b)], x)
    while (lo < hi).any():
        mid = (lo + hi) // 2
        near, open_ = _close(y[mid], x, tol), lo < hi
        hi = np.where(open_ & near, mid, hi)
        lo = np.where(open_ & ~near, mid + 1, lo)
    steps = np.arange(len(x))
    match = np.maximum.accumulate(lo - steps) + steps
    paired = (match < len(b)) & _close(y[np.minimum(match, len(b))], x, tol)
    if not paired.all():
        return SpectrumComparison(False, float("inf"), a.values[int(np.argmin(paired))])
    return SpectrumComparison(True, float(np.max(abs(y[match] - x), initial=0.0)), None)
