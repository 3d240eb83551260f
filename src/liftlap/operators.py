"""Up/down/full Laplace operators and their spectra.

The degree-i coboundary ``D_i`` of :mod:`liftlap.complexes` has rows
indexed by (i+1)-faces and columns by i-faces.  Every operator is
assembled Hermitian positive semidefinite from the weighted coboundary
``A_i = W_{i+1}^{1/2} D_i W_i^{-1/2}``: the i-up operator is
``A_i^H A_i`` and the i-down operator ``A_{i-1} A_{i-1}^H``.  Through
``W_i^{1/2}`` each is similar to its operator on cochains,
``W_i^{-1} D_i^H W_{i+1} D_i`` (up) or ``D_{i-1} W_{i-1}^{-1}
D_{i-1}^H W_i`` (down), so the spectrum is the same.

An incidence weighting decorates the coboundary by
:func:`~liftlap.complexes.decorated_coboundary`, the builder the Betti
twist shares: each nonzero, the sign of an incidence, becomes the block
of the sign times the incidence's value, a nonzero scalar or a d x d
matrix (one d per weighting), less its zero entries.  Each face weight
is repeated d times, so one assembly serves the plain operator, a
signing (values -1) and a weighting by scalars or matrices, real or
complex.  The adjoint uses the conjugate transpose.

A cover's spectrum is the union of its blocks' once the factorization
of :func:`~liftlap.covering.factor_lifted_coboundary` and the block
identity of :func:`~liftlap.representation.block_identity` hold.  The
identity reads the blocks' value arrays, not a weighting, so the
``verify`` and ``decompose`` commands, which prove that union, solve
nothing.  ``liftlap spectrum`` eigensolves the assembled operator, so
its ``clamped`` count reports the operator's own kernel noise.

Incidence layers are stored as their nonzeros, (row, col, value)
triplets: a plain coboundary row has i+2 of them, a decorated one at
most (i+2)·d.  Only the eigensolve is dense: each entry of a Gram product is
summed over the cofacets (up) or faces (down) its two faces share,
straight into a dense array.  The package targets desk-scale complexes,
where dense eigensolves are simpler and exactly testable.  A product of
``A`` or ``A^H`` with a few columns stays in nonzeros: the Betti
verdict of :mod:`liftlap.homology` assembles no operator of the cover,
and neither does any spectral verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .complexes import (
    COMBINATORIAL,
    SimplicialComplex,
    WeightScheme,
    coboundary,
    compute_weights,
    decorated_coboundary,
)
from .errors import DimensionError, EigensolverError, LiftlapError, WeightError

UP = "up"
DOWN = "down"
FULL = "full"


class IncidenceWeighting:
    """A nonzero weight on every incidence of ``complex``, one array per
    incidence layer.

    ``layers[i]`` holds a value per nonzero of ``coboundary(complex, i)``,
    in its order: ``(nnz_i,)`` scalars or ``(nnz_i, d, d)`` matrices of
    one size ``block_size`` (a 1 x 1 matrix is its scalar); a layer not
    listed carries the identity.  ``dtype`` is complex128 when some
    layer's values are complex, whatever their imaginary parts, and
    float64 otherwise, so an operator is solved real exactly where its
    values are given real, whatever their rounding.  A signing has values
    -1."""

    def __init__(self, K: SimplicialComplex, layers: Mapping | None = None):
        self.complex = K
        self.layers = {}
        for i, v in (layers or {}).items():
            v = np.asarray(v)
            if v.shape[1:] == (1, 1):
                v = v[:, 0, 0]
            if v.ndim != 1 and not (v.ndim == 3 and v.shape[1] == v.shape[2]):
                raise WeightError(f"layer {i} weights of shape {v.shape} are neither scalars nor square matrices")
            if len(v) != len(coboundary(K, i)[0]):
                raise WeightError(f"layer {i} has {len(v)} weights for its {len(coboundary(K, i)[0])} incidences")
            v = v.astype(np.complex128 if np.iscomplexobj(v) else np.float64)
            zero = (v == 0).all(axis=tuple(range(1, v.ndim)))
            if zero.any():
                raise WeightError(f"incidence weight {int(np.argmax(zero))} of layer {i} must be nonzero")
            self.layers[i] = v
        sizes = {v.shape[-1] if v.ndim == 3 else 1 for v in self.layers.values()}
        if len(sizes) > 1:
            raise WeightError(f"incidence weights mix block sizes {sorted(sizes)}")
        self.block_size = sizes.pop() if sizes else 1
        self.dtype = np.dtype(np.complex128 if any(map(np.iscomplexobj, self.layers.values())) else np.float64)


def incidence_weighting(K: SimplicialComplex, values: Mapping) -> IncidenceWeighting:
    """The weighting of ``K`` with ``values[(face, cofacet)]`` at each
    listed incidence and the identity at the other incidences of the
    layers listed.  Each pair is looked up among the i+2 nonzeros of its
    cofacet's coboundary row, one batch per layer; the first pair that is
    not an incidence of ``K``, or whose value is zero, is named."""
    pairs = [(tuple(f), tuple(c)) for f, c in values]
    vals = [v[0, 0] if v.shape == (1, 1) else v for v in map(np.asarray, values.values())]
    try:
        vals = np.array(vals)
    except ValueError:
        raise WeightError(f"incidence weights mix shapes {sorted({v.shape for v in vals})}") from None
    vals = vals.astype(np.result_type(vals, float))
    face, cofacet = K._indices([f for f, _ in pairs]), K._indices([c for _, c in pairs])
    layer, gap = np.array([(len(f) - 1, len(c) - len(f)) for f, c in pairs], np.int64).reshape(-1, 2).T
    found = (face >= 0) & (cofacet >= 0) & (gap == 1)
    at, layers = np.full(len(pairs), -1, np.int64), {}
    unit = np.eye(*vals.shape[1:]) if vals.ndim == 3 else 1.0
    for i in sorted(set(layer[found].tolist())):
        sel = np.flatnonzero(found & (layer == i))
        table = coboundary(K, i)[1].reshape(-1, i + 2)
        hit = table[cofacet[sel]] == face[sel, None]
        at[sel] = np.where(hit.any(axis=1), cofacet[sel] * (i + 2) + hit.argmax(axis=1), -1)
        layers[i] = np.broadcast_to(unit, (table.size,) + vals.shape[1:]).astype(vals.dtype)
        layers[i][at[sel]] = vals[sel]
    bad = (at < 0) | (vals == 0).all(axis=tuple(range(1, vals.ndim)))
    if bad.any():
        j = int(np.argmax(bad))
        pair = f"({list(pairs[j][0])}, {list(pairs[j][1])})"
        if at[j] < 0:
            raise WeightError(f"{pair} is not a (face, cofacet) incidence of the complex")
        raise WeightError(f"incidence weight for {pair} must be nonzero")
    return IncidenceWeighting(K, layers)


def laplacian_matrix(
    K: SimplicialComplex,
    i: int,
    kind: str = UP,
    scheme: WeightScheme = COMBINATORIAL,
    decoration=None,
) -> np.ndarray:
    """The i-dimensional up/down/full Laplace operator of ``K``, assembled
    as the Hermitian PSD form ``W^{1/2} L W^{-1/2}`` of the operator ``L``
    on cochains, ``W`` the weight diagonal of the degree.

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
    return mat


def _weighted_coboundary(K: SimplicialComplex, i: int, w, decoration):
    """Nonzeros ``(row, col, value)`` of ``A = W_{i+1}^{1/2} D_i W_i^{-1/2}``
    for the degree-i coboundary ``D_i`` decorated by the weighting's layer
    i (the identity where it lists none) and the face weights ``w`` (all
    positive), followed by the shape of ``A``.  A weighting of another
    complex, one that is neither the same object nor equal, is refused."""
    values, d = None, getattr(decoration, "block_size", 1)
    if decoration is not None:
        if decoration.complex is not K and decoration.complex != K:
            raise WeightError("the weighting was built for another complex")
        unit = np.broadcast_to(np.eye(d), (len(coboundary(K, i)[0]), d, d))
        values = decoration.layers.get(i, unit).astype(decoration.dtype)
    # at the top dimension there are no (i+1)-faces to weight
    hi, lo = np.repeat(w.get(i + 1, np.zeros(0)), d), np.repeat(w[i], d)
    rows, cols, values = decorated_coboundary(K, i, values)
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
    is exactly Hermitian.  An n x n array that cannot be allocated is
    refused with :class:`LiftlapError`, naming ``kind`` and n.
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
    try:
        if not np.iscomplexobj(u):
            return np.bincount(pairs, u * v, n * n).reshape(n, n)
        gram = np.bincount(pairs, u.real * v.real + u.imag * v.imag, n * n).astype(complex)
        gram.imag = np.bincount(pairs, u.real * v.imag - u.imag * v.real, n * n)
    except MemoryError:
        raise LiftlapError(f"the dense {kind} operator of {n} x {n} entries does not fit in memory") from None
    return gram.reshape(n, n)


def spectrum(op: np.ndarray) -> "SpectrumMultiset":
    """Eigenvalues of an operator's Hermitian array, sorted ascending,
    clamped at zero.

    Eigenvalues with ``|v| <= 1e-9`` (relative) are the kernel up to
    eigensolver noise: they are set to exactly 0, and ``clamped`` counts
    those that were not 0 already.  Anything below ``-1e-9`` means the
    operator was not positive semidefinite and raises.  ``eigvalsh``
    reads one triangle of ``op``, which :func:`laplacian_matrix` assembles
    exactly Hermitian; a matrix built elsewhere should be as well.
    """
    if op.size == 0:
        return SpectrumMultiset()
    scale = max(1.0, float(np.max(np.abs(op))))
    try:
        vals = np.linalg.eigvalsh(op)
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
