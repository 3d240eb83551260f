"""Reduced Betti numbers, harmonic cochain lifting, and the Betti inequality.

The kernel of the full degree-i Laplace operator realizes the i-th
reduced cohomology, so its dimension is topological: no face weight
changes it.  Betti numbers therefore have one route, exact ranks over the
rationals of the integer coboundaries, whatever the weight scheme.  The
exact rank is sparse row elimination over the integers with gcd
normalisation, pivoting on each row's lowest column as in the column
reduction of persistent homology; it reads the nonzeros of each
coboundary from :func:`~liftlap.complexes.coboundary`, so no dense
matrix is built.  Entries can grow during elimination of dense inputs;
coboundaries, with entries +-1 and i+2 nonzeros per row, do not trigger
this in practice (pivot entries stay +-1 on the torus covers
benchmarked).

The coboundaries of a complex are ranked from the top degree down, with
clearing (Chen and Kerber, "Persistent homology computation with a
twist", 2011).  A reduced row of d_j is a combination ``r`` of rows of
d_j, so ``r d_(j-1) = 0`` as ``d_j d_(j-1) = 0``: the row of d_(j-1) at
the lowest column of ``r``, the pivot column, is a combination of the
rows after it.  Taken from the last, each of the rank(d_j) rows of
d_(j-1) at pivot columns of d_j is thus a combination of rows at no
pivot column, and the reduction of d_(j-1) skips them.

Harmonic bases come from two positive definite solves, not from an
eigensolve.  With ``A_j`` the weighted coboundary of
:mod:`liftlap.operators`, ``A_i A_(i-1) = 0`` makes the degree-i
cochains the orthogonal sum of the image of ``A_(i-1)``, the image of
``A_i^H`` and the kernel of the full operator.  The pivot columns of
d_(i-1) pick a basis ``A_(i-1)[:, T]`` of the first image, the pivot rows
of d_i a basis ``A_i[R, :]^H`` of the second, so removing the projections
of a fixed-seed Gaussian block onto both leaves harmonic cochains; each
projection is one solve with a Gram matrix of size rank d_(i-1) or rank
d_i, and the lowest and top dimensions need only one of them.

Harmonic cochains of the base lift to harmonic cochains of a covering
complex by composing with the projection and correcting each value by
the orientation sign of the lifted face; the lifts of a kernel basis
stay independent, which is what forces the Betti inequality.  The lifts
are tested against the cover's full operator through products with its
weighted coboundaries, so no operator of the cover is assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import COMBINATORIAL, EXPLICIT_KIND, SimplicialComplex, WeightScheme, coboundary, compute_weights
from .covering import CoveringMap, _orientation_signs
from .errors import LiftlapError, WeightError
from .operators import DOWN, UP, _gram, _product, _weighted_coboundary


def integer_rank(triplets) -> int:
    """Exact rank over the rationals of an integer matrix, by sparse elimination.

    The matrix is given by its nonzeros ``(rows, cols, values)``, three
    1-d integer arrays of one length naming each (row, column) pair at
    most once, as :func:`~liftlap.complexes.coboundary` returns
    them; a zero value is no entry.  The rank is the number of pivots of
    the elimination that :func:`exact_betti_numbers` runs as well.  All
    arithmetic is in Python ints, so the result is exact and independent
    of any floating point path.

    Entries may still grow on dense inputs, where fill-in compounds the
    multipliers; coboundaries (entries +-1, i+2 nonzeros per row) do not
    trigger this.  Any other input raises :class:`LiftlapError`.
    """
    if not isinstance(triplets, (tuple, list)) or len(triplets) != 3:
        raise LiftlapError("integer_rank needs the nonzeros (rows, cols, values) of a matrix")
    arrays = tuple(map(np.asarray, triplets))
    at_row, at_col, values = arrays
    one_length = at_row.shape == at_col.shape == values.shape == (values.size,)
    if not one_length or {a.dtype.kind for a in arrays} - {"i", "u"}:
        got = ", ".join(f"{a.dtype} of shape {a.shape}" for a in arrays)
        raise LiftlapError(f"integer_rank needs three 1-d integer arrays of one length, got {got}")
    return len(_pivots(*arrays))


def _pivots(at_row, at_col, values) -> dict[int, int]:
    """``{pivot column: original row}`` of the sparse elimination of the
    matrix with nonzeros ``(at_row, at_col, values)``.

    Each row is a ``{column: value}`` dict.  Rows are reduced in the
    order they first appear against the pivot owning their lowest
    column, ``row <- (p[c]/g) row - (row[c]/g) p`` with ``g = gcd(p[c],
    row[c])``, and divided by the gcd of their entries; a row whose
    lowest column has no pivot yet becomes that column's pivot.  Each
    pivot row is its original row plus a combination of earlier pivot
    rows, so the original rows named are independent.
    """
    rows: dict[int, dict[int, int]] = {}
    for r, c, v in zip(at_row.tolist(), at_col.tolist(), values.tolist()):
        if v:
            rows.setdefault(r, {})[c] = v
    if sum(map(len, rows.values())) != np.count_nonzero(values):
        raise LiftlapError("integer_rank was given one (row, column) pair twice")
    pivots: dict[int, dict[int, int]] = {}
    owners: dict[int, int] = {}
    for r, row in rows.items():
        while row:
            g = math.gcd(*row.values())
            if g > 1:
                row = {c: v // g for c, v in row.items()}
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col], owners[col] = row, r
                break
            g = math.gcd(pivot[col], row[col])
            scale, factor = pivot[col] // g, row[col] // g
            reduced = {c: scale * v for c, v in row.items()}
            for c, v in pivot.items():
                reduced[c] = reduced.get(c, 0) - factor * v
            row = {c: v for c, v in reduced.items() if v}
    return owners


def _cleared_pivots(K: SimplicialComplex) -> dict[int, dict[int, int]]:
    """``{j: pivots of d_j}`` for every coboundary of ``K``, ranked from the
    top degree down; the rows of d_(j-1) at pivot columns of d_j are
    skipped (clearing, see the module docstring)."""
    pivots: dict[int, dict[int, int]] = {}
    cleared: dict[int, int] = {}
    for j in range(K.top_dim - 1, K.min_dim - 1, -1):
        rows, cols, values = coboundary(K, j)
        skip = np.zeros(K.face_count(j + 1), bool)
        skip[np.fromiter(cleared, np.int64, len(cleared))] = True
        keep = ~skip[rows]
        pivots[j] = cleared = _pivots(rows[keep], cols[keep], values[keep])
    return pivots


def _betti(K: SimplicialComplex, pivots: dict) -> dict:
    return {i: K.face_count(i) - len(pivots.get(i, ())) - len(pivots.get(i - 1, ())) for i in K.dims()}


def exact_betti_numbers(K: SimplicialComplex) -> dict:
    """Betti numbers ``dim C^i - rank d_i - rank d_(i-1)`` from exact ranks,
    each coboundary ranked once, from the top degree down with clearing."""
    return _betti(K, _cleared_pivots(K))


def _restrict(layer, axis: int, keep) -> tuple:
    """The nonzeros of ``layer`` in the rows (``axis`` 0) or columns (1)
    listed in ``keep``, renumbered in the order of ``keep``."""
    *index, values, shape = layer
    position = np.full(shape[axis], -1)
    position[keep] = np.arange(len(keep))
    at = position[index[axis]]
    kept = at >= 0
    index = [a[kept] for a in index]
    index[axis] = at[kept]
    shape = list(shape)
    shape[axis] = len(keep)
    return index[0], index[1], values[kept], tuple(shape)


def _harmonic_bases(K: SimplicialComplex, scheme: WeightScheme, betti: dict, pivots: dict) -> dict:
    """An orthonormal basis of each nonzero kernel of the full operators of
    ``K`` under ``scheme``, mapped back to cochain values (divided by the
    square roots of the face weights); ``pivots`` is
    :func:`_cleared_pivots` of ``K``.  A Gaussian block of b_i + 4
    columns, drawn with a fixed seed, loses its projection onto the
    image of ``A_(i-1)`` and then onto the image of ``A_i^H``; its b_i
    leading left singular vectors are the basis.  The 4 columns beyond
    b_i keep the b_i-th singular value of the harmonic block away from
    zero, which b_i columns alone would not."""
    w = compute_weights(K, scheme)
    bases = {}
    for i, b in betti.items():
        if not b:
            continue
        H = np.random.default_rng(0).standard_normal((K.face_count(i), b + 4))
        if pivots.get(i - 1):
            A = _restrict(_weighted_coboundary(K, i - 1, w, None), 1, list(pivots[i - 1]))
            H -= _product(A, np.linalg.solve(_gram(A, UP), _product(A, H, adjoint=True)))
        if pivots.get(i):
            A = _restrict(_weighted_coboundary(K, i, w, None), 0, list(pivots[i].values()))
            H -= _product(A, np.linalg.solve(_gram(A, DOWN), _product(A, H)), adjoint=True)
        bases[i] = np.linalg.svd(H, full_matrices=False)[0][:, :b] / np.sqrt(w[i])[:, None]
    return bases


def _full_laplacian_product(K: SimplicialComplex, i: int, w: dict, X: np.ndarray) -> np.ndarray:
    """``L X`` for the Hermitian form ``L = A_i^H A_i + A_(i-1) A_(i-1)^H``
    of the full degree-i operator of ``K`` under the face weights ``w``
    (the up part alone at the lowest dimension), from the nonzeros of the
    weighted coboundaries."""
    out = np.zeros(X.shape)
    if i < K.top_dim:
        A = _weighted_coboundary(K, i, w, None)
        out += _product(A, _product(A, X), adjoint=True)
    if i > K.min_dim:
        A = _weighted_coboundary(K, i - 1, w, None)
        out += _product(A, _product(A, X, adjoint=True))
    return out


# -- harmonic lifting ----------------------------------------------------------


def lift_cochain(values, i: int, cov: CoveringMap) -> np.ndarray:
    """Pull a base i-cochain, or a basis of them, back to the cover.

    The lifted value on a cover face is the base value on its image
    times the orientation sign of the pointwise vertex map: the parity of
    the inversions among the images of the face's vertices, read in the
    face's own (increasing) order.  ``values`` is indexed by the base
    i-faces in canonical order: a vector, or a matrix with one cochain
    per column; the fibers place every column at once.  Kernels are
    preserved because the combinatorial and normalized weight ratios
    across incidences match between cover and base.
    """
    K, fibers = cov.cover, cov.fibers[i]
    signs = _orientation_signs(cov, i).ravel()
    values = np.asarray(values)
    out = np.zeros((K.face_count(i),) + values.shape[1:], np.result_type(values.dtype, float))
    cols = np.arange(len(fibers)).repeat(fibers.shape[1])
    out[fibers.ravel()] = signs.reshape((-1,) + (1,) * (values.ndim - 1)) * values[cols]
    return out


@dataclass
class DimensionVerdict:
    dim: int
    betti_base: int
    betti_cover: int
    lift_residual: float
    lift_sigma_min: float | None
    holds: bool


@dataclass
class BettiInequalityReport:
    per_dim: tuple
    holds: bool
    scheme: str


def verify_betti_inequality(
    cov: CoveringMap,
    schemes=(COMBINATORIAL,),
    tol: float = 1e-8,
) -> tuple:
    """Check the covering Betti inequality dimension by dimension, per scheme.

    Returns one :class:`BettiInequalityReport` per scheme in ``schemes``,
    in that order.  For each dimension: the cover's Betti number must be
    at least the base's, a kernel basis of the base operator must lift
    into the cover's kernel (residual at most ``tol``), and the lifted
    set must stay independent (smallest singular value at least
    ``tol``).  Any failed sub-check marks the report as not holding; it
    never raises.  Both Betti numbers are exact and do not depend on the
    scheme, so each complex is ranked once for all schemes; the residual
    and the singular value are the numeric side of the verdict.  The base
    bases come from the Gram solves of :func:`_harmonic_bases`, only
    where the base kernel is nonzero, and the residual from products
    with the cover's weighted coboundaries: no Laplacian is assembled
    and nothing is eigensolved.
    """
    if any(scheme.kind == EXPLICIT_KIND for scheme in schemes):
        raise WeightError(
            "the Betti inequality is only claimed for the combinatorial and "
            "normalized schemes"
        )
    base_pivots = _cleared_pivots(cov.base)
    base_betti = _betti(cov.base, base_pivots)
    cover_betti = exact_betti_numbers(cov.cover)
    return tuple(
        _inequality_report(cov, scheme, base_betti, base_pivots, cover_betti, tol) for scheme in schemes
    )


def _inequality_report(cov, scheme, base_betti, base_pivots, cover_betti, tol) -> BettiInequalityReport:
    bases = _harmonic_bases(cov.base, scheme, base_betti, base_pivots)
    w = compute_weights(cov.cover, scheme)
    verdicts = []
    for i in sorted(base_betti):
        b_base = base_betti[i]
        b_cover = cover_betti.get(i, 0)
        residual = 0.0
        sigma_min = None
        if b_base:
            lifted = lift_cochain(bases[i], i, cov)
            lifted = lifted / np.linalg.norm(lifted, axis=0)
            # L x in cochain units, L = W^{-1/2} (Hermitian form) W^{1/2}
            root = np.sqrt(w[i])[:, None]
            residual = float(np.max(np.abs(_full_laplacian_product(cov.cover, i, w, root * lifted) / root)))
            sigma_min = float(np.linalg.svd(lifted, compute_uv=False)[-1])
        ok = b_cover >= b_base and residual <= tol and (sigma_min is None or sigma_min >= tol)
        verdicts.append(DimensionVerdict(i, b_base, b_cover, residual, sigma_min, ok))
    return BettiInequalityReport(tuple(verdicts), all(v.holds for v in verdicts), scheme.kind)
