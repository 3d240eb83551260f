"""Reduced Betti numbers, harmonic cochain lifting, and the Betti inequality.

The kernel of the full degree-i Laplace operator realizes the i-th
reduced cohomology, so its dimension is topological: no face weight
changes it.  Betti numbers therefore have one route, exact ranks over the
rationals of the integer coboundaries, whatever the weight scheme; the
eigensolve is kept only to produce harmonic bases, and runs only where
the Betti number is nonzero.  The exact rank is sparse row elimination
over the integers with gcd normalisation, pivoting on each row's lowest
column as in the column reduction of persistent homology; it reads the
nonzeros of each coboundary from :func:`~liftlap.complexes.coboundary`,
so no dense matrix is built, and each coboundary is ranked once.
Entries can grow during elimination of dense inputs; coboundaries, with
entries +-1 and i+2 nonzeros per row, do not trigger this in practice
(pivot entries stay +-1 on the torus covers benchmarked).

Harmonic cochains of the base lift to harmonic cochains of a covering
complex by composing with the projection and correcting each value by
the orientation sign of the lifted face; the lifts of a kernel basis
stay independent, which is what forces the Betti inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import (
    COMBINATORIAL,
    EXPLICIT_KIND,
    SimplicialComplex,
    WeightScheme,
    coboundary,
    relative_orientation_sign,
)
from .covering import CoveringMap
from .errors import LiftlapError, WeightError
from .operators import FULL, UP, laplacian_matrix


def integer_rank(triplets) -> int:
    """Exact rank over the rationals of an integer matrix, by sparse elimination.

    The matrix is given by its nonzeros ``(rows, cols, values)``, three
    1-d integer arrays of one length naming each (row, column) pair at
    most once, as :func:`~liftlap.complexes.coboundary` returns
    them; a zero value is no entry.  Each row is a ``{column: value}``
    dict.  Rows are reduced in order against the pivot owning their
    lowest column, ``row <- (p[c]/g) row - (row[c]/g) p`` with
    ``g = gcd(p[c], row[c])``, and divided by the gcd of their entries;
    a row whose lowest column has no pivot yet becomes that column's
    pivot.  The rank is the number of pivots.  All arithmetic is in
    Python ints, so the result is exact and independent of the floating
    eigensolver path.

    Entries may still grow on dense inputs, where fill-in compounds the
    multipliers; coboundaries (entries +-1, i+2 nonzeros per row) do not
    trigger this.  Any other input raises :class:`LiftlapError`.
    """
    if not isinstance(triplets, (tuple, list)) or len(triplets) != 3:
        raise LiftlapError("integer_rank needs the nonzeros (rows, cols, values) of a matrix")
    at_row, at_col, values = arrays = tuple(map(np.asarray, triplets))
    one_length = at_row.shape == at_col.shape == values.shape == (values.size,)
    if not one_length or {a.dtype.kind for a in arrays} - {"i", "u"}:
        got = ", ".join(f"{a.dtype} of shape {a.shape}" for a in arrays)
        raise LiftlapError(f"integer_rank needs three 1-d integer arrays of one length, got {got}")
    rows: dict[int, dict[int, int]] = {}
    for r, c, v in zip(at_row.tolist(), at_col.tolist(), values.tolist()):
        if v:
            rows.setdefault(r, {})[c] = v
    if sum(map(len, rows.values())) != np.count_nonzero(values):
        raise LiftlapError("integer_rank was given one (row, column) pair twice")
    pivots: dict[int, dict[int, int]] = {}
    for row in rows.values():
        while row:
            g = math.gcd(*row.values())
            if g > 1:
                row = {c: v // g for c, v in row.items()}
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            g = math.gcd(pivot[col], row[col])
            scale, factor = pivot[col] // g, row[col] // g
            reduced = {c: scale * v for c, v in row.items()}
            for c, v in pivot.items():
                reduced[c] = reduced.get(c, 0) - factor * v
            row = {c: v for c, v in reduced.items() if v}
    return len(pivots)


@dataclass
class BettiReport:
    """Betti numbers per dimension with harmonic bases of the same size.

    ``kernel_bases[i]`` has ``betti[i]`` columns spanning the kernel of
    the full Laplacian.  ``reduced`` is False when the complex omits the
    empty face, in which case the degree-0 number counts components
    rather than components minus one.
    """

    betti: dict
    kernel_bases: dict
    reduced: bool


def exact_betti_numbers(K: SimplicialComplex) -> dict:
    """Betti numbers ``dim C^i - rank d_i - rank d_(i-1)`` from exact ranks.

    Each coboundary d_j is built and ranked once, though it bounds both
    degree j (up) and degree j + 1 (down).
    """
    ranks = {j: integer_rank(coboundary(K, j)) for j in range(K.min_dim, K.top_dim)}
    return {i: K.face_count(i) - ranks.get(i, 0) - ranks.get(i - 1, 0) for i in K.dims()}


def _full_laplacian(K: SimplicialComplex, i: int, scheme: WeightScheme):
    # the down part only exists above the minimum dimension
    return laplacian_matrix(K, i, FULL if i > K.min_dim else UP, scheme)


def betti_numbers(K: SimplicialComplex, scheme: WeightScheme = COMBINATORIAL) -> BettiReport:
    """Reduced Betti numbers of ``K`` with a harmonic basis for each.

    The numbers come from :func:`exact_betti_numbers` for every scheme.
    Where b_i > 0 the basis is the b_i eigenvectors of least eigenvalue
    of the full degree-i Laplacian under ``scheme``, mapped from the
    Hermitian operator back to cochain values; where b_i = 0 it is empty
    and no operator is built.
    """
    betti = exact_betti_numbers(K)
    return BettiReport(betti, _harmonic_bases(K, betti, scheme), K.include_empty)


def _harmonic_bases(K: SimplicialComplex, betti: dict, scheme: WeightScheme) -> dict:
    bases = {}
    for i, b in betti.items():
        if b == 0:
            bases[i] = np.zeros((K.face_count(i), 0))
            continue
        op = _full_laplacian(K, i, scheme)
        bases[i] = np.linalg.eigh(op.matrix)[1][:, :b] / np.sqrt(op.weights)[:, None]
    return bases


# -- harmonic lifting ----------------------------------------------------------


def lift_cochain(values, i: int, cov: CoveringMap) -> np.ndarray:
    """Pull a base i-cochain, or a basis of them, back to the cover.

    The lifted value on a cover face is the base value on its image
    times the orientation sign of the pointwise vertex map.  ``values``
    is indexed by the base i-faces in canonical order: a vector, or a
    matrix with one cochain per column; the face index and the signs are
    built once and serve every column.  Kernels are preserved because
    the combinatorial and normalized weight ratios across incidences
    match between cover and base.
    """
    rows, cols, signs = [], [], []
    for c, g in enumerate(cov.base.faces(i)):
        for face in cov.fibers[g]:
            rows.append(cov.cover.index(face))
            cols.append(c)
            signs.append(relative_orientation_sign(face, [cov.vertex_map[v] for v in face]))
    values = np.asarray(values)
    out = np.zeros((cov.cover.face_count(i),) + values.shape[1:], np.result_type(values.dtype, float))
    out[rows] = np.reshape(signs, (-1,) + (1,) * (values.ndim - 1)) * values[cols]
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
    and the singular value are the numeric side of the verdict, so the
    cover's full Laplacian is built only where the base kernel is
    nonzero and never eigensolved.
    """
    if any(scheme.kind == EXPLICIT_KIND for scheme in schemes):
        raise WeightError(
            "the Betti inequality is only claimed for the combinatorial and "
            "normalized schemes"
        )
    base_betti = exact_betti_numbers(cov.base)
    cover_betti = exact_betti_numbers(cov.cover)
    return tuple(_inequality_report(cov, scheme, base_betti, cover_betti, tol) for scheme in schemes)


def _inequality_report(cov, scheme, base_betti, cover_betti, tol) -> BettiInequalityReport:
    # one scheme per call, so its cover operators are freed before the next scheme builds its own
    bases = _harmonic_bases(cov.base, base_betti, scheme)
    verdicts = []
    for i in sorted(base_betti):
        b_base = base_betti[i]
        b_cover = cover_betti.get(i, 0)
        residual = 0.0
        sigma_min = None
        if b_base:
            op = _full_laplacian(cov.cover, i, scheme)
            lifted = lift_cochain(bases[i], i, cov)
            norms = np.linalg.norm(lifted, axis=0)
            lifted = lifted / norms
            # L x in cochain units, L = W^{-1/2} op.matrix W^{1/2}
            root = np.sqrt(op.weights)[:, None]
            residual = float(np.max(np.abs(op.matrix @ (root * lifted) / root)))
            sigma_min = float(np.linalg.svd(lifted, compute_uv=False)[-1])
        ok = b_cover >= b_base and residual <= tol and (sigma_min is None or sigma_min >= tol)
        verdicts.append(DimensionVerdict(i, b_base, b_cover, residual, sigma_min, ok))
    return BettiInequalityReport(tuple(verdicts), all(v.holds for v in verdicts), scheme.kind)
