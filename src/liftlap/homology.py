"""Reduced Betti numbers, and the Betti identity of a covering, exactly.

The kernel of the full degree-i Laplace operator realizes the i-th
reduced cohomology, so its dimension is topological: no face weight
changes it.  Betti numbers therefore have one route, exact ranks over the
rationals of integer coboundaries, whatever the weight scheme.  The
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

The Betti numbers of a cover are read off its base.  The cover's
coboundary is the base's with each incidence carrying the permutation
matrix P(psi_e) of its voltage, between orientation signs
(:func:`~liftlap.covering.factor_lifted_coboundary`), so its cochain
complex is the base's with coefficients in the permutation module Q^k =
Q.1 (+) V, V the vectors summing to zero.  Its integer split
(:func:`~liftlap.representation.integer_split`, through which the
two-fold union is certified too) is ``T = [1 | e_j - e_(k-1)]``, of
determinant +-k, with ``P(p) T = T (1 (+) R(p))`` and ``R(p)[a, j] =
[p_j = a] - [p_(k-1) = a]``, entries in {-1, 0, 1}.  So the cover's rank
is rank d_i + rank d^V_i, where the twisted coboundary d^V_i carries
``sign * R(psi_e)`` at each incidence (the R stack's
:func:`~liftlap.complexes.decorated_coboundary`), and b_i(cover) = b_i(base) +
b_i(base; V_psi) >= b_i(base): Shapiro's lemma (Brown, *Cohomology of
Groups*, III.6; Hatcher, *Algebraic Topology*, 3.H), the paper's Betti
inequality.  Each layer is certified in integers: the factorization,
the identity of T (:func:`~liftlap.representation.block_identity`) and
``d^V_(i+1) d^V_i = 0``, which clearing needs, as a product of
nonzeros.  At dims -1 and 0 the Betti numbers found must also be those
of the connected base and cover, which checks the exact ranks there.
Only base-size matrices are ranked; no operator of the cover is ranked
or solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import COMBINATORIAL, SimplicialComplex, _unique_rows, coboundary, decorated_coboundary
from .covering import CoveringMap, Factorization, factor_lifted_coboundary, induced_incidence_voltage
from .errors import LiftlapError
from .representation import BlockIdentity, block_identity, integer_split


def _pivots(at_row, at_col, values) -> dict[int, int]:
    """``{pivot column: original row}`` of the sparse elimination of the
    matrix with nonzeros ``(at_row, at_col, values)``.

    Each row is a ``{column: value}`` dict.  Rows are reduced in the
    order they first appear against the pivot owning their lowest
    column, ``row <- (p[c]/g) row - (row[c]/g) p`` with ``g = gcd(p[c],
    row[c])``, and divided by the gcd of their entries; a row whose
    lowest column has no pivot yet becomes that column's pivot.  Each
    pivot row is its original row plus a combination of earlier pivot
    rows, so the original rows named are independent, and their number
    is the rank over the rationals, exact as every step is in Python
    ints.  Each (row, column) pair may be given at most once.
    """
    rows: dict[int, dict[int, int]] = {}
    for r, c, v in zip(at_row.tolist(), at_col.tolist(), values.tolist()):
        if v:
            rows.setdefault(r, {})[c] = v
    if sum(map(len, rows.values())) != np.count_nonzero(values):
        raise LiftlapError("the exact elimination was given one (row, column) pair twice")
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


def _cleared_pivots(layers: dict) -> dict[int, dict[int, int]]:
    """``{j: pivots of layers[j]}`` for the nonzeros ``layers[j] = (rows,
    cols, values)`` of the consecutive coboundaries of a cochain complex,
    ranked from the top degree down; the rows of layer j-1 at pivot
    columns of layer j are skipped (clearing, see the module docstring)."""
    pivots: dict[int, dict[int, int]] = {}
    cleared: dict[int, int] = {}
    for j in sorted(layers, reverse=True):
        rows, cols, values = layers[j]
        keep = ~np.isin(rows, np.fromiter(cleared, np.int64, len(cleared)))
        pivots[j] = cleared = _pivots(rows[keep], cols[keep], values[keep])
    return pivots


def _betti(K: SimplicialComplex, pivots: dict) -> dict:
    return {i: K.face_count(i) - len(pivots.get(i, ())) - len(pivots.get(i - 1, ())) for i in K.dims()}


def exact_betti_numbers(K: SimplicialComplex) -> dict:
    """Betti numbers ``dim C^i - rank d_i - rank d_(i-1)`` from exact ranks,
    each coboundary ranked once, from the top degree down with clearing."""
    return _betti(K, _cleared_pivots({j: coboundary(K, j) for j in range(K.min_dim, K.top_dim)}))


def _square(upper: tuple, lower: tuple, width: int) -> tuple[int, tuple | None]:
    """The largest entry of ``|upper @ lower|`` from the nonzeros of both,
    ``lower`` of ``width`` columns, and the (row, column) of its first
    nonzero entry, or ``None``: each nonzero (r, c) of ``upper`` meets
    the nonzeros in row c of ``lower``."""
    r1, c1, v1 = upper
    order = np.argsort(lower[0], kind="stable")
    r2, c2, v2 = (a[order] for a in lower)
    start = np.searchsorted(r2, c1)
    count = np.searchsorted(r2, c1, "right") - start
    at = np.arange(count.sum()) + np.repeat(start - (np.cumsum(count) - count), count)
    keys = np.repeat(r1, count) * width + c2[at]
    distinct, where = _unique_rows(keys[:, None])
    total = np.bincount(where, np.repeat(v1, count) * v2[at], len(distinct))
    if not total.any():
        return 0, None
    return int(np.abs(total).max()), divmod(int(distinct[np.argmax(total != 0), 0]), width)


# -- the Betti inequality -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TwistedLayer:
    """The certificate of incidence layer ``dim``, with the ``shape`` and
    ``rank`` of d^V_dim: the factorization of the cover's coboundary, the
    identity ``P(psi_e) T = T (1 (+) R(psi_e))`` (its orthogonality
    defect does not apply: ranks only need T invertible), and ``square``,
    the largest entry of ``|d^V_(dim+1) d^V_dim|``, whose first nonzero
    entry is at ``square_witness`` (row, column).  All must be 0."""

    dim: int
    shape: tuple
    rank: int
    factorization: Factorization
    identity: BlockIdentity
    square: int
    square_witness: tuple | None

    @property
    def holds(self) -> bool:
        return self.factorization.holds and self.identity.residual == 0 and self.square == 0


@dataclass(frozen=True, eq=False)
class DimensionVerdict:
    """b_i of the base, of the cover and of the base with coefficients in
    V_psi at ``dim``, and the certificates of the layers dim-1 and dim.
    ``components_agree`` is whether, at dims -1 and 0, b_i of the base and
    of the cover are those of a connected complex, as the verified
    covering makes both: there the exact ranks are checked as well."""

    dim: int
    betti_base: int
    betti_cover: int
    betti_twisted: int
    layers: tuple
    components_agree: bool

    @property
    def holds(self) -> bool:
        return self.components_agree and all(layer.holds for layer in self.layers)


@dataclass(frozen=True, eq=False)
class BettiInequalityReport:
    per_dim: tuple

    @property
    def holds(self) -> bool:
        return all(v.holds for v in self.per_dim)


def verify_betti_inequality(cov: CoveringMap) -> BettiInequalityReport:
    """One verdict per dimension of the base, for every weight scheme, that
    ``b_i(cover) = b_i(base) + b_i(base; V_psi)`` (module docstring), each
    reading the :class:`TwistedLayer` certificates of layers i-1 and i.
    The twisted coboundaries are ranked with clearing only when every
    square is zero.  A failed certificate never raises."""
    M, K, k = cov.base, cov.cover, cov.degree
    twisted, parts = {}, {}
    for i in range(0, M.top_dim):
        psi = induced_incidence_voltage(cov, i)
        transform, blocks = integer_split(psi)
        twisted[i] = decorated_coboundary(M, i, blocks)
        parts[i] = factor_lifted_coboundary(cov, i, psi, [COMBINATORIAL])[0], block_identity(psi, transform, [blocks])
    squares = {i: _square(twisted[i + 1], twisted[i], (k - 1) * M.face_count(i)) for i in twisted if i + 1 in twisted}
    base = exact_betti_numbers(M)
    if any(residual for residual, _ in squares.values()):
        ranks = {i: len(_pivots(*layer)) for i, layer in twisted.items()}
    else:
        ranks = {i: len(pivots) for i, pivots in _cleared_pivots(twisted).items()}
    layers = {
        i: TwistedLayer(
            i, ((k - 1) * M.face_count(i + 1), (k - 1) * M.face_count(i)), ranks[i], *parts[i], *squares.get(i, (0, None))
        )
        for i in twisted
    }
    # the reduced b_-1 and b_0 of a connected complex
    connected = {-1: (0, 0), 0: (1 - M.include_empty, 1 - K.include_empty)}
    verdicts = []
    for i, b in base.items():
        b_twisted = (k - 1) * M.face_count(i) - ranks.get(i, 0) - ranks.get(i - 1, 0) if i >= 0 else 0
        # a cover read from a file may drop the empty face the base keeps, or keep one it drops
        b_cover = b + b_twisted + (i == 0) * (M.include_empty - K.include_empty)
        agree = connected.get(i, (b, b_cover)) == (b, b_cover)
        verdicts.append(
            DimensionVerdict(i, b, b_cover, b_twisted, tuple(layers[j] for j in (i - 1, i) if j in layers), agree)
        )
    return BettiInequalityReport(tuple(verdicts))
