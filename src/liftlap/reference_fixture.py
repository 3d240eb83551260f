"""Recovery of the 6-vertex reference complex from its spectrum.

The reference base is pinned only through numeric data: a connected
2-dimensional complex on 6 vertices with 12 edges and 6 triangles,
every edge in at most two triangles, first Betti number 1, and up
Laplacian spectrum {5, 4, 4, 2, 2, 1, 0^6} on edges.  This module finds
every labeled candidate that matches, and then locates a single
incidence whose voltage flip reproduces the companion signed and
2-lift spectra.

Four facts let the search test triangle sets rather than labeled
complexes:

* Edges in no triangle do not change the nonzero spectrum.  They are
  zero columns of the 6 x 12 coboundary D, so D Dᵀ depends on the
  triangles T alone: it is the principal submatrix P[T, T] of the
  20 x 20 Gram matrix P of the triangles of the 5-simplex (its 2-down
  Laplacian).  D Dᵀ and Dᵀ D share their nonzero spectrum, so
  spec(Dᵀ D) = spec(P[T, T]) ⊎ 0⁶.
* A match uses 12 edges, so none is left in no triangle.  P[T, T] has
  diagonal 3 and an entry ±1 for each ordered pair of triangles sharing
  an edge, and no other.  When T uses e edges, each at most twice, 18 - e
  of them are used twice, so tr P[T, T] = 18 and tr P[T, T]² =
  54 + 2 (18 - e) = 90 - 2e.  The target's second power sum is 66, which
  forces e = 12: a match is its six triangles and their edges.
* Connectivity always holds: a graph on 6 vertices with 12 edges is
  connected, since a disconnected one has at most C(5, 2) = 10 edges.
* A match has Betti number 1: the target has six nonzero eigenvalues,
  all at least 1, so rank D = 6 and b₁ = 12 - 5 - 6 = 1.

The search therefore grows triangle sets in increasing index order
(:func:`_triangle_sets`), keeping each set's edges as two bitmasks,
those used and those used twice, and at every level only the sets that
use every edge at most twice and can still end with exactly 12 edges.
Each 6 x 6 block is matched exactly by its integer power sums
(:func:`search_base_complexes`), solving none, and the matching sets
become facet lists by one gather of the triangles; only the candidate
whose flip is searched is built.  The flip is matched the same way
(:func:`locate_flip`): every target value is a + b√3 with integers a and
b, so the targets' power sums are exact integers, and no comparison in
the search has a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .complexes import COMBINATORIAL, SimplicialComplex, build_complex, coboundary
from .operators import DOWN, incidence_weighting, laplacian_matrix

# The spectra of the triangle Gram matrices D Dᵀ, each value a + b√3 as the
# pair (a, b).  The edge up spectra add 6 zeros to the base and signed
# targets (12 edges, 6 triangles) and 12 to the cover's (24 and 12 sheets).
BASE_TARGET = ((5, 0), (4, 0), (4, 0), (2, 0), (2, 0), (1, 0))
SIGNED_TARGET = ((3, 0), (3, 0), (3, 1), (3, 1), (3, -1), (3, -1))
COVER_TARGET = ((5, 0), (4, 0), (4, 0), (3, 0), (3, 0), (2, 0), (2, 0), (1, 0), (3, 1), (3, 1), (3, -1), (3, -1))


def _exact_power_sums(target, count: int) -> list[int]:
    """The power sums Σ λᵃ, a = 1..count, of the values λ = x + y√3 given
    as integer pairs (x, y), in Python ints.  The √3 parts must cancel,
    as they do for the spectrum of an integer matrix."""
    sums, powers = [], [(1, 0)] * len(target)
    for _ in range(count):
        powers = [(p * x + 3 * q * y, p * y + q * x) for (p, q), (x, y) in zip(powers, target)]
        if sum(q for _, q in powers):
            raise ValueError(f"the power sums of {target} are not integers")
        sums.append(sum(p for p, _ in powers))
    return sums


BASE_SUMS = _exact_power_sums(BASE_TARGET, 6)
SIGNED_SUMS = _exact_power_sums(SIGNED_TARGET, 6)
COVER_SUMS = _exact_power_sums(COVER_TARGET, 12)


@dataclass(frozen=True)
class ReferenceFixture:
    """The recovered base complex and its flip, both None on a miss, and
    the number of labeled candidates that match the base target."""

    complex: SimplicialComplex | None
    flip: tuple | None
    matches: int


def _power_sums(blocks: np.ndarray, count: int) -> np.ndarray:
    """The power sums tr Bᵃ, a = 1..count, of each symmetric B in an
    (n, m, m) stack, as an (n, count) array: tr B, then tr XY = Σ X∘Y
    for X = B^⌊a/2⌋ and Y = B^⌈a/2⌉.  They are exact for the search's
    integer blocks: with diagonal 3 and every edge in at most two
    triangles, ‖B‖∞ ≤ 6, so each partial sum is below 144·6¹² < 2^53."""
    powers = [blocks]
    while 2 * len(powers) < count:
        powers.append(powers[-1] @ blocks)
    sums = [np.einsum("nii->n", blocks)]
    for a in range(2, count + 1):
        sums.append(np.einsum("nij,nij->n", powers[a // 2 - 1], powers[(a + 1) // 2 - 1]))
    return np.stack(sums, axis=1)


def _popcount(x: np.ndarray) -> np.ndarray:
    """The number of set bits of each entry of a uint16 array, summed by
    bit pairs, nibbles and bytes (``np.bitwise_count`` is numpy 2 only)."""
    x = x - ((x >> 1) & 0x5555)
    x = (x & 0x3333) + ((x >> 2) & 0x3333)
    x = (x + (x >> 4)) & 0x0F0F
    return (x + (x >> 8)) & 0x1F


def _triangle_sets(edges_of: np.ndarray) -> np.ndarray:
    """The 6-sets of triangles that use every edge at most twice and
    exactly 12 edges, as int8 rows of increasing indices in lexicographic
    order, given each triangle's three edge indices (at most 16 edges).

    A set grows one triangle at a time, each above its last.  Its edges
    are two uint16 bitmasks, those it uses and those it uses twice, so
    adding triangle t with edge mask m is a few bitwise operations: t
    conflicts when ``twice & m``, and the set then uses ``used | m``.  A
    set is kept while it uses at most 12 edges, and at least 3·size - 6,
    since each of the 6 - size triangles still to come adds at most
    three.  Only 12-edge sets can match (see the module notes)."""
    n = len(edges_of)
    mask = (np.uint16(1) << edges_of.astype(np.uint16)).sum(axis=1, dtype=np.uint16)
    sets = np.arange(n, dtype=np.int8)[:, None]
    used, twice = mask, np.zeros(n, np.uint16)
    for size in range(2, 7):
        # set i with each of the n - 1 - last[i] triangles above its last:
        # its children start at position first[i] of the pair arrays
        last = sets[:, -1].astype(np.intp)
        kids = n - 1 - last
        first = np.cumsum(kids) - kids
        prefix = np.repeat(np.arange(len(sets)), kids)
        t = np.arange(len(prefix)) + np.repeat(last + 1 - first, kids)
        u, tw, m = used[prefix], twice[prefix], mask[t]
        count = _popcount(u | m)
        kept = np.flatnonzero(((tw & m) == 0) & (count >= 3 * size - 6) & (count <= 12))
        prefix, t, u, tw, m = prefix[kept], t[kept], u[kept], tw[kept], m[kept]
        sets = np.hstack([sets[prefix], t[:, None].astype(np.int8)])
        used, twice = u | m, tw | (u & m)
    return sets


def search_base_complexes() -> list[tuple]:
    """The facets of all labeled candidates whose edge up spectrum is
    exactly ``BASE_TARGET`` and six zeros, sorted: six triangles, in
    canonical order, which hold all 12 edges.

    A block B = P[T, T] matches when its power sums tr Bᵃ, a = 1..6,
    equal ``BASE_SUMS``: by Newton's identities they fix the
    characteristic polynomial.
    """
    simplex = build_complex(combinations(range(6), 3))
    gram = laplacian_matrix(simplex, 2, DOWN)
    # three triplets per triangle, in triangle order
    edges_of = coboundary(simplex, 1)[1].reshape(-1, 3)
    sets = _triangle_sets(edges_of)
    matched = []
    for start in range(0, len(sets), 1000):
        chunk = sets[start : start + 1000]
        # the blocks by flat positions, which one take reads faster than
        # a pair of broadcast int8 index arrays
        at = chunk.astype(np.intp)
        sums = _power_sums(gram.take(at[:, :, None] * len(gram) + at[:, None, :]), 6)
        matched.append(chunk[(sums == BASE_SUMS).all(axis=1)])
    # the rows, like the triangles, are in lexicographic order, so the
    # facet lists come out sorted
    triangles = np.fromiter(simplex.faces(2), object)
    return list(map(tuple, triangles[np.concatenate(matched)]))


def locate_flip(M: SimplicialComplex):
    """First incidence (edge, triangle) whose single flip matches both
    companion targets, or None: triangle by triangle in canonical order,
    and within one its edges without vertex 0, 1 and 2 in turn.

    A flip negates one entry of the coboundary D, so the 18 flipped
    copies of D are one stack and one indexed negation, and their
    triangle Gram matrices are matched with ``SIGNED_SUMS`` at once.  For
    a flip that matches, the 2-sheeted lift whose voltage swaps the sheets
    on that incidence alone must match ``COVER_SUMS``.
    """
    rows, cols, signs = coboundary(M, 1)
    # a coboundary row lists the triangle's edges without vertex 2, 1, 0
    order = np.arange(len(rows)).reshape(-1, 3)[:, ::-1].ravel()
    flipped = np.zeros((len(order), M.face_count(2), M.face_count(1)))
    flipped[:, rows, cols] = signs
    flipped[np.arange(len(order)), rows[order], cols[order]] *= -1
    signed = flipped @ flipped.transpose(0, 2, 1)
    for k in order[(_power_sums(signed, 6) == SIGNED_SUMS).all(axis=1)]:
        flip = (M.faces(1)[cols[k]], M.faces(2)[rows[k]])
        # the lift's operator is the base operator decorated by the
        # voltages' permutation matrices (the identity where unlisted)
        swap = incidence_weighting(M, {flip: [[0, 1], [1, 0]]})
        lifted = laplacian_matrix(M, 2, DOWN, COMBINATORIAL, swap)
        if (_power_sums(lifted[None], 12) == COVER_SUMS).all():
            return flip
    return None


def search_reference_fixture() -> ReferenceFixture:
    """Run the full search: the first labeled candidate, in sorted order,
    with a matching flip, and the number of candidates."""
    candidates = search_base_complexes()
    for facets in candidates:
        M = build_complex(facets)
        flip = locate_flip(M)
        if flip is not None:
            return ReferenceFixture(M, flip, len(candidates))
    return ReferenceFixture(None, None, len(candidates))
