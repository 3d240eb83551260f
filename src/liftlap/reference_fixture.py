"""Recovery of the 6-vertex reference complex from its spectrum.

The reference base is pinned only through numeric data: a connected
2-dimensional complex on 6 vertices with 12 edges and 6 triangles,
every edge in at most two triangles, first Betti number 1, and up
Laplacian spectrum {5, 4, 4, 2, 2, 1, 0^6} on edges.  This module finds
every labeled candidate that matches, and then locates a single
incidence whose voltage flip reproduces the companion signed and
2-lift spectra.

Three facts let the search test triangle sets rather than labeled
complexes:

* The free edges do not matter.  They are zero columns of the 6 x 12
  coboundary D, so D Dᵀ depends on the triangles T alone: it is the
  principal submatrix P[T, T] of the 20 x 20 Gram matrix P of the
  triangles of the 5-simplex (its 2-down Laplacian).  D Dᵀ and Dᵀ D
  share their nonzero spectrum, so spec(Dᵀ D) = spec(P[T, T]) ⊎ 0⁶ for
  every completion of T by free edges.
* Connectivity always holds: a graph on 6 vertices with 12 edges is
  connected, since a disconnected one has at most C(5, 2) = 10 edges.
* A match has Betti number 1: the target has six nonzero eigenvalues,
  all at least 1, so rank D = 6 and b₁ = 12 - 5 - 6 = 1.

The search therefore grows triangle sets in increasing index order,
keeping at every level those that use every edge at most twice and at
most 12 edges in all, and matches each kept 6 x 6 block exactly by its
integer power sums (:func:`search_base_complexes`), solving none.  Only
the matching triangle sets are completed by free edges into labeled
candidates, as facet lists; only the one whose flip is searched is
built.  The flip's spectra contain 3 ± √3, so :func:`locate_flip`
compares floats at ``tol``, the search's only tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .complexes import COMBINATORIAL, SimplicialComplex, build_complex, coboundary
from .operators import (
    DOWN,
    SpectrumMultiset,
    compare_spectra,
    incidence_weighting,
    laplacian_matrix,
    spectrum,
)

SQ3 = math.sqrt(3.0)

BASE_SPECTRUM = SpectrumMultiset((5.0, 4.0, 4.0, 2.0, 2.0, 1.0) + (0.0,) * 6)
SIGNED_SPECTRUM = SpectrumMultiset((3.0, 3.0, 3 + SQ3, 3 + SQ3, 3 - SQ3, 3 - SQ3) + (0.0,) * 6)
COVER_SPECTRUM = SpectrumMultiset(
    (5.0, 4.0, 4.0, 3.0, 3.0, 2.0, 2.0, 1.0, 3 + SQ3, 3 + SQ3, 3 - SQ3, 3 - SQ3) + (0.0,) * 12
)


@dataclass(frozen=True)
class ReferenceFixture:
    """The recovered base complex, its flip, and the match census."""

    complex: SimplicialComplex
    flip: tuple
    matches: int


def _power_sums(blocks: np.ndarray) -> np.ndarray:
    """The power sums tr Bᵃ, a = 1..6, of each symmetric B in an (n, m, m)
    stack, as an (n, 6) array: tr B, then tr XY = Σ X∘Y for the pairs of
    B, B² and B³ whose powers add to 2..6, so two batched matmuls."""
    b2 = blocks @ blocks
    b3 = b2 @ blocks
    pairs = ((blocks, blocks), (blocks, b2), (b2, b2), (b2, b3), (b3, b3))
    return np.stack([np.einsum("nii->n", blocks)] + [np.einsum("nij,nij->n", x, y) for x, y in pairs], axis=1)


def _triangle_sets(edges_of: np.ndarray, n_edges: int) -> np.ndarray:
    """The 6-sets of triangles that use every edge at most twice and at
    most 12 edges, as rows of increasing indices in lexicographic order,
    given each triangle's three edge indices.  A set grows one triangle
    at a time, each above its last, and is kept at every level where it
    qualifies; only the new triangle's edges are read."""
    n = len(edges_of)
    sets = np.arange(n, dtype=np.int8)[:, None]
    uses = np.zeros((n, n_edges), np.int8)  # each set's uses of each edge
    uses[sets, edges_of] = 1
    used = np.full(n, 3)  # each set's count of edges used
    for _ in range(5):
        prefix, t = np.nonzero(np.arange(n) > sets[:, -1:])
        before = uses[prefix[:, None], edges_of[t]]
        count = used[prefix] + (before == 0).sum(axis=1)
        kept = (before.max(axis=1) < 2) & (count <= 12)
        prefix, t, used = prefix[kept], t[kept], count[kept]
        sets = np.hstack([sets[prefix], t[:, None].astype(np.int8)])
        uses = uses[prefix]
        uses[np.arange(len(t))[:, None], edges_of[t]] += 1
    return sets


def search_base_complexes() -> list[tuple]:
    """The facets of all labeled candidates whose edge up spectrum is
    exactly ``BASE_SPECTRUM``, sorted: the free edges, then the
    triangles, each in canonical order.

    A block B = P[T, T] matches when its power sums tr Bᵃ, a = 1..6,
    equal those of ``BASE_SPECTRUM`` less six zeros: by Newton's
    identities they fix the characteristic polynomial.  They are exact in
    float64, every value being an integer below 2^53: B has diagonal 3
    and at most five entries ±1 off it in a row, so ‖B‖∞ ≤ 8, each entry
    of Bᵃ is at most 8ᵃ in size and each partial sum at most 6·8⁶.  The
    eigenvalues are algebraic integers, so a nonzero target value that is
    not an integer matches nothing.
    """
    simplex = build_complex(combinations(range(6), 3))
    triangles, edges = simplex.faces(2), simplex.faces(1)
    gram = laplacian_matrix(simplex, 2, DOWN).matrix
    # three triplets per triangle, in triangle order
    edges_of = coboundary(simplex, 1)[1].reshape(-1, 3)
    values = sorted(BASE_SPECTRUM.values)
    if len(values) != 12 or values[:6] != [0.0] * 6 or not all(v.is_integer() for v in values[6:]):
        return []
    target = [sum(int(v) ** a for v in values[6:]) for a in range(1, 7)]
    sets = _triangle_sets(edges_of, len(edges))
    matched = []
    for start in range(0, len(sets), 500):
        chunk = sets[start : start + 500]
        sums = _power_sums(gram[chunk[:, :, None], chunk[:, None, :]])
        matched.extend(chunk[(sums == target).all(axis=1)])
    found = []
    for tri_set in matched:
        tris = [triangles[t] for t in tri_set]
        used = {e for t in tris for e in combinations(t, 2)}
        pool = [e for e in edges if e not in used]
        for free in combinations(pool, 12 - len(used)):
            # connected, with b₁ = 1, by the module docstring; the free
            # edges and then the triangles are the facets, both sorted
            found.append(free + tuple(tris))
    return sorted(found)


def locate_flip(M: SimplicialComplex, tol: float = 1e-8):
    """First incidence whose single flip matches both companion spectra.

    The flipped signing must reproduce the signed target, and the
    2-sheeted lift whose voltage swaps sheets on exactly that incidence
    must reproduce the cover target.
    """
    for tri in M.faces(2):
        for j in range(3):
            edge = tri[:j] + tri[j + 1 :]
            signing = incidence_weighting(M, {(edge, tri): -1.0})
            signed = spectrum(laplacian_matrix(M, 1, "up", COMBINATORIAL, signing))
            if not compare_spectra(signed, SIGNED_SPECTRUM, "equal", tol=tol).holds:
                continue
            # the lift's operator is the base operator decorated by the
            # voltages' permutation matrices (the identity where unlisted)
            swap = incidence_weighting(M, {(edge, tri): [[0, 1], [1, 0]]})
            lifted = laplacian_matrix(M, 1, "up", COMBINATORIAL, swap)
            if compare_spectra(spectrum(lifted), COVER_SPECTRUM, "equal", tol=tol).holds:
                return (edge, tri)
    return None


def search_reference_fixture(tol: float = 1e-8) -> ReferenceFixture | None:
    """Run the full search; None when no labeled candidate matches.  The
    base match is exact; ``tol`` is the tolerance of :func:`locate_flip`."""
    candidates = search_base_complexes()
    for facets in candidates:
        M = build_complex(facets)
        flip = locate_flip(M, tol)
        if flip is not None:
            return ReferenceFixture(M, flip, len(candidates))
    return None
