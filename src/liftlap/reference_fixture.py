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

The search therefore enumerates the 6-subsets of the 20 triangles, one
batch per first triangle, keeps those using every edge at most twice
and at most 12 edges in all, solves every kept 6 x 6 block in one
batched eigensolve and matches it by the rule of every verdict.  Only
the matching triangle sets are completed by free edges into labeled
candidates, as facet lists; only the one whose flip is searched is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .complexes import COMBINATORIAL, SimplicialComplex, build_complex, coboundary
from .operators import (
    DOWN,
    SpectrumMultiset,
    _close,
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


def search_base_complexes(tol: float = 1e-8) -> list[tuple]:
    """The facets of all labeled candidates matching the target spectrum,
    sorted: the free edges, then the triangles, each in canonical order.

    A candidate matches under the rule of every verdict,
    :func:`~liftlap.operators.compare_spectra` at ``tol``.
    """
    simplex = build_complex(combinations(range(6), 3))
    triangles, edges = simplex.faces(2), simplex.faces(1)
    gram = laplacian_matrix(simplex, 2, DOWN).matrix
    rows, cols, _ = coboundary(simplex, 1)
    incidence = np.zeros((len(triangles), len(edges)), np.int8)
    incidence[rows, cols] = 1
    target = np.array(BASE_SPECTRUM.values)
    subsets = np.fromiter(chain.from_iterable(combinations(range(len(triangles)), 6)), np.int8)
    subsets = subsets.reshape(-1, 6)
    matched = []
    for batch in np.split(subsets, np.flatnonzero(np.diff(subsets[:, 0])) + 1):
        uses = np.zeros((len(batch), len(edges)), np.int8)
        for column in batch.T:
            uses += incidence[column]
        kept = batch[(uses.max(axis=1) <= 2) & (np.count_nonzero(uses, axis=1) <= 12)]
        eigs = np.linalg.eigvalsh(gram[kept[:, :, None], kept[:, None, :]])
        padded = np.sort(np.hstack([np.zeros((len(kept), 6)), eigs]), axis=1)
        if padded.shape[1] == len(target):
            matched.extend(kept[_close(padded, target, tol).all(axis=1)])
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
    """Run the full search; None when no labeled candidate matches."""
    candidates = search_base_complexes(tol)
    for facets in candidates:
        M = build_complex(facets)
        flip = locate_flip(M, tol)
        if flip is not None:
            return ReferenceFixture(M, flip, len(candidates))
    return None
