from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_base_matches, coboundary_matrix

import liftlap.reference_fixture as rf
from liftlap import DOWN, UP, SpectrumMultiset, build_complex, laplacian_matrix, spectrum

TRIANGLES = list(combinations(range(6), 3))
# the Gram matrix of the 20 triangles of the 5-simplex, its 2-down Laplacian
TRIANGLE_GRAM = laplacian_matrix(build_complex(TRIANGLES), 2, DOWN).matrix


def test_search_matches_by_the_verdict_rule(monkeypatch):
    # a relative shift of 2e-6 is far outside tol = 1e-8, though inside
    # np.allclose's default rtol of 1e-5
    shifted = SpectrumMultiset(np.array(rf.BASE_SPECTRUM.values) * (1 + 2e-6))
    monkeypatch.setattr(rf, "BASE_SPECTRUM", shifted)
    assert rf.search_base_complexes(1e-8) == []


def test_search_equals_the_per_candidate_brute_force():
    found = rf.search_base_complexes(1e-8)
    assert len(found) == 420
    assert found == brute_force_base_matches(1e-8)


def test_only_the_searched_candidate_is_built(monkeypatch):
    built = []
    monkeypatch.setattr(rf, "build_complex", lambda facets: built.append(facets) or build_complex(facets))
    fixture = rf.search_reference_fixture(1e-8)
    assert fixture.matches == 420 and fixture.flip == ((0, 2), (0, 1, 2))
    # the 5-simplex whose triangle Gram matrix the search reads, and the first match
    assert len(built) == 2 and fixture.complex.facets() == built[1] == rf.search_base_complexes(1e-8)[0]


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(0, len(TRIANGLES) - 1), min_size=6, max_size=6))
def test_triangle_block_is_the_gram_matrix_of_any_triangle_set(chosen):
    T = sorted(chosen)
    block = TRIANGLE_GRAM[np.ix_(T, T)]
    K = build_complex([TRIANGLES[t] for t in T])
    D = coboundary_matrix(K, 1)
    assert np.array_equal(block, D @ D.T)
    # the edges' up spectrum is the block's, padded with zeros
    padded = np.sort(np.concatenate([np.zeros(K.face_count(1) - 6), np.linalg.eigvalsh(block)]))
    assert np.allclose(spectrum(laplacian_matrix(K, 1, UP)).values, padded, rtol=0, atol=1e-12)
