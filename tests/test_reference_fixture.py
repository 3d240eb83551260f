import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_base_matches, coboundary_matrix

import liftlap.reference_fixture as rf
from liftlap import DOWN, UP, SpectrumMultiset, build_complex, coboundary, compare_spectra, laplacian_matrix, spectrum

TRIANGLES = list(combinations(range(6), 3))
# the Gram matrix of the 20 triangles of the 5-simplex, its 2-down Laplacian
TRIANGLE_GRAM = laplacian_matrix(build_complex(TRIANGLES), 2, DOWN).matrix


def test_a_target_shifted_by_2e_6_finds_no_match(monkeypatch):
    # a relative shift of 2e-6 is inside np.allclose's default rtol of 1e-5
    shifted = SpectrumMultiset(np.array(rf.BASE_SPECTRUM.values) * (1 + 2e-6))
    monkeypatch.setattr(rf, "BASE_SPECTRUM", shifted)
    assert rf.search_base_complexes() == []


def test_a_target_shifted_by_1e_12_finds_no_match(monkeypatch):
    # the verdicts' float rule at tol = 1e-8 would still match all 420 candidates
    shifted = SpectrumMultiset(np.array(rf.BASE_SPECTRUM.values) * (1 + 1e-12))
    assert compare_spectra(shifted, rf.BASE_SPECTRUM, "equal", tol=1e-8).holds
    monkeypatch.setattr(rf, "BASE_SPECTRUM", shifted)
    assert rf.search_base_complexes() == []


def test_search_equals_the_per_candidate_brute_force():
    found = rf.search_base_complexes()
    assert len(found) == 420
    assert found == brute_force_base_matches(1e-8)


def test_triangle_sets_are_the_pruned_six_subsets():
    # every 6-subset of the triangles, in lexicographic order, that uses
    # every edge at most twice and at most 12 edges
    want = []
    for T in combinations(range(len(TRIANGLES)), 6):
        uses = Counter(e for t in T for e in combinations(TRIANGLES[t], 2))
        if max(uses.values()) <= 2 and len(uses) <= 12:
            want.append(list(T))
    edges_of = coboundary(build_complex(TRIANGLES), 1)[1].reshape(-1, 3)
    assert rf._triangle_sets(edges_of, 15).tolist() == want


def test_search_memory_stays_small():
    rf.search_base_complexes()
    tracemalloc.start()
    try:
        rf.search_base_complexes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def test_only_the_searched_candidate_is_built(monkeypatch):
    built = []
    monkeypatch.setattr(rf, "build_complex", lambda facets: built.append(facets) or build_complex(facets))
    fixture = rf.search_reference_fixture(1e-8)
    assert fixture.matches == 420 and fixture.flip == ((0, 2), (0, 1, 2))
    # the 5-simplex whose triangle Gram matrix the search reads, and the first match
    assert len(built) == 2 and fixture.complex.facets() == built[1] == rf.search_base_complexes()[0]


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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(0, len(TRIANGLES) - 1), min_size=6, max_size=6), min_size=1, max_size=4))
def test_power_sums_are_those_of_the_eigenvalues(subsets):
    blocks = np.stack([TRIANGLE_GRAM[np.ix_(sorted(T), sorted(T))] for T in subsets])
    sums = rf._power_sums(blocks)
    assert np.array_equal(sums, np.round(sums))
    eigs = np.linalg.eigvalsh(blocks)
    expected = np.stack([(eigs**a).sum(axis=1) for a in range(1, 7)], axis=1)
    assert np.allclose(sums, expected, rtol=1e-9, atol=0)
