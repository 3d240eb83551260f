import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import brute_force_base_matches, coboundary_matrix, target_spectrum

import liftlap.reference_fixture as rf
from liftlap import (
    COMBINATORIAL,
    DOWN,
    UP,
    build_complex,
    coboundary,
    incidence_weighting,
    laplacian_matrix,
    spectrum,
)

TRIANGLES = list(combinations(range(6), 3))
# the Gram matrix of the 20 triangles of the 5-simplex, its 2-down Laplacian
TRIANGLE_GRAM = laplacian_matrix(build_complex(TRIANGLES), 2, DOWN)


def test_the_targets_power_sums_are_exact():
    # the √3 parts of 3 ± √3 cancel in every power sum
    assert rf.SIGNED_SUMS == [18, 66, 270, 1170, 5238, 23922]
    for target, zeros, sums in [
        (rf.BASE_TARGET, 6, rf.BASE_SUMS),
        (rf.SIGNED_TARGET, 6, rf.SIGNED_SUMS),
        (rf.COVER_TARGET, 12, rf.COVER_SUMS),
    ]:
        values = np.array(target_spectrum(target, zeros).values)
        assert np.allclose(sums, [(values**a).sum() for a in range(1, len(sums) + 1)], rtol=1e-12, atol=0)
    with pytest.raises(ValueError, match="not integers"):
        rf._exact_power_sums(((3, 1), (3, 1)), 6)


def test_a_base_target_with_one_value_changed_finds_no_candidate(monkeypatch):
    changed = rf.BASE_TARGET[:-1] + ((3, 0),)
    monkeypatch.setattr(rf, "BASE_SUMS", rf._exact_power_sums(changed, 6))
    assert rf.search_base_complexes() == []


@pytest.mark.parametrize(
    "name",
    [
        # 5239 for 5238, a relative shift of 4e-5
        "SIGNED_SUMS",
        # one in 5.3e8, a relative shift below the verdicts' tolerance of 1e-8
        "COVER_SUMS",
    ],
)
def test_a_flip_target_with_its_last_power_sum_off_by_one_finds_no_flip(monkeypatch, reference, name):
    sums = getattr(rf, name)
    monkeypatch.setattr(rf, name, sums[:-1] + [sums[-1] + 1])
    assert rf.locate_flip(reference.complex) is None
    assert rf.search_reference_fixture() == rf.ReferenceFixture(None, None, 420)


def test_the_search_solves_no_eigenproblem(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the fixture search eigensolved")

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    fixture = rf.search_reference_fixture()
    assert fixture.flip == ((0, 2), (0, 1, 2)) and fixture.matches == 420


def test_search_equals_the_per_candidate_brute_force():
    found = rf.search_base_complexes()
    assert len(found) == 420
    assert found == brute_force_base_matches(1e-8)


def _edge_uses(T):
    return Counter(e for t in T for e in combinations(TRIANGLES[t], 2))


def test_triangle_sets_are_the_pruned_six_subsets():
    # every 6-subset of the triangles, in lexicographic order, that uses
    # every edge at most twice and exactly 12 edges; the 1,950 such sets
    # with 9 or 11 edges cannot match, since tr P[T,T]² = 90 - 2e ≠ 66
    want = []
    for T in combinations(range(len(TRIANGLES)), 6):
        uses = _edge_uses(T)
        if max(uses.values()) <= 2 and len(uses) == 12:
            want.append(list(T))
    assert len(want) == 5040
    edges_of = coboundary(build_complex(TRIANGLES), 1)[1].reshape(-1, 3)
    assert rf._triangle_sets(edges_of).tolist() == want


@settings(max_examples=200, deadline=None)
@given(st.permutations(range(len(TRIANGLES))))
def test_the_trace_identity_that_forces_twelve_edges(order):
    # for 6 triangles using every edge at most twice: tr P[T,T] = 18 and
    # tr P[T,T]² = 90 - 2e, with e the number of edges used; the set takes
    # each triangle in the drawn order that keeps every edge's uses at
    # most 2, so every such set can be drawn (put first)
    T = []
    for t in order:
        if len(T) < 6 and max(_edge_uses(T + [t]).values()) <= 2:
            T.append(t)
    assume(len(T) == 6)
    block = TRIANGLE_GRAM[np.ix_(T, T)]
    assert np.trace(block) == 18
    assert np.trace(block @ block) == 90 - 2 * len(_edge_uses(T))


def test_power_sums_read_exactly_the_twelve_edge_blocks(monkeypatch):
    blocks, power_sums = [], rf._power_sums

    def recording(stack, count):
        blocks.append(stack)
        return power_sums(stack, count)

    monkeypatch.setattr(rf, "_power_sums", recording)
    assert len(rf.search_base_complexes()) == 420
    blocks = np.concatenate(blocks)
    assert len(blocks) == 5040
    # 90 - 2e = 66 on every block: each is a 12-edge set's
    assert (np.einsum("nij,nji->n", blocks, blocks) == 66).all()


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
    fixture = rf.search_reference_fixture()
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


def _assert_power_sums(blocks, count):
    sums = rf._power_sums(blocks, count)
    assert np.array_equal(sums, np.round(sums))
    eigs = np.linalg.eigvalsh(blocks)
    expected = np.stack([(eigs**a).sum(axis=1) for a in range(1, count + 1)], axis=1)
    assert np.allclose(sums, expected, rtol=1e-9, atol=0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(0, len(TRIANGLES) - 1), min_size=6, max_size=6), min_size=1, max_size=4))
def test_power_sums_are_those_of_the_eigenvalues(subsets):
    _assert_power_sums(np.stack([TRIANGLE_GRAM[np.ix_(sorted(T), sorted(T))] for T in subsets]), 6)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.sets(st.integers(0, len(TRIANGLES) - 1), min_size=6, max_size=6), st.integers(0, 17)),
        min_size=1,
        max_size=3,
    )
)
def test_power_sums_of_lifted_blocks_are_those_of_the_eigenvalues(cases):
    # the 12 x 12 triangle Gram matrix of a 2-lift that swaps the sheets
    # on one incidence, as locate_flip assembles it
    blocks = []
    for chosen, k in cases:
        K = build_complex([TRIANGLES[t] for t in chosen])
        tri, j = K.faces(2)[k // 3], k % 3
        swap = incidence_weighting(K, {(tri[:j] + tri[j + 1 :], tri): [[0, 1], [1, 0]]})
        blocks.append(laplacian_matrix(K, 2, DOWN, COMBINATORIAL, swap))
    _assert_power_sums(np.stack(blocks), 12)
