import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from conftest import scrambled_covering
from oracles import (
    bareiss_rank,
    betti_numbers,
    coboundary_matrix,
    cochain_laplacian,
    cochain_weights,
    exact_rank,
    explicit_down_laplacian,
    explicit_up_laplacian,
    face_coboundary,
    face_positions,
    dense_matrix,
    harmonic_bases,
    kronecker_coboundary,
    lift_cochain,
    lifted_harmonics,
    nonzeros,
    numeric_kernel_dimension,
    per_face_lift_cochain,
    symmetrized_form,
)
from randgen import random_complex, random_connected_cover

import liftlap.homology
import liftlap.operators
from liftlap import (
    COMBINATORIAL,
    NORMALIZED,
    LiftlapError,
    WeightScheme,
    build_complex,
    coboundary,
    decorated_coboundary,
    derived_complex,
    edge_voltages,
    exact_betti_numbers,
    induced_incidence_voltage,
    integer_split,
    laplacian_matrix,
    verify_betti_inequality,
    verify_covering,
)


class TestIntegerRank:
    def test_small_cases(self):
        assert exact_rank(nonzeros([[2, 4], [1, 2]])) == 1
        assert exact_rank(nonzeros(np.eye(3, dtype=int))) == 3
        assert exact_rank(nonzeros(np.zeros((2, 5), dtype=int))) == 0
        assert exact_rank(nonzeros(np.zeros((0, 4), dtype=int))) == 0

    def test_matches_float_rank_on_random_integer_matrices(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            m = rng.integers(-3, 4, size=(rng.integers(1, 8), rng.integers(1, 8)))
            assert exact_rank(nonzeros(m)) == np.linalg.matrix_rank(m)

    @pytest.mark.parametrize(
        "triplets",
        [
            ([0, 0], [1, 1], [1, 2]),
            # a sum of the two would read as no entry
            ([0, 0], [1, 1], [1, -1]),
            ([0, 1, 2, 1], [0, 1, 2, 1], [1, 1, 1, 1]),
        ],
        ids=["repeated", "cancelling", "among-others"],
    )
    def test_a_pair_given_twice_is_refused(self, triplets):
        rows, cols, values = map(np.array, triplets)
        with pytest.raises(LiftlapError, match=re.escape("exact elimination was given one (row, column) pair twice")):
            liftlap.homology._pivots(rows, cols, values)

    def test_zero_values_are_no_entries(self):
        assert exact_rank(([0, 1], [0, 1], [0, 3])) == 1
        assert exact_rank((np.array([], np.int64),) * 3) == 0


# small integer matrices: empty, tall and wide shapes; sparse +-1 entries
# or dense entries outside +-1.  Below 9 x 9 with entries of at most 6 in
# size, sigma_max <= 48 and the nonzero singular values multiply to at
# least 1, so each exceeds 48**-7, about 20 times the float rank's cutoff
# 48 * 8 * eps: np.linalg.matrix_rank is exact there as well.
_SHAPES = st.tuples(st.integers(0, 8), st.integers(0, 8))
_MATRICES = st.one_of(
    hnp.arrays(np.int64, _SHAPES, elements=st.sampled_from([0, 0, 0, 1, -1])),
    hnp.arrays(np.int64, _SHAPES, elements=st.integers(-6, 6)),
)


class TestIntegerRankProperties:
    @settings(max_examples=300, deadline=None)
    @given(_MATRICES)
    def test_matches_bareiss_and_float_rank(self, m):
        assert exact_rank(nonzeros(m)) == bareiss_rank(m) == np.linalg.matrix_rank(m)

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.int64, _SHAPES, elements=st.integers(-(10**12), 10**12)))
    def test_matches_bareiss_on_large_entries(self, m):
        assert exact_rank(nonzeros(m)) == bareiss_rank(m)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_coboundaries_of_random_complexes(self, seed):
        K = random_complex(np.random.default_rng(seed))
        for i in range(K.min_dim, K.top_dim):
            d = coboundary_matrix(K, i)
            assert exact_rank(face_coboundary(K.faces(i + 1), K.faces(i))) == bareiss_rank(d)
            assert exact_rank(nonzeros(d)) == bareiss_rank(d) == np.linalg.matrix_rank(d)


class TestBettiNumbers:
    def test_each_coboundary_is_ranked_once(self, triangle, monkeypatch):
        ranked = []
        pivots = liftlap.homology._pivots

        def counting_pivots(rows, cols, values):
            ranked.append((len(set(rows.tolist())), len(set(cols.tolist())), len(rows)))
            return pivots(rows, cols, values)

        monkeypatch.setattr(liftlap.homology, "_pivots", counting_pivots)
        assert exact_betti_numbers(triangle) == {-1: 0, 0: 0, 1: 0, 2: 0}
        # d_1, d_0 and d_-1 of the full triangle, top degree down, once
        # each: the 1 x 3 d_1 in full; d_0 without the row of the edge
        # that is d_1's pivot column (2 of 3 rows left); d_-1 without the
        # rows of d_0's 2 pivot columns (1 of 3 rows left)
        assert ranked == [(1, 3, 3), (2, 3, 4), (1, 1, 1)]

    def test_contractible_triangle(self, triangle):
        rep = betti_numbers(triangle)
        assert rep.betti == {-1: 0, 0: 0, 1: 0, 2: 0}

    def test_hollow_triangle_has_one_loop(self, hollow_triangle):
        rep = betti_numbers(hollow_triangle)
        assert rep.betti == {-1: 0, 0: 0, 1: 1}

    def test_non_reduced_counts_components(self):
        K = build_complex([{0, 1}], include_empty=False)
        rep = betti_numbers(K)
        assert rep.reduced is False
        assert rep.betti[0] == 1

    def test_weight_independence(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            K = random_complex(rng)
            a = betti_numbers(K, COMBINATORIAL).betti
            b = betti_numbers(K, NORMALIZED).betti
            assert a == b

    def test_euler_characteristic_identity(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            K = random_complex(rng)
            rep = betti_numbers(K)
            total = sum(
                (-1) ** i * (K.face_count(i) - rep.betti[i]) for i in K.dims()
            )
            assert total == 0

    def test_tiny_explicit_weights_keep_the_topology(self, hollow_triangle):
        # edge weights of 1e-8 push nonzero eigenvalues of the vertex
        # Laplacian below any fixed kernel cutoff; the count must not move
        w = {f: 1.0 for f in face_positions(hollow_triangle)}
        for e in hollow_triangle.faces(1):
            w[e] = 1e-8
        rep = betti_numbers(hollow_triangle, WeightScheme.explicit(w))
        assert rep.betti == {-1: 0, 0: 0, 1: 1}
        assert rep.kernel_bases[1].shape == (3, 1)

    def test_ranks_base_and_twisted_matrices_only(self, monkeypatch):
        # a loop with a filled triangle hanging off it, under a 2-fold cover
        # that swaps the sheets across one edge of the loop
        M = build_complex([{0, 1}, {1, 2}, {0, 2}, {2, 3, 4}])
        assert exact_betti_numbers(M) == {-1: 0, 0: 0, 1: 1, 2: 0}
        cov = derived_complex(M, edge_voltages(M, 2, {(0, 1): (1, 0)})).covering
        ranked = _count_ranked(monkeypatch)
        calls = _count_linalg_calls(monkeypatch)
        rep = verify_betti_inequality(cov)
        assert rep.holds and calls == []
        # top degree down, the base (d_1, then d_0 less the row of d_1's
        # pivot column, then the row of d_-1 left) and then the twisted
        # complex with V of dimension 1 (d^V_1, then d^V_0 less one row):
        # rows, columns and nonzeros; the 2 x 12 and 12 x 10 coboundaries
        # of the cover are never ranked
        assert ranked == [(1, 3, 3), (5, 5, 10), (1, 1, 1), (1, 3, 3), (5, 5, 10)]
        assert {v.dim: (v.betti_base, v.betti_twisted, v.betti_cover) for v in rep.per_dim} == {
            -1: (0, 0, 0),
            0: (0, 0, 0),
            1: (1, 0, 1),
            2: (0, 0, 0),
        }

    def test_full_kernel_is_up_down_intersection(self):
        rng = np.random.default_rng(53)
        for _ in range(6):
            K = random_complex(rng)
            rep = betti_numbers(K)
            for i in range(1, K.top_dim + 1):
                up = laplacian_matrix(K, i, "up")
                down = laplacian_matrix(K, i, "down")
                stacked = np.vstack([up, down])
                dim_intersection = K.face_count(i) - np.linalg.matrix_rank(
                    stacked, tol=1e-9
                )
                assert dim_intersection == rep.betti[i]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_numeric_kernel_count_matches_exact_rank(self, seed):
        K = random_complex(np.random.default_rng(seed))
        exact = exact_betti_numbers(K)
        for scheme in (COMBINATORIAL, NORMALIZED):
            rep = betti_numbers(K, scheme)
            for i in K.dims():
                assert numeric_kernel_dimension(K, i, scheme) == exact[i]
                if exact[i]:
                    # the bases are cochains, so the cochain operator kills them
                    L = cochain_laplacian(K, i, "full" if i > K.min_dim else "up", scheme)
                    basis = rep.kernel_bases[i]
                    assert basis.shape == (K.face_count(i), exact[i])
                    assert np.max(np.abs(L @ basis)) <= 1e-9


class TestExplicitFormulas:
    def test_up_matches_matrix_product(self):
        rng = np.random.default_rng(54)
        for _ in range(8):
            K = random_complex(rng)
            for scheme in (COMBINATORIAL, NORMALIZED):
                for i in range(0, K.top_dim + 1):
                    direct = explicit_up_laplacian(K, i, scheme)
                    assert np.max(np.abs(direct - cochain_laplacian(K, i, "up", scheme))) <= 1e-10
                    ours = laplacian_matrix(K, i, "up", scheme)
                    assert np.max(np.abs(symmetrized_form(direct, cochain_weights(K, i, scheme)) - ours)) <= 1e-10

    def test_down_matches_matrix_product(self):
        rng = np.random.default_rng(55)
        for _ in range(8):
            K = random_complex(rng)
            for scheme in (COMBINATORIAL, NORMALIZED):
                for i in range(0, K.top_dim + 1):
                    direct = explicit_down_laplacian(K, i, scheme)
                    assert np.max(np.abs(direct - cochain_laplacian(K, i, "down", scheme))) <= 1e-10
                    ours = laplacian_matrix(K, i, "down", scheme)
                    assert np.max(np.abs(symmetrized_form(direct, cochain_weights(K, i, scheme)) - ours)) <= 1e-10


def _count_linalg_calls(monkeypatch):
    """Record the name of every ``np.linalg`` function called, in ``calls``."""
    calls = []

    def counting(name, function):
        def call(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)

        return call

    for name in np.linalg.__all__:
        function = getattr(np.linalg, name)
        if callable(function) and not isinstance(function, type):
            monkeypatch.setattr(np.linalg, name, counting(name, function))
    return calls


def _count_ranked(monkeypatch):
    """Record the (rows, columns, nonzeros) of every matrix the exact rank
    eliminates, in ``ranked``."""
    ranked = []
    pivots = liftlap.homology._pivots

    def counting_pivots(rows, cols, values):
        ranked.append((len(set(rows.tolist())), len(set(cols.tolist())), len(rows)))
        return pivots(rows, cols, values)

    monkeypatch.setattr(liftlap.homology, "_pivots", counting_pivots)
    return ranked


class TestBettiReport:
    def test_inequality_assembles_no_operator_and_runs_no_linalg(self, c3_double_cover, monkeypatch):
        cov = c3_double_cover.covering
        assert not hasattr(liftlap.homology, "laplacian_matrix")
        calls = _count_linalg_calls(monkeypatch)
        rep = verify_betti_inequality(cov)
        assert rep.holds and calls == []
        (layer,) = rep.per_dim[-1].layers
        # the hexagon's 6 x 6 coboundary factors through the triangle's
        # 3 x 3 twisted coboundary of rank 3, so the loop does not double
        assert (layer.dim, layer.shape, layer.rank, layer.square) == (0, (3, 3), 3, 0)
        assert layer.factorization.holds and layer.identity.residual == 0


def _complexes(seed):
    """A random complex with a loop, the same without its empty face and,
    when one is found, a connected cover of it."""
    rng = np.random.default_rng(seed)
    M = random_complex(rng, max_vertices=7, min_beta1=1)
    out = random_connected_cover(M, int(rng.integers(2, 4)), rng)
    unreduced = build_complex(M.facets(), include_empty=False)
    return [M, unreduced] if out is None else [M, unreduced, out[1].complex]


def _covers(seed):
    """A random complex and, when one is found, a connected cover of it,
    and the same with the vertices of the cover relabelled."""
    rng = np.random.default_rng(seed)
    M = random_complex(rng, max_vertices=7)
    out = random_connected_cover(M, int(rng.integers(2, 5)), rng)
    if out is None:
        return []
    result = out[1]
    return [result.covering, scrambled_covering(rng, result.complex, result.vertex_map, M)]


class TestBettiRoute:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_cleared_ranks_are_exact_ranks(self, seed):
        for K in _complexes(seed):
            pivots = liftlap.homology._cleared_pivots({j: coboundary(K, j) for j in range(K.min_dim, K.top_dim)})
            assert sorted(pivots) == list(range(K.min_dim, K.top_dim))
            for j in range(K.min_dim, K.top_dim):
                d = coboundary_matrix(K, j)
                assert len(pivots[j]) == exact_rank(coboundary(K, j)) == bareiss_rank(d)
                # the pivot rows and pivot columns meet in a nonsingular block
                cols, rows = list(pivots[j]), list(pivots[j].values())
                assert np.linalg.matrix_rank(d[np.ix_(rows, cols)]) == len(rows)
                if j > K.min_dim:
                    # no pivot of d_(j-1) sits on a row cleared by d_j
                    assert not set(pivots[j - 1].values()) & set(pivots[j])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_certified_cover_betti_numbers_are_the_cover_ranks(self, seed):
        for cov in _covers(seed):
            rep = verify_betti_inequality(cov)
            assert rep.holds
            cover, base = exact_betti_numbers(cov.cover), exact_betti_numbers(cov.base)
            for v in rep.per_dim:
                assert (v.betti_base, v.betti_cover) == (base[v.dim], cover[v.dim])
                assert v.betti_cover == v.betti_base + v.betti_twisted
                for layer in v.layers:
                    assert layer.factorization.residual == layer.identity.residual == layer.square == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_twisted_coboundary_splits_the_lifted_coboundary(self, seed):
        # with T = [1 | e_j - e_(k-1)] on every face, the lifted coboundary
        # D_psi (1 (x) T) is (1 (x) T) (d (+) d^V), the trivial coordinate of
        # each face first: exactly, in integers, and of rank d + rank d^V
        for cov in _covers(seed)[:1]:
            M, k = cov.base, cov.degree
            for i in range(0, M.top_dim):
                psi = induced_incidence_voltage(cov, i)
                n_hi, n_lo = M.face_count(i + 1), M.face_count(i)
                T, blocks = integer_split(psi)
                twisted = dense_matrix(decorated_coboundary(M, i, blocks), (n_hi * (k - 1), n_lo * (k - 1)))
                split = np.zeros((n_hi, k, n_lo, k), np.int64)
                split[:, 0, :, 0] = coboundary_matrix(M, i)
                split[:, 1:, :, 1:] = twisted.reshape(n_hi, k - 1, n_lo, k - 1)
                split = split.reshape(n_hi * k, n_lo * k)
                lifted = kronecker_coboundary(M, psi, i)
                assert np.array_equal(lifted @ np.kron(np.eye(n_lo, dtype=np.int64), T), np.kron(np.eye(n_hi, dtype=np.int64), T) @ split)
                assert bareiss_rank(lifted) == bareiss_rank(coboundary_matrix(M, i)) + bareiss_rank(twisted)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_square_is_the_dense_product(self, seed):
        rng = np.random.default_rng(seed)
        shapes = rng.integers(0, 6, size=3)
        upper, lower = (rng.integers(-2, 3, size=(a, b)) * (rng.random((a, b)) < 0.5) for a, b in zip(shapes, shapes[1:]))
        product = upper @ lower
        residual, witness = liftlap.homology._square(nonzeros(upper), nonzeros(lower), lower.shape[1])
        assert residual == np.abs(product).max(initial=0)
        assert witness == (None if not product.any() else tuple(np.argwhere(product)[0].tolist()))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_lifted_base_harmonics_lie_in_the_cover_kernel(self, seed):
        # the eigh harmonic bases of the base lift to independent harmonic
        # cochains of the cover, under both schemes
        for cov in _covers(seed):
            betti = exact_betti_numbers(cov.base)
            for scheme in (COMBINATORIAL, NORMALIZED):
                for i, basis in harmonic_bases(cov.base, betti, scheme).items():
                    if betti[i]:
                        residual, sigma = lifted_harmonics(cov, i, basis, scheme)
                        assert residual <= 1e-9 and sigma >= 1e-6


class TestLiftCochain:
    def test_zero_lifts_to_zero(self, c3_double_cover):
        cov = c3_double_cover.covering
        assert not lift_cochain(np.zeros(3), 1, cov).any()

    def test_harmonic_cycle_lifts_into_kernel(self, c3_double_cover):
        cov = c3_double_cover.covering
        # the coherent cycle on edges (01, 02, 12) of the triangle
        harmonic = np.array([1.0, -1.0, 1.0])
        base_op = laplacian_matrix(cov.base, 1, "full")
        assert np.max(np.abs(base_op @ harmonic)) < 1e-12
        lifted = lift_cochain(harmonic, 1, cov)
        cover_op = laplacian_matrix(cov.cover, 1, "full")
        assert np.max(np.abs(cover_op @ lifted)) <= 1e-10

    def test_identity_cover_is_identity(self):
        M = build_complex([{0, 1, 2}, {2, 3}])
        cov = derived_complex(M, edge_voltages(M, 1)).covering
        f = np.arange(4.0)
        assert np.array_equal(lift_cochain(f, 1, cov), f)

    def test_basis_lifts_like_its_columns(self):
        M = build_complex([{0, 1, 2}, {2, 3}, {3, 4}, {4, 2}])
        psi = edge_voltages(M, 3, {(2, 3): (1, 2, 0)})
        result = derived_complex(M, psi)
        cov = scrambled_covering(np.random.default_rng(5), result.complex, result.vertex_map, M)
        basis = np.random.default_rng(6).standard_normal((M.face_count(1), 4))
        lifted = lift_cochain(basis, 1, cov)
        assert lifted.shape == (cov.cover.face_count(1), 4)
        for t in range(4):
            assert np.array_equal(lifted[:, t], lift_cochain(basis[:, t], 1, cov))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_equal_to_the_per_face_loop_bitwise(self, seed, scramble):
        rng = np.random.default_rng(seed)
        M = random_complex(rng, max_vertices=6, min_beta1=1)
        out = random_connected_cover(M, int(rng.integers(2, 5)), rng)
        assume(out is not None)
        _, result = out
        cov = result.covering
        if scramble:
            cov = scrambled_covering(rng, result.complex, result.vertex_map, M)
        for i in M.dims():
            for values in (rng.standard_normal(M.face_count(i)), rng.standard_normal((M.face_count(i), 3))):
                got, want = lift_cochain(values, i, cov), per_face_lift_cochain(values, i, cov)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestBettiInequality:
    def test_hexagon_over_triangle(self, c3_double_cover):
        rep = verify_betti_inequality(c3_double_cover.covering)
        assert rep.holds
        by_dim = {v.dim: v for v in rep.per_dim}
        assert by_dim[1].betti_base == 1 and by_dim[1].betti_cover == 1

    @pytest.mark.parametrize("cover_empty, base_empty", [(False, True), (True, False)])
    def test_cover_and_base_disagreeing_on_the_empty_face(self, c3_double_cover, cover_empty, base_empty):
        # a covering map read from files may pair a reduced base with an
        # unreduced cover, or the other way round: b_0 counts accordingly
        K = build_complex(c3_double_cover.complex.facets(), include_empty=cover_empty)
        M = build_complex(c3_double_cover.covering.base.facets(), include_empty=base_empty)
        rep = verify_betti_inequality(verify_covering(K, M, c3_double_cover.vertex_map))
        assert rep.holds
        cover = exact_betti_numbers(K)
        assert {v.dim: v.betti_cover for v in rep.per_dim} == {i: cover.get(i, 0) for i in M.dims()}

    def test_icosahedron_over_the_projective_plane(self, rp2_double_cover):
        cov = rp2_double_cover.covering
        assert [cov.cover.face_count(d) for d in range(3)] == [12, 30, 20]
        assert (np.bincount(coboundary(cov.cover, 0)[1]) == 5).all()
        rep = verify_betti_inequality(cov)
        assert rep.holds
        # RP^2 has no rational homology; twisted by its orientation
        # character it has b_2 = 1, and so has the sphere above it
        assert {v.dim: (v.betti_base, v.betti_twisted, v.betti_cover) for v in rep.per_dim} == {
            -1: (0, 0, 0),
            0: (0, 0, 0),
            1: (0, 0, 0),
            2: (0, 1, 1),
        }
        assert exact_betti_numbers(cov.cover) == {-1: 0, 0: 0, 1: 0, 2: 1}

    def test_every_connected_two_lift_of_near_complete_graph_is_strict(self):
        from itertools import product

        M = build_complex([{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}])
        assert betti_numbers(M).betti[1] == 2
        edges = M.faces(1)
        connected_lifts = 0
        for flips in product([(0, 1), (1, 0)], repeat=len(edges)):
            psi = edge_voltages(M, 2, dict(zip(edges, flips)))
            result = derived_complex(M, psi)
            if not result.connected:
                continue
            connected_lifts += 1
            rep = betti_numbers(result.complex)
            assert rep.betti[1] == 3
            check = verify_betti_inequality(result.covering)
            assert check.holds
            by_dim = {v.dim: v for v in check.per_dim}
            assert by_dim[1].betti_cover > by_dim[1].betti_base
            assert by_dim[1].betti_twisted == 1
        assert connected_lifts > 0

    def test_an_inverted_voltage_fails_with_full_ranks(self, monkeypatch):
        # a Z_3 cover of an annulus (inner 0 1 2, outer 3 4 5, the edges
        # from 0 and 3 to 2 and 5 crossing a cut), with the first voltage
        # that is not its own inverse inverted: the factorization and the
        # square of the twisted coboundary fail, so nothing is cleared
        # and each twisted matrix is ranked in full
        M = build_complex([{0, 1, 3}, {1, 3, 4}, {1, 2, 4}, {2, 4, 5}, {0, 2, 5}, {0, 3, 5}])
        cut = {(0, 2): (1, 2, 0), (0, 5): (1, 2, 0), (3, 5): (1, 2, 0)}
        cov = derived_complex(M, edge_voltages(M, 3, cut)).covering
        real = liftlap.homology.induced_incidence_voltage

        def inverted(cov, i):
            psi = real(cov, i)
            perms = psi.perms.copy()
            e = int(np.argmax((perms[np.arange(len(perms))[:, None], perms] != np.arange(3)).any(axis=1)))
            perms[e] = np.argsort(perms[e])
            return type(psi)(psi.base, psi.k, psi.dim, perms)

        monkeypatch.setattr(liftlap.homology, "induced_incidence_voltage", inverted)
        rep = verify_betti_inequality(cov)
        assert not rep.holds
        layers = {layer.dim: layer for v in rep.per_dim for layer in v.layers}
        assert layers[0].factorization.witness is not None and layers[0].square > 0
        for i, layer in layers.items():
            blocks = integer_split(inverted(cov, i))[1]
            twisted = decorated_coboundary(M, i, blocks)
            assert layer.rank == bareiss_rank(dense_matrix(twisted, layer.shape))
