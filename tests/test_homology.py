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
    explicit_down_laplacian,
    explicit_up_laplacian,
    face_coboundary,
    nonzeros,
    numeric_kernel_dimension,
    per_face_lift_cochain,
    symmetrized_form,
)
from randgen import random_complex, random_connected_cover

import liftlap.homology
from liftlap import (
    COMBINATORIAL,
    NORMALIZED,
    LiftlapError,
    WeightError,
    WeightScheme,
    build_complex,
    derived_complex,
    edge_voltages,
    exact_betti_numbers,
    integer_rank,
    laplacian_matrix,
    lift_cochain,
    verify_betti_inequality,
)


class TestIntegerRank:
    def test_small_cases(self):
        assert integer_rank(nonzeros([[2, 4], [1, 2]])) == 1
        assert integer_rank(nonzeros(np.eye(3, dtype=int))) == 3
        assert integer_rank(nonzeros(np.zeros((2, 5), dtype=int))) == 0
        assert integer_rank(nonzeros(np.zeros((0, 4), dtype=int))) == 0

    def test_matches_float_rank_on_random_integer_matrices(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            m = rng.integers(-3, 4, size=(rng.integers(1, 8), rng.integers(1, 8)))
            assert integer_rank(nonzeros(m)) == np.linalg.matrix_rank(m)

    @pytest.mark.parametrize(
        "matrix",
        [
            [[2.0, 4.0], [1.0, 2.0]],
            [[1.0, np.nan]],
            [[np.inf, 1.0]],
            [[True, False]],
            np.array([[1, 2]], dtype=object),
        ],
        ids=["integral-floats", "nan", "inf", "booleans", "python-ints"],
    )
    def test_non_integer_arrays_are_rejected(self, matrix):
        with pytest.raises(LiftlapError, match="1-d integer arrays"):
            integer_rank(nonzeros(np.array(matrix)))

    @pytest.mark.parametrize(
        "matrix, entry, pos",
        [
            ([[0.5, 0.25]], "0.5", "(0, 0)"),
            ([[1.0], [1.5]], "1.5", "(1, 0)"),
        ],
    )
    def test_non_integral_entries_are_rejected(self, matrix, entry, pos):
        # the first fractional entry sits at pos; the values are refused by
        # their float dtype, without a scan for that entry
        a = np.array(matrix)
        first = tuple(np.argwhere(a != np.round(a))[0].tolist())
        assert (str(first), str(a[first])) == (pos, entry)
        with pytest.raises(LiftlapError, match=re.escape(f"float64 of shape ({a.size},)")):
            integer_rank(nonzeros(a))

    def test_not_a_matrix_is_rejected(self):
        # a matrix is not read as its rows, and one pair is not given twice
        for given in (
            np.array([[0, 1], [1, 0], [1, 1]]),
            ([0, 1], [1, 0]),
            ([0, 1], [1, 0], [1, 1], [1, 1]),
            ([0, 1], [1], [1, 1]),
            ([[0], [1]], [[1], [0]], [[1], [1]]),
            ([0, 0], [1, 1], [1, 2]),
        ):
            with pytest.raises(LiftlapError, match="nonzeros|1-d integer arrays|pair twice"):
                integer_rank(given)

    def test_zero_values_are_no_entries(self):
        assert integer_rank(([0, 1], [0, 1], [0, 3])) == 1
        assert integer_rank((np.array([], np.int64),) * 3) == 0


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
        assert integer_rank(nonzeros(m)) == bareiss_rank(m) == np.linalg.matrix_rank(m)

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.int64, _SHAPES, elements=st.integers(-(10**12), 10**12)))
    def test_matches_bareiss_on_large_entries(self, m):
        assert integer_rank(nonzeros(m)) == bareiss_rank(m)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_coboundaries_of_random_complexes(self, seed):
        K = random_complex(np.random.default_rng(seed))
        for i in range(K.min_dim, K.top_dim):
            d = coboundary_matrix(K, i)
            assert integer_rank(face_coboundary(K.faces(i + 1), K.faces(i))) == bareiss_rank(d)
            assert integer_rank(nonzeros(d)) == bareiss_rank(d) == np.linalg.matrix_rank(d)


class TestBettiNumbers:
    def test_each_coboundary_is_ranked_once(self, triangle, monkeypatch):
        ranked = []

        def counting_rank(triplets):
            rows, cols, _ = triplets
            ranked.append((len(set(rows.tolist())), len(set(cols.tolist())), len(rows)))
            return integer_rank(triplets)

        monkeypatch.setattr(liftlap.homology, "integer_rank", counting_rank)
        betti_numbers(triangle)
        # d_-1, d_0 and d_1 of the full triangle, once each: 3 x 1, 3 x 3
        # and 1 x 3 with 1, 2 and 3 nonzeros per row
        assert ranked == [(3, 1, 3), (3, 3, 6), (1, 3, 3)]

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
        w = {f: 1.0 for f in hollow_triangle.all_faces()}
        for e in hollow_triangle.faces(1):
            w[e] = 1e-8
        rep = betti_numbers(hollow_triangle, WeightScheme.explicit(w))
        assert rep.betti == {-1: 0, 0: 0, 1: 1}
        assert rep.kernel_bases[1].shape == (3, 1)

    def test_builds_operators_only_for_nonzero_betti_numbers(self, triangle, hollow_triangle, monkeypatch):
        built = []

        def counting_laplacian(K, i, *args):
            built.append(i)
            return laplacian_matrix(K, i, *args)

        monkeypatch.setattr(liftlap.homology, "laplacian_matrix", counting_laplacian)
        rep = betti_numbers(triangle)
        assert built == []
        assert all(rep.kernel_bases[i].shape == (triangle.face_count(i), 0) for i in triangle.dims())
        betti_numbers(hollow_triangle, NORMALIZED)
        assert built == [1]

    def test_full_kernel_is_up_down_intersection(self):
        rng = np.random.default_rng(53)
        for _ in range(6):
            K = random_complex(rng)
            rep = betti_numbers(K)
            for i in range(1, K.top_dim + 1):
                up = laplacian_matrix(K, i, "up")
                down = laplacian_matrix(K, i, "down")
                stacked = np.vstack([up.matrix, down.matrix])
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
                    ours = laplacian_matrix(K, i, "up", scheme).matrix
                    assert np.max(np.abs(symmetrized_form(direct, cochain_weights(K, i, scheme)) - ours)) <= 1e-10

    def test_down_matches_matrix_product(self):
        rng = np.random.default_rng(55)
        for _ in range(8):
            K = random_complex(rng)
            for scheme in (COMBINATORIAL, NORMALIZED):
                for i in range(0, K.top_dim + 1):
                    direct = explicit_down_laplacian(K, i, scheme)
                    assert np.max(np.abs(direct - cochain_laplacian(K, i, "down", scheme))) <= 1e-10
                    ours = laplacian_matrix(K, i, "down", scheme).matrix
                    assert np.max(np.abs(symmetrized_form(direct, cochain_weights(K, i, scheme)) - ours)) <= 1e-10


class TestBettiReport:
    def test_inequality_builds_each_cover_operator_once(self, c3_double_cover, monkeypatch):
        cov = c3_double_cover.covering
        built = []
        solved = []
        eigh = np.linalg.eigh

        def counting_laplacian(K, i, *args):
            if K is cov.cover:
                built.append(i)
            return laplacian_matrix(K, i, *args)

        def counting_eigh(a, *args, **kwargs):
            solved.append(len(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(liftlap.homology, "laplacian_matrix", counting_laplacian)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        assert verify_betti_inequality(cov)[0].holds
        # only the base kernel at dim 1 is nonzero; the cover is never eigensolved
        assert built == [1]
        assert solved == [3]



class TestLiftCochain:
    def test_zero_lifts_to_zero(self, c3_double_cover):
        cov = c3_double_cover.covering
        assert not lift_cochain(np.zeros(3), 1, cov).any()

    def test_harmonic_cycle_lifts_into_kernel(self, c3_double_cover):
        cov = c3_double_cover.covering
        # the coherent cycle on edges (01, 02, 12) of the triangle
        harmonic = np.array([1.0, -1.0, 1.0])
        base_op = laplacian_matrix(cov.base, 1, "full")
        assert np.max(np.abs(base_op.matrix @ harmonic)) < 1e-12
        lifted = lift_cochain(harmonic, 1, cov)
        cover_op = laplacian_matrix(cov.cover, 1, "full")
        assert np.max(np.abs(cover_op.matrix @ lifted)) <= 1e-10

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
        for rep in verify_betti_inequality(c3_double_cover.covering, (COMBINATORIAL, NORMALIZED)):
            assert rep.holds
            by_dim = {v.dim: v for v in rep.per_dim}
            assert by_dim[1].betti_base == 1 and by_dim[1].betti_cover == 1

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
            (check,) = verify_betti_inequality(result.covering)
            assert check.holds
            by_dim = {v.dim: v for v in check.per_dim}
            assert by_dim[1].betti_cover > by_dim[1].betti_base
        assert connected_lifts > 0

    def test_lifted_bases_independent_on_random_covers(self):
        rng = np.random.default_rng(56)
        done = 0
        while done < 6:
            M = random_complex(rng, min_beta1=1)
            out = random_connected_cover(M, int(rng.integers(2, 4)), rng)
            if out is None:
                continue
            _, result = out
            for rep in verify_betti_inequality(result.covering, (COMBINATORIAL, NORMALIZED)):
                assert rep.holds
                for v in rep.per_dim:
                    if v.lift_sigma_min is not None:
                        assert v.lift_sigma_min >= 1e-8
            done += 1

    def test_explicit_scheme_rejected(self, c3_double_cover):
        faces = list(c3_double_cover.covering.base.all_faces())
        with pytest.raises(WeightError):
            verify_betti_inequality(
                c3_double_cover.covering, [WeightScheme.explicit({f: 1.0 for f in faces})]
            )
