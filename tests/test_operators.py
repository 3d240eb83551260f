import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cycle_complex, cycle_laplacian_values
from oracles import (
    coboundary_matrix,
    cochain_laplacian,
    cochain_weights,
    cofacet_table,
    compare_spectra,
    dense_decorated_coboundary,
    dense_laplacian,
    dense_matrix,
    face_positions,
    layer_spectra,
    pair_table,
    permutation_matrix,
    symmetrized_form,
)
from randgen import random_complex

from liftlap import (
    COMBINATORIAL,
    NORMALIZED,
    DimensionError,
    IncidenceWeighting,
    LiftlapError,
    SpectrumMultiset,
    WeightError,
    WeightScheme,
    build_complex,
    compute_weights,
    decorated_coboundary,
    incidence_weighting,
    laplacian_matrix,
    spectrum,
)


class TestLaplacianMatrix:
    def test_triangle_edge_up(self, triangle):
        op = laplacian_matrix(triangle, 1, "up")
        D = np.array([[1, -1, 1]])
        assert np.array_equal(op, D.T @ D)
        assert sorted(np.round(spectrum(op).values, 9)) == [0.0, 0.0, 3.0]

    @pytest.mark.parametrize("kind", ["up", "down", "full"])
    def test_is_the_array_spectrum_takes(self, triangle, kind):
        w = incidence_weighting(triangle, {((0, 1), (0, 1, 2)): 1j, ((0,), (0, 2)): -1j})
        op = laplacian_matrix(triangle, 1, kind, NORMALIZED, w)
        assert type(op) is np.ndarray and op.dtype == np.complex128 and op.shape == (3, 3)
        expected = np.linalg.eigvalsh(op)
        assert np.allclose(spectrum(op).values, np.where(np.abs(expected) <= 1e-9, 0.0, expected), atol=1e-12)

    def test_cycle_vertex_up_matches_closed_form(self):
        C3 = cycle_complex(3)
        vals = spectrum(laplacian_matrix(C3, 0, "up")).values
        assert np.allclose(vals, cycle_laplacian_values(3))

    def test_all_plus_signing_is_plain(self):
        rng = np.random.default_rng(5)
        K = random_complex(rng)
        plain = laplacian_matrix(K, 0, "up")
        signed = laplacian_matrix(K, 0, "up", decoration=IncidenceWeighting(K))
        assert np.array_equal(plain, signed)

    def test_full_is_up_plus_down(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            K = random_complex(rng)
            for i in range(0, K.top_dim + 1):
                up = laplacian_matrix(K, i, "up")
                down = laplacian_matrix(K, i, "down")
                full = laplacian_matrix(K, i, "full")
                assert np.array_equal(full, up + down)

    def test_down_range_needs_empty_face(self):
        K = build_complex([{0, 1}], include_empty=False)
        with pytest.raises(DimensionError):
            laplacian_matrix(K, 0, "down")
        laplacian_matrix(K, 1, "down")  # fine

    def test_out_of_range(self, triangle):
        with pytest.raises(DimensionError):
            laplacian_matrix(triangle, 3, "up")
        with pytest.raises(DimensionError):
            laplacian_matrix(triangle, -1, "down")

    def test_top_dim_up_is_zero(self, hollow_triangle):
        op = laplacian_matrix(hollow_triangle, 1, "up")
        assert op.shape == (3, 3)
        assert not op.any()

    def test_trace_matches_cofacet_weight_sums(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            K = random_complex(rng)
            for scheme in (COMBINATORIAL, NORMALIZED):
                w, cofacets = compute_weights(K, scheme), cofacet_table(K)
                for i in range(0, K.top_dim + 1):
                    op = laplacian_matrix(K, i, "up", scheme)
                    expected = sum(
                        w[i + 1][K.index(c)] / w[i][r] for r, f in enumerate(K.faces(i)) for c in cofacets[f]
                    )
                    assert abs(np.trace(op) - expected) <= 1e-10

    def test_adjoint_pair_duality(self):
        # nonzero spectrum of the i-up operator equals that of the (i+1)-down
        rng = np.random.default_rng(8)
        for _ in range(8)[:5]:
            K = random_complex(rng)
            for scheme in (COMBINATORIAL, NORMALIZED):
                for i in range(0, K.top_dim):
                    up = [v for v in spectrum(laplacian_matrix(K, i, "up", scheme)).values if v > 1e-9]
                    down = [v for v in spectrum(laplacian_matrix(K, i + 1, "down", scheme)).values if v > 1e-9]
                    assert np.allclose(up, down)


_FACETS = st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True), min_size=1, max_size=6)


def _decoration(K, kind, rng):
    """A decoration of every incidence layer of ``K``: none, a -1 signing,
    a complex character weighting, a 2 x 2 matrix weighting or the
    permutation matrices P(psi) of a 3-fold lift."""
    pairs = [(f, c) for f, cofacets in cofacet_table(K).items() for c in cofacets]
    picked = [p for p in pairs if rng.random() < 0.5]
    if kind == "none":
        return None
    if kind == "signing":
        return incidence_weighting(K, {p: -1.0 for p in picked})
    if kind == "character":
        return incidence_weighting(K, {p: np.exp(2j * np.pi * rng.integers(1, 5) / 5) for p in picked})
    # every incidence carries a matrix, so d is the same on every layer, the top one included
    if kind == "lift":
        return incidence_weighting(K, {p: permutation_matrix(tuple(rng.permutation(3).tolist())) for p in pairs})
    return incidence_weighting(K, {p: rng.normal(size=(2, 2)) for p in pairs})


class TestLayerSpectra:
    @settings(max_examples=150, deadline=None)
    @given(
        _FACETS,
        st.booleans(),
        st.sampled_from([COMBINATORIAL, NORMALIZED]),
        st.sampled_from(["none", "signing", "character", "matrix"]),
        st.integers(0, 2**32 - 1),
    )
    # the filled triangle with the empty face: n_-1 < n_0 and n_1 > n_2
    @example([[0, 1, 2]], True, NORMALIZED, "matrix", 0)
    @example([[0, 1, 2]], True, COMBINATORIAL, "character", 1)
    def test_both_sides_match_the_direct_solves(self, facets, include_empty, scheme, kind, seed):
        K = build_complex(facets, include_empty=include_empty)
        w = _decoration(K, kind, np.random.default_rng(seed))
        for i in range(K.min_dim, K.top_dim + 1):
            up, down = layer_spectra(K, i, scheme, w)
            direct_up = spectrum(laplacian_matrix(K, i, "up", scheme, w))
            direct_down = (
                spectrum(laplacian_matrix(K, i + 1, "down", scheme, w)) if i < K.top_dim else SpectrumMultiset(())
            )
            for ours, direct in ((up, direct_up), (down, direct_down)):
                assert len(ours) == len(direct)
                for a, b in zip(ours.values, direct.values):
                    assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), (i, a, b)

    def test_top_dimension_solves_nothing(self, monkeypatch, triangle):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigensolve at the top dimension")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        up, down = layer_spectra(triangle, 2, NORMALIZED)
        assert up.values == (0.0,) and down.values == ()

    def test_out_of_range(self, triangle):
        for i in (-2, 3):
            with pytest.raises(DimensionError):
                layer_spectra(triangle, i)


def _explicit_scheme(K, rng):
    return WeightScheme.explicit({f: float(rng.uniform(0.5, 3.0)) for f in face_positions(K)})


class TestSymmetrizedForm:
    """``laplacian_matrix`` is the symmetrized form of the cochain operator."""

    def test_identity_weights_are_a_no_op(self, triangle):
        op = laplacian_matrix(triangle, 1, "up")
        cochain = cochain_laplacian(triangle, 1, "up")
        assert np.array_equal(symmetrized_form(cochain, compute_weights(triangle, COMBINATORIAL)[1]), cochain)
        assert np.array_equal(op, cochain)

    def test_normalized_form_is_hermitian(self, triangle):
        op = laplacian_matrix(triangle, 0, "up", NORMALIZED)
        assert np.max(np.abs(op - op.T)) < 1e-12
        # weights map it back to cochains: L = W^{-1/2} matrix W^{1/2}
        root = np.sqrt(compute_weights(triangle, NORMALIZED)[0])
        cochain = op / root[:, None] * root[None, :]
        assert np.max(np.abs(cochain - cochain_laplacian(triangle, 0, "up", NORMALIZED))) < 1e-12

    def test_spectrum_matches_general_eigensolve(self):
        rng = np.random.default_rng(9)
        C3 = cycle_complex(3)
        weights = _explicit_scheme(C3, rng)
        for i in (0, 1):
            ours = spectrum(laplacian_matrix(C3, i, "full", weights)).values
            oracle = sorted(np.linalg.eigvals(cochain_laplacian(C3, i, "full", weights)).real)
            assert np.allclose(ours, oracle, atol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(
        _FACETS,
        st.booleans(),
        st.sampled_from(["combinatorial", "normalized", "explicit"]),
        st.sampled_from(["none", "signing", "character", "matrix"]),
        st.integers(0, 2**32 - 1),
    )
    def test_every_operator_is_hermitian_and_the_oracle(self, facets, include_empty, scheme_kind, kind, seed):
        K = build_complex(facets, include_empty=include_empty)
        rng = np.random.default_rng(seed)
        w = _decoration(K, kind, rng)
        schemes = {"combinatorial": COMBINATORIAL, "normalized": NORMALIZED}
        scheme = schemes[scheme_kind] if scheme_kind in schemes else _explicit_scheme(K, rng)
        for i in K.dims():
            for op_kind in ("up", "down", "full"):
                if op_kind != "up" and i == K.min_dim:
                    continue
                M = laplacian_matrix(K, i, op_kind, scheme, w)
                scale = max(1.0, float(np.max(np.abs(M), initial=0.0)))
                assert np.max(np.abs(M - M.conj().T), initial=0.0) <= 1e-12 * scale
                oracle = symmetrized_form(
                    cochain_laplacian(K, i, op_kind, scheme, w), cochain_weights(K, i, scheme, w)
                )
                assert np.max(np.abs(M - oracle), initial=0.0) <= 1e-10 * scale, (i, op_kind)


class TestGram:
    """Each Gram product summed over shared faces is the dense product."""

    @settings(max_examples=100, deadline=None)
    @given(
        _FACETS,
        st.booleans(),
        st.sampled_from(["combinatorial", "normalized", "explicit"]),
        st.sampled_from(["none", "signing", "character", "matrix", "lift"]),
        st.integers(0, 2**32 - 1),
    )
    # facets of three dimensions with the empty face: layer -1, and a top
    # layer without cofacets
    @example([[0, 1, 2], [2, 3], [4]], True, "normalized", "lift", 0)
    @example([[0, 1, 2], [2, 3], [4]], True, "explicit", "character", 1)
    def test_every_operator_is_the_dense_product(self, facets, include_empty, scheme_kind, kind, seed):
        K = build_complex(facets, include_empty=include_empty)
        rng = np.random.default_rng(seed)
        w = _decoration(K, kind, rng)
        schemes = {"combinatorial": COMBINATORIAL, "normalized": NORMALIZED}
        scheme = schemes[scheme_kind] if scheme_kind in schemes else _explicit_scheme(K, rng)
        for i in K.dims():
            oracle = dense_decorated_coboundary(K, i, w)
            assert np.array_equal(dense_matrix(decorated_coboundary(K, i, w), oracle.shape), oracle)
            for op_kind in ("up", "down", "full"):
                if op_kind != "up" and i == K.min_dim:
                    continue
                M = laplacian_matrix(K, i, op_kind, scheme, w)
                assert np.array_equal(M, M.conj().T), (i, op_kind)
                oracle = dense_laplacian(K, i, op_kind, scheme, w)
                scale = max(1.0, float(np.max(np.abs(oracle), initial=0.0)))
                assert np.max(np.abs(M - oracle), initial=0.0) <= 1e-13 * scale, (i, op_kind)

    @pytest.mark.parametrize(
        "facets, i, kind",
        [
            # 100 hollow triangles sharing vertex 0: the down part groups by vertex
            ([[0, k] for k in range(1, 201)] + [[2 * k + 1, 2 * k + 2] for k in range(100)], 1, "full"),
            # a star with 100 leaves: the hub vertex is in every edge
            ([[0, k] for k in range(1, 101)], 1, "down"),
            # a book of 100 triangles on the edge (0, 1)
            ([[0, 1, k] for k in range(2, 102)], 2, "down"),
        ],
        ids=["bouquet", "star", "book"],
    )
    def test_a_hub_face_costs_only_its_own_pairs(self, facets, i, kind):
        """A face shared by s cofacets adds s² products; the other groups
        are not widened to its size, so the peak memory stays a small
        multiple of the operator itself."""
        K = build_complex(facets)
        tracemalloc.start()
        try:
            M = laplacian_matrix(K, i, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * M.nbytes
        assert np.array_equal(M, dense_laplacian(K, i, kind))

    @pytest.mark.parametrize("i, kind, complex_values, n", [(1, "up", False, 3), (2, "down", False, 1), (1, "up", True, 3)])
    def test_an_operator_too_large_to_allocate_is_refused(self, monkeypatch, i, kind, complex_values, n):
        K = build_complex([[0, 1, 2]])
        w = IncidenceWeighting(K, {1: np.full(3, 1j)}) if complex_values else None
        bincount = np.bincount

        def no_room(x, weights=None, minlength=0):
            # a count into a fixed length is the dense n x n array
            if minlength:
                raise MemoryError
            return bincount(x, weights)

        monkeypatch.setattr(np, "bincount", no_room)
        with pytest.raises(LiftlapError, match=f"the dense {kind} operator of {n} x {n} entries does not fit in memory"):
            laplacian_matrix(K, i, kind, decoration=w)


class TestSpectrum:
    def test_empty_operator(self):
        assert spectrum(np.zeros((0, 0))).values == ()

    def test_values_sorted_and_clamped(self, triangle):
        s = spectrum(laplacian_matrix(triangle, 0, "full", NORMALIZED))
        assert list(s.values) == sorted(s.values)
        assert all(v >= 0 for v in s.values)

    def test_kernel_noise_is_clamped_to_zero(self, triangle):
        w = incidence_weighting(triangle, {((0, 1), (0, 1, 2)): -0.5 + 0.8j, ((0,), (0, 2)): 1j})
        s = spectrum(laplacian_matrix(triangle, 1, "up", decoration=w))
        assert s.values[:2] == (0.0, 0.0)
        assert s.values[2] == pytest.approx(2.89)
        assert s.clamped == 2


class TestCompareSpectra:
    def test_equal(self):
        a = SpectrumMultiset((0, 3, 3))
        assert compare_spectra(a, SpectrumMultiset((0, 3, 3))).holds

    def test_cycle_subset(self):
        # C3 spectrum sits inside the C6 spectrum
        a = SpectrumMultiset(cycle_laplacian_values(3))
        b = SpectrumMultiset(cycle_laplacian_values(6))
        assert compare_spectra(a, b, "subset").holds
        assert not compare_spectra(b, a, "subset").holds

    def test_subset_witness_is_the_first_unmatched_value_of_a(self):
        rep = compare_spectra(SpectrumMultiset((0.0, 1.0, 5.0, 7.0)), SpectrumMultiset((0.0, 1.0, 2.0)), "subset")
        assert (rep.holds, rep.max_pairing_error, rep.witness) == (False, float("inf"), 5.0)

    def test_subset_reports_the_largest_matched_gap(self):
        a = SpectrumMultiset((1.0, 2.0))
        rep = compare_spectra(a, SpectrumMultiset((0.5, 1.0 + 4e-9, 2.0 + 1e-9, 9.0)), "subset")
        assert rep.holds and rep.witness is None
        assert rep.max_pairing_error == abs(1.0 - (1.0 + 4e-9))
        assert type(rep.max_pairing_error) is float

    def test_subset_skips_smaller_values_of_b_that_are_not_close(self):
        rep = compare_spectra(SpectrumMultiset((2.0, 3.0)), SpectrumMultiset((0.0, 1.0, 2.0, 2.5, 3.0)), "subset")
        assert (rep.holds, rep.max_pairing_error, rep.witness) == (True, 0.0, None)

    def test_subset_with_zero_tolerance_is_exact(self):
        a = SpectrumMultiset((1.0,))
        assert compare_spectra(a, SpectrumMultiset((0.0, 1.0)), "subset", tol=0).holds
        rep = compare_spectra(a, SpectrumMultiset((np.nextafter(1.0, 2.0),)), "subset", tol=0)
        assert (rep.holds, rep.witness) == (False, 1.0)
        assert compare_spectra(a, SpectrumMultiset((np.nextafter(1.0, 2.0),)), "subset").holds

    def test_empty_subset_holds(self):
        for b in (SpectrumMultiset(), SpectrumMultiset((1.0, 2.0))):
            rep = compare_spectra(SpectrumMultiset(), b, "subset")
            assert (rep.holds, rep.max_pairing_error, rep.witness) == (True, 0.0, None)

    def test_subset_needs_the_multiplicity(self):
        rep = compare_spectra(SpectrumMultiset((1.0, 1.0)), SpectrumMultiset((0.0, 1.0, 2.0)), "subset")
        assert (rep.holds, rep.witness) == (False, 1.0)
        assert compare_spectra(SpectrumMultiset((1.0, 1.0)), SpectrumMultiset((1.0, 1.0 + 1e-12)), "subset").holds

    def test_union(self):
        a = SpectrumMultiset((0, 1, 1, 3, 3, 4))
        b = SpectrumMultiset((0, 3, 3))
        c = SpectrumMultiset((1, 1, 4))
        assert compare_spectra(a, SpectrumMultiset(b.values + c.values)).holds
        assert not compare_spectra(a, b).holds

    def test_failure_reports_witness(self):
        a = SpectrumMultiset((0.0, 2.0))
        rep = compare_spectra(a, SpectrumMultiset((0.0, 2.5)))
        assert not rep.holds
        assert rep.witness == 2.0

    def test_equal_reports_the_first_unmatched_pair_and_the_worst_matched_error(self):
        rep = compare_spectra(SpectrumMultiset((0.0, 2.0, 3.0)), SpectrumMultiset((0.0, 2.5, 4.0)))
        assert (rep.holds, rep.max_pairing_error, rep.witness) == (False, 0.5, 2.0)
        rep = compare_spectra(SpectrumMultiset((0.0, 1.0)), SpectrumMultiset((0.0, 1.0, 5.0)))
        assert (rep.holds, rep.max_pairing_error, rep.witness) == (False, float("inf"), 5.0)
        rep = compare_spectra(SpectrumMultiset((1.0, 2.0)), SpectrumMultiset((1.0 + 4e-9, 2.0 + 1e-9)))
        assert rep.holds and rep.max_pairing_error == abs(1.0 - (1.0 + 4e-9))
        assert type(rep.max_pairing_error) is float
        empty = compare_spectra(SpectrumMultiset(), SpectrumMultiset())
        assert (empty.holds, empty.max_pairing_error) == (True, 0.0)

    def test_tolerance_blend(self):
        a = SpectrumMultiset((1e6,))
        b = SpectrumMultiset((1e6 + 0.001,))
        assert compare_spectra(a, b, tol=1e-8).holds
        assert not compare_spectra(SpectrumMultiset((0.0,)), SpectrumMultiset((0.001,)), tol=1e-8).holds


class TestDecorations:
    def test_dtype_follows_the_values(self, triangle):
        signing = incidence_weighting(triangle, {((0, 1), (0, 1, 2)): -1})
        D = decorated_coboundary(triangle, 1, signing)
        assert D[2].dtype == np.float64 and dense_matrix(D, (1, 3)).tolist() == [[-1.0, -1.0, 1.0]]
        # the float coboundary gives the Laplacian of the int one, bit for bit
        signed_int = coboundary_matrix(triangle, 1) * np.array([-1, 1, 1])
        op = laplacian_matrix(triangle, 1, "full", decoration=signing)
        down = laplacian_matrix(triangle, 1, "down")
        assert np.array_equal(op, signed_int.T @ signed_int + down)
        w = incidence_weighting(triangle, {((0, 1), (0, 1, 2)): 1j})
        D = decorated_coboundary(triangle, 1, w)
        assert D[2].dtype == np.complex128 and dense_matrix(D, (1, 3)).tolist() == [[1j, -1, 1]]

    def test_dtype_is_the_values_dtype_not_their_imaginary_parts(self, triangle):
        # a complex value stays complex though its imaginary part is zero, so
        # a block's dtype follows its transform, not the rounding of its values
        a, b = ((0, 1), (0, 1, 2)), ((0, 2), (0, 1, 2))
        w = incidence_weighting(triangle, {a: -1 + 0j, b: np.array([[2 + 0j]])})
        assert w.dtype == np.complex128 and w.layers[1].dtype == np.complex128
        assert w.layers[1].tolist() == [-1.0, 2.0, 1.0]
        assert decorated_coboundary(triangle, 1, w)[2].dtype == np.complex128
        block = incidence_weighting(triangle, {a: np.array([[0, 1], [1, 0]], dtype=complex)})
        assert block.dtype == np.complex128 and block.layers[1].dtype == np.complex128
        real = incidence_weighting(triangle, {a: -1.0, b: np.array([[2.0]])})
        assert real.dtype == np.float64 and decorated_coboundary(triangle, 1, real)[2].dtype == np.float64
        # one complex layer makes the weighting complex, and a layer keeps its own dtype
        mixed = IncidenceWeighting(triangle, {0: [1j] + [1.0] * 5, 1: [-1.0, 1.0, 1.0]})
        assert mixed.layers[1].dtype == np.float64 and mixed.dtype == np.complex128
        assert decorated_coboundary(triangle, 1, mixed)[2].dtype == np.complex128

    def test_weighting_rejects_zero(self):
        K = build_complex([(0, 1)])
        with pytest.raises(WeightError, match=r"\(\[0\], \[0, 1\]\) must be nonzero"):
            incidence_weighting(K, {((0,), (0, 1)): 0})
        with pytest.raises(WeightError, match="incidence weight 1 of layer 0 must be nonzero"):
            IncidenceWeighting(K, {0: [2.0, 0.0]})

    def test_matrix_weighting_needs_square_values_of_one_size(self):
        K = build_complex([(0, 1)])
        a, b = ((0,), (0, 1)), ((1,), (0, 1))
        for values in (
            {a: np.eye(2), b: np.eye(3)},
            {a: np.eye(2), b: -1.0},
            {a: np.ones((2, 3))},
            {a: np.ones(2)},
            {a: np.zeros((2, 2))},
        ):
            with pytest.raises(WeightError):
                incidence_weighting(K, values)
        for layers in ({0: np.ones((2, 2))}, {0: np.ones((2, 2, 3))}, {0: np.ones((2, 2, 2)), -1: np.ones(2)}):
            with pytest.raises(WeightError):
                IncidenceWeighting(K, layers)

    def test_matrix_weighting_values(self):
        K = build_complex([(0, 1)])
        a = ((0,), (0, 1))
        w = incidence_weighting(K, {a: [[0, 1], [1, 0]]})
        assert w.block_size == 2 and w.dtype == np.float64 and list(w.layers) == [0]
        # the unlisted incidence ((1,), (0, 1)) carries the identity
        assert np.array_equal(w.layers[0], [[[0.0, 1.0], [1.0, 0.0]], np.eye(2)])
        # a 1 x 1 matrix is its scalar
        assert incidence_weighting(K, {a: [[1j]]}).layers[0].tolist() == [1j, 1]
        assert IncidenceWeighting(K, {0: np.full((2, 1, 1), 3.0)}).layers[0].tolist() == [3.0, 3.0]

    def test_pairs_are_located_in_coboundary_order(self, triangle):
        values = {((1, 2), (0, 1, 2)): 2.0, ((0,), (0, 2)): 3.0, ((), (1,)): 4.0, ((0, 2), (0, 1, 2)): 5.0}
        w = incidence_weighting(triangle, values)
        assert sorted(w.layers) == [-1, 0, 1]
        for i, layer in w.layers.items():
            table = pair_table(triangle, i, layer)
            assert {pair: table[pair] for pair in values if pair in table} == {
                pair: v for pair, v in values.items() if len(pair[0]) == i + 1
            }
            assert sum(v != 1 for v in table.values()) == sum(len(f) == i + 1 for f, _ in values)

    @pytest.mark.parametrize(
        "pair",
        [((0, 1), (0, 1, 3)), ((0,), (0, 1, 2)), ((1, 0), (0, 1, 2)), ((2,), (0, 1)), ((), (7,)), (("a",), (0, 1))],
    )
    def test_a_pair_that_is_not_an_incidence_is_refused_by_name(self, triangle, pair):
        values = {((0,), (0, 1)): -1.0, pair: -1.0}
        f, c = pair
        with pytest.raises(WeightError, match=re.escape(f"({list(f)}, {list(c)}) is not a (face, cofacet) incidence")):
            incidence_weighting(triangle, values)

    def test_a_weighting_of_another_complex_is_refused(self, triangle, hollow_triangle):
        signing = incidence_weighting(triangle, {((0, 1), (0, 1, 2)): -1.0})
        # the same counts: the flip would land on ((3, 4), (3, 4, 5))
        for K in (hollow_triangle, build_complex([(3, 4, 5)])):
            for i in (0, 1):
                with pytest.raises(WeightError, match="built for another complex"):
                    decorated_coboundary(K, i, signing)
        # an equal complex built again has the same incidences
        again = build_complex([(0, 1, 2)])
        assert np.array_equal(decorated_coboundary(again, 1, signing)[2], decorated_coboundary(triangle, 1, signing)[2])

    def test_a_layer_of_the_wrong_length_is_refused(self, triangle):
        with pytest.raises(WeightError, match="layer 1 has 2 weights for its 3 incidences"):
            IncidenceWeighting(triangle, {1: [-1.0, 1.0]})

    def test_unit_modulus_weighting_keeps_trace(self):
        C3 = cycle_complex(3)
        w = incidence_weighting(C3, {((0,), (0, 1)): np.exp(2j * np.pi / 3), ((1,), (1, 2)): -1.0})
        plain = laplacian_matrix(C3, 0, "up")
        weighted = laplacian_matrix(C3, 0, "up", decoration=w)
        assert np.allclose(np.diag(weighted), np.diag(plain))
        s = spectrum(weighted)
        assert all(v >= 0 for v in s.values)
