import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cycle_complex, cycle_laplacian_values
from randgen import random_complex

from liftlap import (
    COMBINATORIAL,
    NORMALIZED,
    DimensionError,
    IncidenceWeighting,
    OperatorMatrix,
    SpectrumMultiset,
    WeightError,
    WeightScheme,
    build_complex,
    compare_spectra,
    coboundary_matrix,
    compute_weights,
    decorated_coboundary,
    laplacian_matrix,
    layer_spectra,
    spectrum,
    symmetrized_form,
)


class TestLaplacianMatrix:
    def test_triangle_edge_up(self, triangle):
        op = laplacian_matrix(triangle, 1, "up")
        D = np.array([[1, -1, 1]])
        assert np.array_equal(op.matrix, D.T @ D)
        assert sorted(np.round(spectrum(op).values, 9)) == [0.0, 0.0, 3.0]

    def test_cycle_vertex_up_matches_closed_form(self):
        C3 = cycle_complex(3)
        vals = spectrum(laplacian_matrix(C3, 0, "up")).values
        assert np.allclose(vals, cycle_laplacian_values(3))

    def test_all_plus_signing_is_plain(self):
        rng = np.random.default_rng(5)
        K = random_complex(rng)
        plain = laplacian_matrix(K, 0, "up")
        signed = laplacian_matrix(K, 0, "up", decoration=IncidenceWeighting())
        assert np.array_equal(plain.matrix, signed.matrix)

    def test_full_is_up_plus_down(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            K = random_complex(rng)
            for i in range(0, K.top_dim + 1):
                up = laplacian_matrix(K, i, "up").matrix
                down = laplacian_matrix(K, i, "down").matrix
                full = laplacian_matrix(K, i, "full").matrix
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
        assert op.size == 3
        assert not op.matrix.any()

    def test_trace_matches_cofacet_weight_sums(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            K = random_complex(rng)
            for scheme in (COMBINATORIAL, NORMALIZED):
                w = compute_weights(K, scheme)
                for i in range(0, K.top_dim + 1):
                    op = laplacian_matrix(K, i, "up", scheme)
                    expected = sum(
                        w[c] / w[f] for f in K.faces(i) for c in K.cofacets(f)
                    )
                    assert abs(np.trace(op.matrix) - expected) <= 1e-10

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
    a complex character weighting or a 2 x 2 matrix weighting."""
    pairs = [(f, c) for d in K.dims() for f in K.faces(d) for c in K.cofacets(f)]
    picked = [p for p in pairs if rng.random() < 0.5]
    if kind == "none":
        return None
    if kind == "signing":
        return IncidenceWeighting({p: -1.0 for p in picked})
    if kind == "character":
        return IncidenceWeighting({p: np.exp(2j * np.pi * rng.integers(1, 5) / 5) for p in picked})
    # every incidence carries a matrix, so d = 2 on every layer, the top one included
    return IncidenceWeighting({p: rng.normal(size=(2, 2)) for p in pairs})


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


class TestSymmetrizedForm:
    def test_identity_weights_are_a_no_op(self, triangle):
        op = laplacian_matrix(triangle, 1, "up")
        assert np.array_equal(symmetrized_form(op.matrix, op.weights), op.matrix)

    def test_normalized_form_is_hermitian(self, triangle):
        op = laplacian_matrix(triangle, 0, "up", NORMALIZED)
        sym = symmetrized_form(op.matrix, op.weights)
        assert np.max(np.abs(sym - sym.T)) < 1e-12

    def test_spectrum_matches_general_eigensolve(self):
        rng = np.random.default_rng(9)
        C3 = cycle_complex(3)
        faces = list(C3.all_faces())
        weights = WeightScheme.explicit({f: float(rng.uniform(0.5, 3.0)) for f in faces})
        for i in (0, 1):
            op = laplacian_matrix(C3, i, "full", weights)
            ours = spectrum(op).values
            oracle = sorted(np.linalg.eigvals(op.matrix).real)
            assert np.allclose(ours, oracle, atol=1e-10)


class TestSpectrum:
    def test_empty_operator(self):
        op = OperatorMatrix(np.zeros((0, 0)), np.zeros(0))
        assert spectrum(op).values == ()

    def test_values_sorted_and_clamped(self, triangle):
        s = spectrum(laplacian_matrix(triangle, 0, "full", NORMALIZED))
        assert list(s.values) == sorted(s.values)
        assert all(v >= 0 for v in s.values)

    def test_kernel_noise_is_clamped_to_zero(self, triangle):
        w = IncidenceWeighting({((0, 1), (0, 1, 2)): -0.5 + 0.8j, ((0,), (0, 2)): 1j})
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

    def test_union(self):
        a = SpectrumMultiset((0, 1, 1, 3, 3, 4))
        b = SpectrumMultiset((0, 3, 3))
        c = SpectrumMultiset((1, 1, 4))
        assert compare_spectra(a, b.union(c)).holds
        assert not compare_spectra(a, b).holds

    def test_failure_reports_witness(self):
        a = SpectrumMultiset((0.0, 2.0))
        rep = compare_spectra(a, SpectrumMultiset((0.0, 2.5)))
        assert not rep.holds
        assert rep.witness == 2.0

    def test_tolerance_blend(self):
        a = SpectrumMultiset((1e6,))
        b = SpectrumMultiset((1e6 + 0.001,))
        assert compare_spectra(a, b, tol=1e-8).holds
        assert not compare_spectra(SpectrumMultiset((0.0,)), SpectrumMultiset((0.001,)), tol=1e-8).holds


class TestDecorations:
    def test_dtype_follows_the_values(self, triangle):
        signing = IncidenceWeighting({((0, 1), (0, 1, 2)): -1})
        D = decorated_coboundary(triangle, 1, signing)
        assert D.dtype == np.float64 and D.tolist() == [[-1.0, -1.0, 1.0]]
        # the float coboundary gives the Laplacian of the int one, bit for bit
        signed_int = coboundary_matrix(triangle, 1) * np.array([-1, 1, 1])
        op = laplacian_matrix(triangle, 1, "full", decoration=signing)
        down = laplacian_matrix(triangle, 1, "down").matrix
        assert np.array_equal(op.matrix, signed_int.T @ signed_int + down)
        w = IncidenceWeighting({((0, 1), (0, 1, 2)): 1j})
        D = decorated_coboundary(triangle, 1, w)
        assert D.dtype == np.complex128 and D.tolist() == [[1j, -1, 1]]

    def test_weighting_rejects_zero(self):
        with pytest.raises(Exception):
            IncidenceWeighting({((0,), (0, 1)): 0})

    def test_matrix_weighting_needs_square_values_of_one_size(self):
        a, b = ((0,), (0, 1)), ((1,), (0, 1))
        for values in (
            {a: np.eye(2), b: np.eye(3)},
            {a: np.eye(2), b: -1.0},
            {a: np.ones((2, 3))},
            {a: np.ones(2)},
            {a: np.zeros((2, 2))},
        ):
            with pytest.raises(WeightError):
                IncidenceWeighting(values)

    def test_matrix_weighting_values_and_equality(self):
        a, b = ((0,), (0, 1)), ((1,), (0, 1))
        w = IncidenceWeighting({a: [[0, 1], [1, 0]]})
        assert w.block_size == 2 and w.dtype == np.float64
        assert np.array_equal(w.value(*b), np.eye(2))
        assert w == IncidenceWeighting({a: np.array([[0.0, 1.0], [1.0, 0.0]])})
        assert w != IncidenceWeighting({a: np.eye(2)})
        assert w != IncidenceWeighting({a: -1.0})
        # a 1 x 1 matrix is its scalar
        assert IncidenceWeighting({a: [[1j]]}) == IncidenceWeighting({a: 1j})

    def test_unit_modulus_weighting_keeps_trace(self):
        C3 = cycle_complex(3)
        w = IncidenceWeighting(
            {((0,), (0, 1)): np.exp(2j * np.pi / 3), ((1,), (1, 2)): -1.0}
        )
        plain = laplacian_matrix(C3, 0, "up")
        weighted = laplacian_matrix(C3, 0, "up", decoration=w)
        assert np.allclose(np.diag(weighted.matrix), np.diag(plain.matrix))
        s = spectrum(weighted)
        assert all(v >= 0 for v in s.values)
