import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randgen import random_complex

from liftlap import (
    COMBINATORIAL,
    NORMALIZED,
    DimensionError,
    MalformedInputError,
    WeightError,
    WeightScheme,
    boundary_faces,
    as_face,
    build_complex,
    coboundary_matrix,
    compute_weights,
    face_coboundary,
    relative_orientation_sign,
)


class TestBuildComplex:
    def test_full_triangle_closure(self):
        K = build_complex([{0, 1, 2}])
        assert K.face_count(0) == 3
        assert K.face_count(1) == 3
        assert K.face_count(2) == 1
        assert K.face_count(-1) == 1

    def test_hollow_triangle_has_no_two_faces(self):
        K = build_complex([{0, 1}, {1, 2}, {0, 2}])
        assert K.face_count(1) == 3
        assert K.face_count(2) == 0
        assert K.top_dim == 1

    def test_mixed_dimensions(self):
        # closure oracle by hand: subsets of {0,1,2} plus the edge {2,3}
        K = build_complex([{0, 1, 2}, {2, 3}])
        assert K.top_dim == 2
        assert K.faces(1) == ((0, 1), (0, 2), (1, 2), (2, 3))
        assert K.faces(0) == ((0,), (1,), (2,), (3,))

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(MalformedInputError):
            build_complex([[0, 1, 1]])

    def test_empty_inputs_rejected(self):
        with pytest.raises(MalformedInputError):
            build_complex([])
        with pytest.raises(MalformedInputError):
            build_complex([[]])

    def test_non_list_facet_rejected(self):
        with pytest.raises(MalformedInputError, match="face 0 is not a list"):
            build_complex([0, 1, 2])

    def test_negative_vertex_rejected(self):
        with pytest.raises(MalformedInputError):
            build_complex([[-1, 2]])

    def test_idempotent_rebuild(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            K = random_complex(rng)
            again = build_complex(K.facets(), include_empty=K.include_empty)
            assert again == K

    def test_vertices_need_not_be_contiguous(self):
        K = build_complex([{10, 20}, {20, 105}])
        assert K.vertices == (10, 20, 105)
        assert K.connected

    def test_connectivity_cached(self):
        assert build_complex([{0, 1}, {2, 3}]).connected is False
        assert build_complex([{0, 1}, {1, 3}]).connected is True


_FACETS = st.lists(
    st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True), min_size=1, max_size=6
)


class TestClosureProperty:
    @settings(max_examples=200, deadline=None)
    @given(_FACETS, st.booleans())
    def test_closed_canonical_and_sorted(self, facets, include_empty):
        K = build_complex(facets, include_empty=include_empty)
        assert K.faces(-1) == (((),) if include_empty else ())
        spans = [set(f) for f in facets]
        for d in K.dims():
            fs = K.faces(d)
            assert list(fs) == sorted(set(fs))
            for f in fs:
                assert as_face(f) == f and len(f) == d + 1
                assert any(set(f) <= span for span in spans)
                if d >= 1 or include_empty:
                    assert all(K.has_face(f[:j] + f[j + 1 :]) for j in range(len(f)))
        for facet in facets:
            assert K.has_face(as_face(facet))


class TestBoundary:
    def test_triangle_boundary_signs(self):
        out = boundary_faces((0, 1, 2))
        assert out == [((1, 2), 1), ((0, 2), -1), ((0, 1), 1)]

    def test_vertex_boundary_is_empty_face(self):
        assert boundary_faces((5,)) == [((), 1)]

    def test_tetrahedron_alternating_signs(self):
        out = boundary_faces((0, 1, 2, 3))
        assert out == [
            ((1, 2, 3), 1),
            ((0, 2, 3), -1),
            ((0, 1, 3), 1),
            ((0, 1, 2), -1),
        ]

    def test_empty_face_has_no_boundary(self):
        with pytest.raises(DimensionError):
            boundary_faces(())


class TestCoboundaryMatrix:
    def test_full_triangle_top_row(self, triangle):
        D = coboundary_matrix(triangle, 1)
        assert D.tolist() == [[1, -1, 1]]

    def test_hollow_triangle_at_top_dim(self, hollow_triangle):
        D = coboundary_matrix(hollow_triangle, 1)
        assert D.shape == (0, 3)

    def test_degree_minus_one_is_all_ones(self, triangle):
        D = coboundary_matrix(triangle, -1)
        assert D.shape == (3, 1)
        assert D.tolist() == [[1], [1], [1]]

    def test_out_of_range(self, triangle):
        with pytest.raises(DimensionError):
            coboundary_matrix(triangle, 3)
        with pytest.raises(DimensionError):
            coboundary_matrix(triangle, -2)
        K = build_complex([{0, 1}], include_empty=False)
        with pytest.raises(DimensionError):
            coboundary_matrix(K, -1)

    def test_composition_vanishes_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            K = random_complex(rng)
            for i in range(K.min_dim, K.top_dim):
                prod = coboundary_matrix(K, i + 1) @ coboundary_matrix(K, i)
                assert not prod.any()

    def test_nonzero_counts(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            K = random_complex(rng)
            for i in range(0, K.top_dim + 1):
                D = coboundary_matrix(K, i - 1)
                # each row of |D_{i-1}| has one nonzero per boundary face
                assert (np.abs(D) != 0).sum(axis=1).tolist() == [i + 1] * K.face_count(i)
            for i in range(K.min_dim, K.top_dim):
                D = coboundary_matrix(K, i)
                cols = (np.abs(D) != 0).sum(axis=0)
                expected = [len(K.cofacets(f)) for f in K.faces(i)]
                assert cols.tolist() == expected

    def test_face_lists_agree_with_boundary_faces(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            K = random_complex(rng)
            for i in range(K.min_dim, K.top_dim):
                D = face_coboundary(K.faces(i + 1), K.faces(i))
                assert np.array_equal(D, coboundary_matrix(K, i))
                for r, fbar in enumerate(K.faces(i + 1)):
                    for f, sgn in boundary_faces(fbar):
                        assert D[r, K.index(f)] == sgn


class TestWeights:
    def test_combinatorial_all_ones(self, triangle):
        assert set(compute_weights(triangle, COMBINATORIAL).values()) == {1.0}

    def test_normalized_full_triangle(self, triangle):
        w = compute_weights(triangle, NORMALIZED)
        assert w[(0, 1, 2)] == 1.0
        assert all(w[e] == 1.0 for e in triangle.faces(1))
        assert all(w[v] == 2.0 for v in triangle.faces(0))
        assert w[()] == 6.0

    def test_normalized_hollow_triangle(self, hollow_triangle):
        w = compute_weights(hollow_triangle, NORMALIZED)
        assert all(w[e] == 1.0 for e in hollow_triangle.faces(1))
        assert all(w[v] == 2.0 for v in hollow_triangle.faces(0))
        assert w[()] == 6.0

    def test_normalized_recursion_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            K = random_complex(rng)
            w = compute_weights(K, NORMALIZED)
            for f in K.all_faces():
                cof = K.cofacets(f)
                if cof:
                    assert w[f] - sum(w[c] for c in cof) == 0.0

    def test_explicit_requires_coverage_and_positivity(self, hollow_triangle):
        partial = WeightScheme.explicit({(0, 1): 1.0})
        with pytest.raises(WeightError):
            compute_weights(hollow_triangle, partial)
        faces = list(hollow_triangle.all_faces())
        bad = WeightScheme.explicit({f: (-1.0 if f == (0, 1) else 1.0) for f in faces})
        with pytest.raises(WeightError):
            compute_weights(hollow_triangle, bad)

    @pytest.mark.parametrize(
        "extra, message",
        [({(7, 8): 1.0}, "weights (7, 8), which is not a face"), ({(0, 1): float("nan")}, "finite and positive")],
        ids=["non-face", "nan"],
    )
    def test_explicit_refuses_non_faces_and_non_finite_weights(self, hollow_triangle, extra, message):
        scheme = WeightScheme.explicit({**{f: 1.0 for f in hollow_triangle.all_faces()}, **extra})
        with pytest.raises(WeightError, match=re.escape(message)):
            compute_weights(hollow_triangle, scheme)


class TestRelativeOrientationSign:
    def test_increasing_image(self):
        assert relative_orientation_sign((0, 1, 2), (4, 7, 9)) == 1

    def test_single_transposition(self):
        assert relative_orientation_sign((0, 1), (9, 4)) == -1

    def test_three_cycle_is_even(self):
        assert relative_orientation_sign((0, 1, 2), (7, 9, 4)) == 1

    def test_repeated_image_rejected(self):
        with pytest.raises(MalformedInputError):
            relative_orientation_sign((0, 1), (3, 3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(MalformedInputError):
            relative_orientation_sign((0, 1, 2), (3, 4))
