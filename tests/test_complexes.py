import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    boundary_faces,
    coboundary_matrix,
    cofacet_table,
    dense_matrix,
    face_coboundary,
    face_positions,
    face_weights,
    relative_orientation_sign,
)
from randgen import random_complex

from liftlap import (
    COMBINATORIAL,
    NORMALIZED,
    DimensionError,
    MalformedInputError,
    WeightError,
    WeightScheme,
    as_face,
    build_complex,
    coboundary,
    compute_weights,
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
            coboundary(triangle, 3)
        with pytest.raises(DimensionError):
            coboundary(triangle, -2)
        K = build_complex([{0, 1}], include_empty=False)
        with pytest.raises(DimensionError):
            coboundary(K, -1)

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
                triplets = face_coboundary(K.faces(i + 1), K.faces(i))
                assert all(a.dtype == np.int64 for a in triplets)
                D = coboundary_matrix(K, i)
                assert np.array_equal(dense_matrix(triplets, D.shape), D)
                # row by row in row order, each row's boundary faces sorted
                expected = [
                    (r, K.index(f), sgn)
                    for r, fbar in enumerate(K.faces(i + 1))
                    for f, sgn in sorted(boundary_faces(fbar))
                ]
                assert list(zip(*(a.tolist() for a in triplets))) == expected


class TestWeights:
    def test_combinatorial_all_ones(self, triangle):
        w = compute_weights(triangle, COMBINATORIAL)
        assert list(w) == list(triangle.dims())
        assert set(np.concatenate(list(w.values())).tolist()) == {1.0}

    def test_normalized_full_triangle(self, triangle):
        w = compute_weights(triangle, NORMALIZED)
        assert w[2].tolist() == [1.0]
        assert w[1].tolist() == [1.0] * 3
        assert w[0].tolist() == [2.0] * 3
        assert w[-1].tolist() == [6.0]

    def test_normalized_hollow_triangle(self, hollow_triangle):
        w = compute_weights(hollow_triangle, NORMALIZED)
        assert w[1].tolist() == [1.0] * 3
        assert w[0].tolist() == [2.0] * 3
        assert w[-1].tolist() == [6.0]

    def test_normalized_recursion_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            K = random_complex(rng)
            w = compute_weights(K, NORMALIZED)
            for d in K.dims():
                assert w[d].dtype == np.float64 and w[d].shape == (K.face_count(d),)
                for r, f in enumerate(K.faces(d)):
                    cof = K.cofacets(f)
                    if cof:
                        assert w[d][r] - sum(w[d + 1][K.index(c)] for c in cof) == 0.0

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

    @pytest.mark.parametrize("image", [0.9, True])
    def test_images_are_not_coerced(self, image):
        with pytest.raises(MalformedInputError, match="not a non-negative integer"):
            relative_orientation_sign((0, 1), (image, 3))
        assert relative_orientation_sign((0, 1), np.array([9, 4])) == -1


_SEEDS = st.integers(0, 2**32 - 1)
_PROBES = st.lists(st.lists(st.integers(0, 9), max_size=5).map(tuple), max_size=30)
_MUTATIONS = st.lists(st.sampled_from(["drop", "non-face", "nan", "negative", "zero", "inf"]), max_size=3)


def _face_dict_outcome(K, weights):
    """A weight function's result on ``K`` as a face-keyed dict, or its
    WeightError message."""
    try:
        w = weights()
    except WeightError as exc:
        return str(exc)
    if isinstance(next(iter(w.values())), np.ndarray):
        assert all(w[d].dtype == np.float64 and w[d].shape == (K.face_count(d),) for d in K.dims())
        return {f: w[d][r] for d in K.dims() for r, f in enumerate(K.faces(d))}
    return w


class TestFaceArraysAgainstPerFaceOracles:
    @settings(max_examples=60, deadline=None)
    @given(_SEEDS, st.booleans())
    def test_coboundary_is_the_per_face_coboundary_byte_for_byte(self, seed, include_empty):
        K = build_complex(random_complex(np.random.default_rng(seed)).facets(), include_empty=include_empty)
        for i in K.dims():
            got, want = coboundary(K, i), face_coboundary(K.faces(i + 1), K.faces(i))
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == np.int64 and a.tobytes() == b.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(_SEEDS, st.booleans(), _PROBES)
    def test_index_has_face_and_cofacets_agree_with_the_face_lists(self, seed, include_empty, probes):
        K = build_complex(random_complex(np.random.default_rng(seed)).facets(), include_empty=include_empty)
        position, cofacets = face_positions(K), cofacet_table(K)
        # the raw probes are often unsorted or repeat a vertex; sorted, often faces
        for face in [()] + probes + [tuple(sorted(set(p))) for p in probes] + list(position):
            assert K.has_face(face) is (face in position)
            if face in position:
                assert K.index(face) == K.index(list(face)) == position[face]
                assert K.cofacets(face) == cofacets[face]
            else:
                for lookup in (K.index, K.cofacets):
                    with pytest.raises(MalformedInputError, match="is not a face of the complex"):
                        lookup(face)

    @settings(max_examples=60, deadline=None)
    @given(_SEEDS, st.booleans())
    def test_normalized_weights_are_the_per_face_recursion_bitwise(self, seed, include_empty):
        K = build_complex(random_complex(np.random.default_rng(seed)).facets(), include_empty=include_empty)
        w, ref = compute_weights(K, NORMALIZED), face_weights(K, NORMALIZED)
        for d in K.dims():
            assert w[d].tobytes() == np.array([ref[f] for f in K.faces(d)]).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(_SEEDS, st.booleans(), _MUTATIONS)
    def test_explicit_weights_raise_what_the_per_face_check_raises(self, seed, include_empty, mutations):
        rng = np.random.default_rng(seed)
        K = build_complex(random_complex(rng).facets(), include_empty=include_empty)
        faces = list(K.all_faces())
        table = {f: float(rng.uniform(0.1, 10.0)) for f in faces}
        for mutation in mutations:
            f = faces[int(rng.integers(len(faces)))]
            if mutation == "drop":
                table.pop(f, None)
            elif mutation == "non-face":
                extra = tuple(sorted({int(v) for v in rng.integers(0, 12, int(rng.integers(0, 4)))}))
                if not K.has_face(extra):
                    table[extra] = 1.0
            else:
                table[f] = {"nan": float("nan"), "negative": -1.0, "zero": 0.0, "inf": float("inf")}[mutation]
        scheme = WeightScheme.explicit(table)
        got = _face_dict_outcome(K, lambda: compute_weights(K, scheme))
        assert got == _face_dict_outcome(K, lambda: face_weights(K, scheme))
