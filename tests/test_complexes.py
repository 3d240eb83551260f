import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    boundary_faces,
    closure_faces,
    coboundary_matrix,
    cofacet_table,
    dense_matrix,
    face_coboundary,
    face_positions,
    face_weights,
    relative_orientation_sign,
    union_find_components,
    unique_rows,
    vertex_ids,
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
    decorated_coboundary,
)
from liftlap.complexes import MAX_ID, _ids, _unique_rows


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
        assert vertex_ids(K) == (10, 20, 105)
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
        spans, position = [set(f) for f in facets], face_positions(K)
        for d in K.dims():
            fs = K.faces(d)
            assert list(fs) == sorted(set(fs))
            for f in fs:
                assert as_face(f) == f and len(f) == d + 1
                assert any(set(f) <= span for span in spans)
                if d >= 1 or include_empty:
                    assert all(f[:j] + f[j + 1 :] in position for j in range(len(f)))
        for facet in facets:
            assert as_face(facet) in position


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
                expected = [len(cofacet_table(K)[f]) for f in K.faces(i)]
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
                position = face_positions(K)
                expected = [
                    (r, position[f], sgn)
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
            w, cofacets, position = compute_weights(K, NORMALIZED), cofacet_table(K), face_positions(K)
            for d in K.dims():
                assert w[d].dtype == np.float64 and w[d].shape == (K.face_count(d),)
                for r, f in enumerate(K.faces(d)):
                    cof = cofacets[f]
                    if cof:
                        assert w[d][r] - sum(w[d + 1][position[c]] for c in cof) == 0.0

    def test_explicit_requires_coverage_and_positivity(self, hollow_triangle):
        partial = WeightScheme.explicit({(0, 1): 1.0})
        with pytest.raises(WeightError):
            compute_weights(hollow_triangle, partial)
        faces = list(face_positions(hollow_triangle))
        bad = WeightScheme.explicit({f: (-1.0 if f == (0, 1) else 1.0) for f in faces})
        with pytest.raises(WeightError):
            compute_weights(hollow_triangle, bad)

    @pytest.mark.parametrize(
        "extra, message",
        [({(7, 8): 1.0}, "weights (7, 8), which is not a face"), ({(0, 1): float("nan")}, "finite and positive")],
        ids=["non-face", "nan"],
    )
    def test_explicit_refuses_non_faces_and_non_finite_weights(self, hollow_triangle, extra, message):
        scheme = WeightScheme.explicit({**{f: 1.0 for f in face_positions(hollow_triangle)}, **extra})
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
    def test_face_search_agrees_with_the_face_lists(self, seed, include_empty, probes):
        K = build_complex(random_complex(np.random.default_rng(seed)).facets(), include_empty=include_empty)
        position = face_positions(K)
        # the raw probes are often unsorted or repeat a vertex; sorted, often faces
        faces = [()] + probes + [tuple(sorted(set(p))) for p in probes] + list(position)
        want = [position.get(face, -1) for face in faces]
        assert K._indices(faces).tolist() == K._indices([list(f) for f in faces]).tolist() == want

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
        position = face_positions(K)
        faces = list(position)
        table = {f: float(rng.uniform(0.1, 10.0)) for f in faces}
        for mutation in mutations:
            f = faces[int(rng.integers(len(faces)))]
            if mutation == "drop":
                table.pop(f, None)
            elif mutation == "non-face":
                extra = tuple(sorted({int(v) for v in rng.integers(0, 12, int(rng.integers(0, 4)))}))
                if extra not in position:
                    table[extra] = 1.0
            else:
                table[f] = {"nan": float("nan"), "negative": -1.0, "zero": 0.0, "inf": float("inf")}[mutation]
        scheme = WeightScheme.explicit(table)
        got = _face_dict_outcome(K, lambda: compute_weights(K, scheme))
        assert got == _face_dict_outcome(K, lambda: face_weights(K, scheme))


# ids near the int64 limit alongside small ones; a float form is exact below 2**53
_ID = st.one_of(st.integers(0, 9), st.integers(MAX_ID - 3, MAX_ID))
_FORMS = ("list", "tuple", "set", "numpy ints", "floats", "1-d array")


@st.composite
def _facet_inputs(draw):
    """Facets of mixed dimensions with duplicates and sub-facets, in a
    random order, each an unsorted row in one of the accepted forms."""
    facets = draw(st.lists(st.lists(_ID, min_size=1, max_size=5, unique=True), min_size=1, max_size=6))
    for f in list(facets):
        if draw(st.booleans()):
            facets.append(f)
        if len(f) > 1 and draw(st.booleans()):
            facets.append(draw(st.permutations(f))[: draw(st.integers(1, len(f) - 1))])
    out = []
    for f in draw(st.permutations(facets)):
        f = draw(st.permutations(f))
        form = draw(st.sampled_from(_FORMS if max(f) < 2**53 else _FORMS[:4] + _FORMS[5:]))
        out.append(
            {
                "list": list,
                "tuple": tuple,
                "set": set,
                "numpy ints": lambda f: [np.int64(v) for v in f],
                "floats": lambda f: [float(v) for v in f],
                "1-d array": lambda f: np.array(f, np.int64),
            }[form](f)
        )
    return out


def _maximal(ref: dict) -> list:
    """The faces of a closure that lie in no face one dimension up."""
    return [
        f
        for d in sorted(ref)
        if d >= 0
        for f in ref[d]
        if not any(set(f) <= set(g) for g in ref.get(d + 1, ()))
    ]


class TestFaceArraysAgainstTheSetClosure:
    @settings(max_examples=200, deadline=None)
    @given(_facet_inputs(), st.booleans())
    def test_every_view_matches_the_oracle(self, facets, include_empty):
        K = build_complex(facets, include_empty=include_empty)
        ref = closure_faces(facets, include_empty)
        assert K.top_dim == max(ref) and list(K.dims()) == sorted(ref)
        for d in range(-2, K.top_dim + 2):
            assert K.faces(d) == ref.get(d, ()) and K.face_count(d) == len(ref.get(d, ()))
            assert all(type(v) is int for f in K.faces(d) for v in f)
            assert K._indices(list(ref.get(d, ()))).tolist() == list(range(len(ref.get(d, ()))))
        maximal = _maximal(ref)
        assert K.facets() == tuple(maximal)
        components = union_find_components(vertex_ids(K), ref.get(1, ()))
        assert K.components() == components and K.connected is (len(components) == 1)
        assert K == build_complex(maximal[::-1], include_empty=include_empty)
        assert K != build_complex(facets, include_empty=not include_empty)
        if len(maximal) > 1:
            assert K != build_complex(maximal[1:], include_empty=include_empty)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 20), min_size=1, max_size=4, unique=True), min_size=1, max_size=8))
    def test_two_dimensional_integer_arrays_stand_for_their_rows(self, facets):
        by_width: dict = {}
        for f in facets:
            by_width.setdefault(len(f), []).append(f)
        blocks = [np.array(rows, np.int64) for rows in by_width.values()]
        blocks.append(np.zeros((0, 2), np.int64))
        assert build_complex(blocks) == build_complex(facets)
        assert build_complex(blocks).faces(0) == closure_faces(facets)[0]

    @pytest.mark.parametrize(
        "facets, message",
        [
            ([[0, 1, 2], [3, 3]], "face [3, 3] repeats a vertex"),
            ([[0, 1], []], "facets must be non-empty vertex sets"),
            ([[0, 1], 7], "face 7 is not a list of vertices"),
            ([[0, 1], [2, -1]], "face [2, -1]: vertex -1 is not a non-negative integer"),
            ([[0, 1], [2, 1.5]], "face [2, 1.5]: vertex 1.5 is not a non-negative integer"),
            ([[0, 1], [2, True]], "face [2, True]: vertex True is not a non-negative integer"),
            ([[0, 1], [2, "3"]], "face [2, '3']: vertex '3' is not a non-negative integer"),
            ([[0, 1], [2, 2**63]], f"face [2, {2**63}]: vertex {2**63} does not fit in a 64-bit integer"),
            ([], "facet list is empty"),
            ([np.zeros((0, 3), np.int64)], "facet list is empty"),
            # the first bad facet in the given order is named, whatever its width
            ([[0, 1, 2], [4, "x"], [3, 3]], "face [4, 'x']: vertex 'x' is not"),
            ([[5, 5, 6], [0, 1], [4, "x"]], "face [5, 5, 6] repeats a vertex"),
            ([np.array([[0, 1], [1, 1]])], "face [1, 1] repeats a vertex"),
            ([np.array([[0, 2**63]], np.uint64)], f"vertex {2**63} does not fit"),
        ],
    )
    def test_a_malformed_facet_raises_at_construction(self, facets, message):
        with pytest.raises(MalformedInputError, match=re.escape(message)):
            build_complex(facets)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 12),
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=20),
        st.booleans(),
    )
    # vertices only: a 0-dimensional complex has no edges to join
    @example(3, [], True)
    @example(3, [(0, 0)], False)
    def test_connected_components_is_the_union_find(self, n, pairs, include_empty):
        edges = [(u, v) for u, v in pairs if u < n and v < n]
        vertices = [3 * v for v in range(n)]
        edges = [(3 * u, 3 * v) for u, v in edges]
        # a loop joins nothing, and no complex holds one
        K = build_complex([e for e in edges if e[0] != e[1]] + [[v] for v in vertices], include_empty=include_empty)
        assert K.components() == union_find_components(vertices, edges)
        assert K.connected is (len(K.components()) == 1)


class TestIds:
    def test_plain_numpy_and_integral_ids(self):
        for values, want in (([0, 5, MAX_ID], [0, 5, MAX_ID]), ([np.int64(3), 2.0], [3, 2]), ([], [])):
            ids = _ids(values)
            assert ids.dtype == np.int64 and ids.tolist() == want

    @pytest.mark.parametrize(
        "values, what, message",
        [
            ([0, 1.5], "vertex", "vertex 1.5 is not a non-negative integer"),
            ([0, -1], "vertex", "vertex -1 is not a non-negative integer"),
            ([2**63, 0], "vertex", f"vertex {2**63} does not fit in a 64-bit integer"),
            ([0, 1, 2, True, 3, -1], ("vertex", "vertex image"), "vertex image True is not"),
            ([0, 1, "2", 3], ("vertex", "vertex image"), "vertex '2' is not"),
        ],
    )
    def test_the_first_bad_entry_is_named(self, values, what, message):
        with pytest.raises(MalformedInputError, match=re.escape(message)):
            _ids(values, what)


class TestCoboundaryCache:
    def test_triplets_are_computed_once_and_read_only(self):
        K = build_complex([{0, 1, 2}, {1, 2, 3}, {3, 4}])
        for i in K.dims():
            triplets = coboundary(K, i)
            assert coboundary(K, i) is triplets
            assert all(not a.flags.writeable for a in triplets)
            assert all(a is b for a, b in zip(decorated_coboundary(K, i), triplets))
        with pytest.raises(ValueError):
            coboundary(K, 0)[1][0] = 5


class TestDecoratedCoboundary:
    def test_blocks_are_placed_by_incidence_and_zeros_dropped(self):
        # the hollow triangle's vertex/edge layer with 2 x 2 values: entry
        # (a, j) of incidence e lands at (row*2 + a, col*2 + j) times its sign
        K = build_complex([{0, 1}, {1, 2}, {0, 2}])
        rows, cols, signs = coboundary(K, 0)
        values = np.arange(len(rows) * 4).reshape(-1, 2, 2) % 3
        want = np.zeros((6, 6), np.int64)
        for e, (r, c, s) in enumerate(zip(rows, cols, signs)):
            want[2 * r : 2 * r + 2, 2 * c : 2 * c + 2] = s * values[e]
        got = decorated_coboundary(K, 0, values)
        assert got[2].dtype == np.int64 and np.all(got[2] != 0)
        assert len(got[2]) == np.count_nonzero(values) and np.array_equal(dense_matrix(got, (6, 6)), want)
        # scalars are 1 x 1 blocks
        scalars = decorated_coboundary(K, 0, values[:, 0, 0])
        assert all(np.array_equal(a, b) for a, b in zip(scalars, decorated_coboundary(K, 0, values[:, :1, :1])))

    @pytest.mark.parametrize("shape", [(5,), (7,), (6, 2), (6, 2, 3), (5, 2, 2), (6, 1, 1, 1)])
    def test_values_of_the_wrong_shape_are_refused(self, shape):
        K = build_complex([{0, 1}, {1, 2}, {0, 2}])
        with pytest.raises(WeightError, match=re.escape(f"layer 0 values of shape {shape} do not fit its 6")):
            decorated_coboundary(K, 0, np.ones(shape))


@st.composite
def _randgen_inputs(draw):
    """The facets of a ``randgen`` complex, with repeated and non-maximal
    facets added, at times a lone vertex, and the facets of one width
    given as a 2-D array, in a random order."""
    K = random_complex(np.random.default_rng(draw(_SEEDS)))
    facets = [list(f) for f in K.facets()]
    for f in list(facets):
        if draw(st.booleans()):
            facets.append(f)
        if len(f) > 1 and draw(st.booleans()):
            facets.append(sorted(draw(st.permutations(f))[: draw(st.integers(1, len(f) - 1))]))
    if draw(st.booleans()):
        facets.append([max(vertex_ids(K)) + 1])
    width = draw(st.sampled_from(sorted({len(f) for f in facets})))
    block = np.array([f for f in facets if len(f) == width], np.int64)
    return draw(st.permutations([f for f in facets if len(f) != width] + [block]))


class TestOrderOfFirstUse:
    @settings(max_examples=100, deadline=None)
    @given(_randgen_inputs(), st.booleans(), st.data())
    def test_faces_and_coboundaries_do_not_depend_on_what_is_asked_first(self, facets, include_empty, data):
        rows = [f for a in facets for f in (a.tolist() if isinstance(a, np.ndarray) else [a])]
        ref = closure_faces(rows, include_empty)
        seen = []
        for first in ("coboundary", "faces(0)", "_indices", "components"):
            K = build_complex(facets, include_empty=include_empty)
            if first == "coboundary":
                coboundary(K, data.draw(st.sampled_from(list(K.dims()))))
            elif first == "faces(0)":
                K.faces(0)
            elif first == "_indices":
                K._indices([data.draw(st.sampled_from(ref[data.draw(st.sampled_from(sorted(ref)))]))])
            else:
                K.components()
            triplets = {i: coboundary(K, i) for i in data.draw(st.permutations(list(K.dims())))}
            seen.append(
                [(a.shape, a.dtype.str, a.tobytes()) for d in K.dims() for a in [K._face_array(d)]]
                + [(a.dtype.str, a.tobytes()) for i in K.dims() for a in triplets[i]]
            )
        assert all(s == seen[0] for s in seen)
        for d in K.dims():
            assert K.faces(d) == ref[d]
            for a, b in zip(coboundary(K, d), face_coboundary(ref.get(d + 1, ()), ref[d])):
                assert a.dtype == b.dtype == np.int64 and a.tobytes() == b.tobytes()


class TestGatheredPrimitives:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 4).flatmap(
            lambda width: st.lists(
                st.lists(st.one_of(st.integers(0, 3), st.integers(MAX_ID - 2, MAX_ID)), min_size=width, max_size=width),
                max_size=12,
            ).map(lambda rows: np.array(rows, np.int64).reshape(len(rows), width))
        )
    )
    def test_unique_rows_is_the_lexsort_oracle(self, a):
        # ids near MAX_ID make the packed key overflow, so the rank step runs
        got, want = _unique_rows(a), unique_rows(a)
        assert got[0].dtype == want[0].dtype and got[0].shape == want[0].shape
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @settings(max_examples=60, deadline=None)
    @given(_SEEDS, st.booleans())
    def test_vertex_index_is_the_search_of_each_face_among_the_vertices(self, seed, include_empty):
        rng = np.random.default_rng(seed)
        M = random_complex(rng)
        ids = np.sort(rng.choice(2**62, M.face_count(0), replace=False))
        K = build_complex([[int(ids[v]) for v in f] for f in M.facets()], include_empty=include_empty)
        verts = K._face_array(0)[:, 0]
        for d in range(-1, K.top_dim + 1):
            got, want = K._vertex_index(d), np.searchsorted(verts, K._face_array(d))
            assert got.dtype == np.int64 and got.shape == want.shape and np.array_equal(got, want)
