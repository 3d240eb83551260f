import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_FACETS, cycle_complex, scrambled_covering
from oracles import (
    Graph,
    as_graph_voltages,
    coboundary_matrix,
    coboundary_factorization,
    derived_graph,
    edge_table,
    face_positions,
    fiber_faces,
    incidence_graph,
    inverse,
    orientation_sign_diagonal,
    pair_table,
    per_face_induced_incidence_voltage,
    per_face_verify_covering,
    permutation_matrix,
    vertex_dict,
    vertex_ids,
)
from randgen import random_complex, random_connected_cover, random_edge_voltages

from liftlap import (
    COMBINATORIAL,
    CocycleError,
    CoveringViolation,
    EdgeVoltages,
    IncidenceWeighting,
    MalformedInputError,
    VoltageError,
    build_complex,
    derived_complex,
    coboundary,
    edge_voltages,
    induced_incidence_voltage,
    laplacian_matrix,
    verify_covering,
)
from liftlap.covering import check_perms


class TestIncidenceGraph:
    def test_triangle_edge_layer(self, triangle):
        B = incidence_graph(triangle, 1)
        assert (len(B.left), len(B.right), len(B.edges)) == (3, 1, 3)

    def test_triangle_vertex_layer(self, triangle):
        B = incidence_graph(triangle, 0)
        assert (len(B.left), len(B.right), len(B.edges)) == (3, 3, 6)

    def test_reference_complex_edge_layer(self):
        M = build_complex(REFERENCE_FACETS)
        B = incidence_graph(M, 1)
        assert (len(B.left), len(B.right), len(B.edges)) == (12, 6, 18)


class TestDerivedGraph:
    def c3_graph(self):
        return Graph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])

    def derived(self, k, assignments=None):
        M = cycle_complex(3)
        return derived_graph(self.c3_graph(), k, edge_table(M, edge_voltages(M, k, assignments)))

    def test_trivial_voltage_gives_disjoint_copies(self):
        D = self.derived(2)
        assert len(D.vertices) == 6 and len(D.edges) == 6
        # two components: sheets never mix
        sheets = {v[1] for e in D.edges for v in e}
        assert all(a[1] == b[1] for a, b in D.edges)

    def test_one_swap_gives_six_cycle(self):
        D = self.derived(2, {(0, 1): (1, 0)})
        assert len(D.vertices) == 6 and len(D.edges) == 6
        assert D.connected
        assert all(len(D.neighbors(v)) == 2 for v in D.vertices)

    def test_single_sheet_copies_the_base(self):
        D = self.derived(1)
        assert {(u[0], v[0]) for u, v in D.edges} == set(self.c3_graph().edges)


class TestVerifyCovering:
    def test_hexagon_over_triangle(self):
        K = cycle_complex(6)
        M = cycle_complex(3)
        cov = verify_covering(K, M, {v: v % 3 for v in range(6)})
        assert cov.degree == 2
        # the base edge (0, 1) is edge 0; (0, 1) and (3, 4) are cover edges 0 and 4
        assert cov.fibers[1][face_positions(M)[(0, 1)]].tolist() == [face_positions(K)[f] for f in ((0, 1), (3, 4))] == [0, 4]
        assert fiber_faces(cov)[(0, 1)] == ((0, 1), (3, 4))
        assert cov.fibers[-1].tolist() == [[0]]

    def test_disconnected_cover_rejected(self):
        K = build_complex([{0, 1, 2}, {3, 4, 5}])
        M = build_complex([{0, 1, 2}])
        with pytest.raises(CoveringViolation) as err:
            verify_covering(K, M, {v: v % 3 for v in range(6)})
        assert err.value.kind == "not-connected"

    def test_path_fails_strong_condition(self):
        K = build_complex([{0, 1}, {1, 2}])
        M = cycle_complex(3)
        with pytest.raises(CoveringViolation) as err:
            verify_covering(K, M, {0: 0, 1: 1, 2: 2})
        assert err.value.kind == "strong-violation"

    def test_first_of_several_strong_violations_is_the_witness(self):
        # the path 0-1-2-3-4 over the 4-cycle: vertex 4 has no edge over
        # (0, 1) and vertex 0 none over (0, 3); incidences are searched
        # cofacet by cofacet, then along the fiber
        K = build_complex([(0, 1), (1, 2), (2, 3), (3, 4)])
        M = cycle_complex(4)
        with pytest.raises(CoveringViolation) as err:
            verify_covering(K, M, {v: v % 4 for v in range(5)})
        assert err.value.kind == "strong-violation"
        assert err.value.witness == ((4,), (0, 1))

    def test_degenerate_face_detected(self):
        # the 4-cycle folded onto an edge: no edge collapses, but the two
        # edges at vertex 0 both lie over (0, 1)
        K = cycle_complex(4)
        M = build_complex([{0, 1}])
        with pytest.raises(CoveringViolation) as err:
            verify_covering(K, M, {0: 0, 1: 1, 2: 0, 3: 1})
        assert (err.value.kind, err.value.witness) == ("fiber-overlap", ((0, 1), (0, 3)))

    def test_collapsed_edge_is_the_witness(self):
        K = build_complex([(0, 1), (1, 2), (0, 2)])
        with pytest.raises(CoveringViolation) as err:
            verify_covering(K, build_complex([(0, 1)]), {0: 0, 1: 1, 2: 0})
        assert (err.value.kind, err.value.witness) == ("degenerate-face", (0, 2))

    @pytest.mark.parametrize(
        "facets, vertex_map, witness",
        [
            # (0, 2) and (0, 3) lie over (0, 2) and share vertex 0; the
            # fiber of (1, 2) overlaps too, but comes later
            ([(0, 1, 2), (0, 1, 3)], {0: 0, 1: 1, 2: 2, 3: 2}, ((0, 2), (0, 3))),
            # (0, 1, 2) and (0, 3, 4) both lie over (0, 1, 2) and share vertex 0
            # alone; the overlap shows first on their edges (0, 1) and (0, 3)
            ([(0, 1, 2), (0, 3, 4)], {0: 0, 1: 1, 2: 2, 3: 1, 4: 2}, ((0, 1), (0, 3))),
        ],
        ids=["shared-edge", "shared-vertex"],
    )
    def test_first_overlapping_fiber_is_the_witness(self, facets, vertex_map, witness):
        with pytest.raises(CoveringViolation) as err:
            verify_covering(build_complex(facets), build_complex([(0, 1, 2)]), vertex_map)
        assert (err.value.kind, err.value.witness) == ("fiber-overlap", witness)

    def test_missing_vertex_rejected(self):
        K = cycle_complex(6)
        M = cycle_complex(3)
        with pytest.raises(CoveringViolation) as err:
            verify_covering(K, M, {v: v % 3 for v in range(5)})
        assert err.value.kind == "unmapped-vertex"

    @pytest.mark.parametrize("image", [0.9, True])
    def test_ids_are_not_coerced(self, image):
        K, M = cycle_complex(6), cycle_complex(3)
        vertex_map = {v: v % 3 for v in range(6)}
        vertex_map[3] = image
        with pytest.raises(MalformedInputError, match="not a non-negative integer"):
            verify_covering(K, M, vertex_map)
        # numpy integers are integers
        cov = verify_covering(K, M, {np.int64(v): np.int64(v % 3) for v in range(6)})
        assert vertex_dict(cov)[3] == 0 and type(vertex_dict(cov)[3]) is int

    @pytest.mark.parametrize("perm", [(1, 0.9), (True, 0)])
    def test_perm_images_are_not_coerced(self, perm):
        with pytest.raises((MalformedInputError, VoltageError)):
            check_perms([(0, 1), perm], 2)
        assert check_perms([np.array([1, 0]), (0.0, 1)], 2).tolist() == [[1, 0], [0, 1]]

    def test_fiber_sizes_constant_across_dimensions(self, c3_double_cover):
        cov = c3_double_cover.covering
        for d in range(0, cov.base.top_dim + 1):
            assert cov.fibers[d].dtype == np.int64
            assert cov.fibers[d].shape == (cov.base.face_count(d), cov.degree)
            # every cover face lies in exactly one fiber
            assert sorted(cov.fibers[d].ravel().tolist()) == list(range(cov.cover.face_count(d)))


MUTATIONS = ("none", "swap-images", "drop-facet", "add-face", "merge-vertices", "unmap-vertex", "image-off-base")


def _mutated(rng, K, vertex_map, mutation):
    """Facets and vertex map of a cover after one mutation; ``vertex_map``
    is the ``[vertex, image]`` array of a derived complex."""
    facets, vmap = [set(f) for f in K.facets()], dict(vertex_map.tolist())
    u, v, w = (int(x) for x in rng.choice(vertex_ids(K), 3, replace=False))
    if mutation == "swap-images":
        vmap[u], vmap[v] = vmap[v], vmap[u]
    elif mutation == "drop-facet":
        del facets[int(rng.integers(len(facets)))]
    elif mutation == "add-face":
        facets.append({u, v, w} if rng.integers(2) else {u, v})
    elif mutation == "merge-vertices":
        facets = [{u if x == v else x for x in f} for f in facets]
        del vmap[v]
    elif mutation == "unmap-vertex":
        del vmap[u]
    elif mutation == "image-off-base":
        # ids that are no base vertex: below the images, above them and past every one
        images = set(vmap.values())
        off = sorted({0, min(images) - 1, max(images) + 1, max(images) + 7, 2**62} - images - {-1})
        first, second = (int(x) for x in rng.choice(off, 2, replace=False))
        vmap[u] = first
        if rng.integers(2):
            # a second vertex of a face at u, on another such id
            vmap[next(x for f in K.faces(1) if u in f for x in f if x != u)] = second
    return build_complex(facets, include_empty=K.include_empty), vmap


def _outcome(check, K, M, vertex_map) -> str:
    """The violation's kind and witness, or the verified covering's degree,
    projection, vertex map and fibers (dtype, shape and entries of each
    array); as a repr, so a numpy scalar shows."""
    try:
        cov = check(K, M, vertex_map)
    except CoveringViolation as exc:
        return repr((exc.kind, exc.witness))
    arrays = {d: (f.dtype.str, f.shape, f.tolist()) for d, f in cov.fibers.items()}
    arrays["projection"] = (cov.projection.dtype.str, cov.projection.shape, cov.projection.tolist())
    return repr((cov.degree, vertex_dict(cov), arrays))


class TestVerifyCoveringOracle:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(MUTATIONS))
    def test_random_mutated_covers_agree_with_the_per_face_check(self, seed, mutation):
        rng = np.random.default_rng(seed)
        M = random_complex(rng, max_vertices=6, min_beta1=1)
        out = random_connected_cover(M, int(rng.integers(2, 4)), rng)
        assume(out is not None)
        _, result = out
        K, vmap = _mutated(rng, result.complex, result.vertex_map, mutation)
        expected = _outcome(per_face_verify_covering, K, M, vmap)
        assert _outcome(verify_covering, K, M, vmap) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_an_array_and_a_mapping_give_one_covering(self, seed, shuffle, extra):
        rng = np.random.default_rng(seed)
        M = random_complex(rng, max_vertices=6, min_beta1=1)
        out = random_connected_cover(M, int(rng.integers(2, 4)), rng)
        assume(out is not None)
        K, pairs = out[1].complex, out[1].vertex_map
        if extra:  # a vertex the cover does not have is ignored
            pairs = np.vstack([pairs, [[max(vertex_ids(K)) + 1, min(vertex_ids(M))]]])
        if shuffle:
            pairs = pairs[rng.permutation(len(pairs))]
        by_array, by_mapping = verify_covering(K, M, pairs), verify_covering(K, M, dict(pairs.tolist()))
        assert by_array.degree == by_mapping.degree
        assert by_array.projection.dtype == by_mapping.projection.dtype == np.int64
        assert np.array_equal(by_array.projection, by_mapping.projection)
        assert by_array.fibers.keys() == by_mapping.fibers.keys()
        for d, fiber in by_array.fibers.items():
            assert fiber.dtype == by_mapping.fibers[d].dtype and np.array_equal(fiber, by_mapping.fibers[d])
        assert vertex_dict(by_array) == dict(zip(vertex_ids(K), (dict(pairs.tolist())[v] for v in vertex_ids(K))))

    def test_an_array_listing_a_vertex_twice_is_refused(self, tmp_path):
        from liftlap import io as llio

        rows = [[v, v % 3] for v in range(6)] + [[3, 1]]
        message = "3 is listed twice, the second time as 1"
        with pytest.raises(MalformedInputError, match=message):
            verify_covering(cycle_complex(6), cycle_complex(3), np.array(rows))
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"vertex_map": rows}))
        with pytest.raises(MalformedInputError, match=message):
            llio.load_vertex_map(path)

    MIXED = [(0, 1, 2), (2, 3), (7,)]

    @pytest.mark.parametrize(
        "cover, base, vertex_map, kind",
        [
            (MIXED, MIXED, {v: v for v in (0, 1, 2, 3, 7)}, "not-connected"),
            (MIXED[:2], MIXED, {v: v for v in (0, 1, 2, 3)}, "fiber-size"),
            (MIXED[:2], MIXED[:2], {v: v for v in (0, 1, 2, 3)}, None),
            (MIXED[:2], [(0, 1, 2), (0, 3)], {v: v for v in (0, 1, 2, 3)}, "not-simplicial"),
            (MIXED[:2], [(0, 1, 2), (2, 3), (3, 4)], {v: v for v in (0, 1, 2, 3)}, "strong-violation"),
        ],
        ids=["not-connected", "fiber-size", "degree-one", "not-simplicial", "strong-violation"],
    )
    def test_mixed_dimensions(self, cover, base, vertex_map, kind):
        # a triangle, a dangling edge and an isolated vertex
        K, M = build_complex(cover), build_complex(base)
        got = _outcome(verify_covering, K, M, vertex_map)
        assert got == _outcome(per_face_verify_covering, K, M, vertex_map)
        assert got.startswith(f"('{kind}', " if kind else "(1, ")

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_ids_near_two_to_the_forty(self, mutation):
        shift = 2**40 - 3
        M = build_complex([(shift + i, shift + (i + 1) % 3) for i in range(3)])
        psi = edge_voltages(M, 2, {(shift, shift + 1): (1, 0)})
        result = derived_complex(M, psi)
        assert result.covering.degree == 2 and min(vertex_ids(result.complex)) == 2 * shift
        K, vmap = _mutated(np.random.default_rng(5), result.complex, result.vertex_map, mutation)
        assert _outcome(verify_covering, K, M, vmap) == _outcome(per_face_verify_covering, K, M, vmap)


class TestIdRange:
    def test_an_id_past_int64_is_refused_naming_it(self):
        with pytest.raises(MalformedInputError, match=str(2**63)):
            build_complex([(0, 2**63)])
        with pytest.raises(MalformedInputError, match=f"vertex image {2**63} does not fit"):
            verify_covering(cycle_complex(6), cycle_complex(3), {**{v: v % 3 for v in range(5)}, 5: 2**63})
        K = build_complex([(0, 2**63 - 1)])
        assert vertex_ids(K) == (0, 2**63 - 1) and K.facets() == ((0, 2**63 - 1),)

    def test_a_cover_whose_ids_would_not_fit_is_refused(self):
        M = build_complex([(2**62, 2**62 + 1), (2**62 + 1, 2**62 + 2), (2**62, 2**62 + 2)])
        with pytest.raises(MalformedInputError, match="cover vertex .* does not fit"):
            derived_complex(M, edge_voltages(M, 2, {(2**62, 2**62 + 1): (1, 0)}))


class TestEdgeVoltages:
    P = (1, 2, 0)

    def test_unlisted_edges_carry_the_identity(self):
        M = cycle_complex(3)
        psi = edge_voltages(M, 3, {(0, 2): self.P})
        assert psi.perms.dtype == np.int64
        assert psi.perms.tolist() == [[0, 1, 2], list(self.P), [0, 1, 2]]

    def test_a_reversed_key_stores_the_inverse(self):
        M = cycle_complex(3)
        reversed_key = edge_voltages(M, 3, {(2, 1): self.P})
        inverted = edge_voltages(M, 3, {(1, 2): inverse(self.P)})
        assert np.array_equal(reversed_key.perms, inverted.perms)
        cover = derived_complex(M, reversed_key)
        assert cover.connected and cover.complex == derived_complex(M, inverted).complex
        assert cover.complex != derived_complex(M, edge_voltages(M, 3, {(1, 2): self.P})).complex

    def test_an_edge_listed_in_both_orders_is_refused(self):
        M = cycle_complex(3)
        with pytest.raises(VoltageError, match=r"edge \(1, 2\) is listed twice"):
            edge_voltages(M, 3, {(1, 2): inverse(self.P), (2, 1): self.P})

    @pytest.mark.parametrize(
        "assignments, message",
        [
            ({(0, 1): (0, 1, 2), (0, 3): (0, 1, 2)}, r"non-edges: \[\(0, 3\)\]"),
            ({(0, 1, 2): (0, 1, 2)}, r"non-edges: \[\(0, 1, 2\)\]"),
            ({(0, 1): (0, 1, 2), (1, 2): (0, 0, 1)}, r"\(0, 0, 1\) is not a permutation of 0..2"),
            ({(0, 1): (0, 1)}, r"\(0, 1\) is not a permutation of 0..2"),
            # the first bad permutation is named, whatever fails in a later one
            ({(0, 1): (0, 0, 1), (1, 2): (0, 1)}, r"\(0, 0, 1\) is not a permutation of 0..2"),
            ({(0, 1): (0, 0, 1), (1, 2): (0, 1.5, 2)}, r"\(0, 0, 1\) is not a permutation of 0..2"),
            ({(0, 1): (0, 1.5, 2), (1, 2): (0, 0, 1)}, r"perm image 1.5 is not a non-negative integer"),
        ],
        ids=["non-edge", "triangle", "repeat", "short", "repeat-then-short", "repeat-then-float", "float-then-repeat"],
    )
    def test_bad_assignments_are_named(self, triangle, assignments, message):
        with pytest.raises((VoltageError, MalformedInputError), match=message):
            edge_voltages(triangle, 3, assignments)

    def test_voltages_of_another_base_are_refused(self, triangle):
        with pytest.raises(VoltageError, match="built for another complex"):
            derived_complex(cycle_complex(4), edge_voltages(triangle, 2))
        # the same edge count, other vertex ids: read by position, these
        # voltages would lift to a connected 6-vertex cover
        psi = edge_voltages(build_complex([(0, 1), (1, 2), (0, 2)]), 2, {(0, 1): (1, 0)})
        with pytest.raises(VoltageError, match="built for another complex"):
            derived_complex(build_complex([(3, 4), (4, 5), (3, 5)]), psi)
        # an equal complex built again is the same base
        assert derived_complex(build_complex([(0, 1), (1, 2), (0, 2)]), psi).connected

    def test_voltages_of_the_wrong_shape_are_refused(self, triangle):
        psi = EdgeVoltages(triangle, 2, np.zeros((2, 2), np.int64))
        with pytest.raises(VoltageError, match=r"shape \(2, 2\) do not fit the 3 base edges"):
            derived_complex(triangle, psi)


class TestDerivedComplex:
    def test_simply_connected_base_disconnects(self, triangle):
        psi = edge_voltages(triangle, 2)
        result = derived_complex(triangle, psi)
        assert not result.connected
        assert len(result.components) == 2

    def test_hexagon_from_swapped_edge(self, c3_double_cover):
        K = c3_double_cover.complex
        assert K.face_count(0) == 6 and K.face_count(1) == 6
        assert c3_double_cover.covering.degree == 2

    def test_near_complete_graph_example(self):
        M = build_complex([{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}])
        psi = edge_voltages(M, 2, {(1, 2): (1, 0)})
        result = derived_complex(M, psi)
        assert result.connected
        assert result.complex.face_count(0) == 8
        assert result.complex.face_count(1) == 10

    def test_cocycle_violation_carries_witness(self, triangle):
        psi = edge_voltages(triangle, 2, {(0, 1): (1, 0)})
        with pytest.raises(CocycleError) as err:
            derived_complex(triangle, psi)
        assert err.value.witness == (0, 1, 2)

    @pytest.mark.parametrize(
        "uv, vw, uw, consistent",
        [
            # c o c == c^2, while c o c^2 is the identity, not c
            ((1, 2, 0), (1, 2, 0), (2, 0, 1), True),
            ((1, 2, 0), (2, 0, 1), (1, 2, 0), False),
        ],
    )
    def test_cocycle_reads_each_edge_of_the_triangle(self, triangle, uv, vw, uw, consistent):
        # over Z_3 the check tells (v, w) from (u, w); over Z_2 it cannot
        psi = edge_voltages(triangle, 3, {(0, 1): uv, (1, 2): vw, (0, 2): uw})
        if consistent:
            assert len(derived_complex(triangle, psi).components) == 3
        else:
            with pytest.raises(CocycleError) as err:
                derived_complex(triangle, psi)
            assert err.value.witness == (0, 1, 2)

    @pytest.mark.parametrize("edge, witness", [((1, 3), (1, 2, 3)), ((1, 2), (0, 1, 2))])
    def test_first_inconsistent_triangle_is_the_witness(self, edge, witness):
        M = build_complex([(0, 1, 2), (1, 2, 3)])
        with pytest.raises(CocycleError) as err:
            derived_complex(M, edge_voltages(M, 2, {edge: (1, 0)}))
        assert err.value.witness == witness

    def test_roundtrip_random_covers(self):
        rng = np.random.default_rng(31)
        done = 0
        while done < 12:
            M = random_complex(rng, min_beta1=1)
            out = random_connected_cover(M, int(rng.integers(2, 4)), rng)
            if out is None:
                continue
            psi, result = out
            cov = result.covering
            assert cov is not None and cov.degree == psi.k
            again = verify_covering(result.complex, M, result.vertex_map)
            assert again.degree == psi.k
            done += 1

    def test_simply_connected_random_bases_disconnect(self):
        # every cycle bounds: a cone over anything is simply connected
        rng = np.random.default_rng(32)
        for _ in range(5):
            base = random_complex(rng, max_vertices=5, max_dim=2)
            apex = max(vertex_ids(base)) + 1
            cone = build_complex(
                [tuple(f) + (apex,) for f in base.facets()]
            )
            for k in (2, 3):
                psi = random_edge_voltages(cone, k, rng)
                if psi is None:
                    continue
                assert not derived_complex(cone, psi).connected


class TestInducedVoltages:
    def test_identity_cover_all_trivial(self):
        M = cycle_complex(3)
        psi = edge_voltages(M, 1)
        cov = derived_complex(M, psi).covering
        iv = induced_incidence_voltage(cov, 0)
        assert iv.perms.shape == (6, 1) and not iv.perms.any()

    def test_hexagon_single_nontrivial_voltage(self, c3_double_cover):
        iv = induced_incidence_voltage(c3_double_cover.covering, 0)
        nontrivial = [p for p in iv.perms.tolist() if p != [0, 1]]
        assert len(nontrivial) == 1

    def test_derived_graph_isomorphic_to_cover_incidence_graph(self):
        rng = np.random.default_rng(33)
        done = 0
        while done < 6:
            M = random_complex(rng, max_vertices=6, min_beta1=1)
            out = random_connected_cover(M, 2, rng)
            if out is None:
                continue
            _, result = out
            cov = result.covering
            for i in range(0, M.top_dim + 1):
                iv = induced_incidence_voltage(cov, i)
                B, gpsi = as_graph_voltages(M, iv)
                D = derived_graph(B, iv.k, gpsi)
                BK = incidence_graph(result.complex, i)
                expected = {
                    frozenset((BK.left[a], BK.right[b])) for a, b in BK.edges
                }
                # map derived vertices ((side, face), sheet) through the fibers
                fibers = fiber_faces(cov)
                mapped = {frozenset((fibers[u[0][1]][u[1]], fibers[v[0][1]][v[1]])) for u, v in D.edges}
                assert mapped == expected
            done += 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_equal_to_the_per_face_loop_on_random_covers(self, seed, scramble):
        rng = np.random.default_rng(seed)
        M = random_complex(rng, max_vertices=6, min_beta1=1)
        out = random_connected_cover(M, int(rng.integers(2, 5)), rng)
        assume(out is not None)
        _, result = out
        cov = result.covering
        if scramble:
            cov = scrambled_covering(rng, result.complex, result.vertex_map, M)
        for i in range(0, M.top_dim + 1):
            got = induced_incidence_voltage(cov, i)
            assert (got.k, got.dim, got.perms.dtype) == (cov.degree, i, np.int64)
            assert got.perms.shape == (len(coboundary(M, i)[0]), cov.degree)
            assert pair_table(M, i, got.perms) == per_face_induced_incidence_voltage(cov, i)


class TestCoboundaryFactorization:
    def test_hexagon_residual_zero(self, c3_double_cover):
        fac = coboundary_factorization(c3_double_cover.covering, 0)
        assert fac.residual == 0

    def test_identity_cover_is_transparent(self):
        M = build_complex([{0, 1, 2}, {2, 3}])
        cov = derived_complex(M, edge_voltages(M, 1)).covering
        for i in range(0, M.top_dim + 1):
            fac = coboundary_factorization(cov, i)
            assert fac.residual == 0
            assert (fac.face_signs.entries == 1).all()
            assert np.array_equal(fac.voltage_coboundary, coboundary_matrix(M, i))

    def test_scrambled_vertex_labels_give_nontrivial_signs(self):
        # relabel the cover so the projection is not monotone; the sign
        # diagonals must absorb the orientation flips exactly
        rng = np.random.default_rng(34)
        done = 0
        saw_negative = False
        while done < 6:
            M = random_complex(rng, max_vertices=6, min_beta1=1, max_dim=3)
            out = random_connected_cover(M, 2, rng)
            if out is None:
                continue
            _, result = out
            cov2 = scrambled_covering(rng, result.complex, result.vertex_map, M)
            for i in range(0, M.top_dim + 1):
                fac = coboundary_factorization(cov2, i)
                assert fac.residual == 0
                saw_negative = saw_negative or (fac.face_signs.entries == -1).any()
            done += 1
        assert saw_negative


class TestPermutationWeighting:
    def test_base_operator_weighted_by_permutations_is_the_cover_operator(self):
        # with combinatorial weights, decorating the base Laplacian by the
        # voltages' permutation matrices gives the cover's Laplacian in
        # (base face, sheet) order, conjugated by the orientation signs
        rng = np.random.default_rng(35)
        done = 0
        while done < 6:
            M = random_complex(rng, max_vertices=6, min_beta1=1, max_dim=3)
            out = random_connected_cover(M, int(rng.integers(2, 5)), rng)
            if out is None:
                continue
            _, result = out
            cov = scrambled_covering(rng, result.complex, result.vertex_map, M)
            K = cov.cover
            k = cov.degree
            P = IncidenceWeighting(
                M,
                {
                    layer: np.reshape(
                        [permutation_matrix(p) for p in induced_incidence_voltage(cov, layer).perms.tolist()], (-1, k, k)
                    )
                    for layer in range(0, M.top_dim + 1)
                }
            )
            for i in range(0, M.top_dim + 1):
                order = cov.fibers[i].ravel()
                signs = orientation_sign_diagonal(cov, i).entries
                for kind in ("up", "down", "full") if i >= 1 else ("up",):
                    cover_op = laplacian_matrix(K, i, kind)[np.ix_(order, order)]
                    expected = signs[:, None] * cover_op * signs[None, :]
                    got = laplacian_matrix(M, i, kind, COMBINATORIAL, P)
                    assert np.array_equal(got, expected)
            done += 1
