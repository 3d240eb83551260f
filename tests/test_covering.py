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
    fiber_faces,
    incidence_graph,
    orientation_sign_diagonal,
    per_face_induced_incidence_voltage,
    per_face_verify_covering,
    permutation_matrix,
)
from randgen import random_complex, random_connected_cover, random_edge_voltages

from liftlap import (
    COMBINATORIAL,
    CocycleError,
    CoveringViolation,
    IncidenceWeighting,
    MalformedInputError,
    VoltageError,
    build_complex,
    derived_complex,
    edge_voltages,
    induced_incidence_voltage,
    laplacian_matrix,
    verify_covering,
)
from liftlap.perms import check_perm, identity


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

    def test_trivial_voltage_gives_disjoint_copies(self):
        B = self.c3_graph()
        psi = edge_voltages(cycle_complex(3), 2)
        D = derived_graph(B, psi)
        assert len(D.vertices) == 6 and len(D.edges) == 6
        # two components: sheets never mix
        sheets = {v[1] for e in D.edges for v in e}
        assert all(a[1] == b[1] for a, b in D.edges)

    def test_one_swap_gives_six_cycle(self):
        B = self.c3_graph()
        psi = edge_voltages(cycle_complex(3), 2, {(0, 1): (1, 0)})
        D = derived_graph(B, psi)
        assert len(D.vertices) == 6 and len(D.edges) == 6
        assert D.connected
        assert all(len(D.neighbors(v)) == 2 for v in D.vertices)

    def test_single_sheet_copies_the_base(self):
        B = self.c3_graph()
        psi = edge_voltages(cycle_complex(3), 1)
        D = derived_graph(B, psi)
        assert {(u[0], v[0]) for u, v in D.edges} == set(B.edges)


class TestVerifyCovering:
    def test_hexagon_over_triangle(self):
        K = cycle_complex(6)
        M = cycle_complex(3)
        cov = verify_covering(K, M, {v: v % 3 for v in range(6)})
        assert cov.degree == 2
        # the base edge (0, 1) is edge 0; (0, 1) and (3, 4) are cover edges 0 and 4
        assert cov.fibers[1][M.index((0, 1))].tolist() == [K.index((0, 1)), K.index((3, 4))] == [0, 4]
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

    def test_first_overlapping_fiber_is_the_witness(self):
        # (0, 2) and (0, 3) lie over (0, 2) and share vertex 0; the
        # fiber of (1, 2) overlaps too, but comes later
        K = build_complex([(0, 1, 2), (0, 1, 3)])
        with pytest.raises(CoveringViolation) as err:
            verify_covering(K, build_complex([(0, 1, 2)]), {0: 0, 1: 1, 2: 2, 3: 2})
        assert (err.value.kind, err.value.witness) == ("fiber-overlap", ((0, 2), (0, 3)))

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
        assert cov.vertex_map[3] == 0 and type(cov.vertex_map[3]) is int

    @pytest.mark.parametrize("perm", [(1, 0.9), (True, 0)])
    def test_perm_images_are_not_coerced(self, perm):
        with pytest.raises((MalformedInputError, VoltageError)):
            check_perm(perm, 2)
        assert check_perm(np.array([1, 0]), 2) == (1, 0)

    def test_fiber_sizes_constant_across_dimensions(self, c3_double_cover):
        cov = c3_double_cover.covering
        for d in range(0, cov.base.top_dim + 1):
            assert cov.fibers[d].dtype == np.int64
            assert cov.fibers[d].shape == (cov.base.face_count(d), cov.degree)
            # every cover face lies in exactly one fiber
            assert sorted(cov.fibers[d].ravel().tolist()) == list(range(cov.cover.face_count(d)))


MUTATIONS = ("none", "swap-images", "drop-facet", "add-face", "merge-vertices", "unmap-vertex")


def _mutated(rng, K, vertex_map, mutation):
    """Facets and vertex map of a cover after one mutation."""
    facets, vmap = [set(f) for f in K.facets()], dict(vertex_map)
    u, v, w = (int(x) for x in rng.choice(K.vertices, 3, replace=False))
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
    return build_complex(facets, include_empty=K.include_empty), vmap


def _outcome(check, K, M, vertex_map) -> str:
    """The violation's kind and witness, or the verified covering's degree,
    vertex map and fibers (dtype, shape and entries of each array); as a
    repr, so a numpy scalar shows."""
    try:
        cov = check(K, M, vertex_map)
    except CoveringViolation as exc:
        return repr((exc.kind, exc.witness))
    fibers = {d: (f.dtype.str, f.shape, f.tolist()) for d, f in cov.fibers.items()}
    return repr((cov.degree, cov.vertex_map, fibers))


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
        assert result.covering.degree == 2 and min(result.complex.vertices) == 2 * shift
        K, vmap = _mutated(np.random.default_rng(5), result.complex, result.vertex_map, mutation)
        assert _outcome(verify_covering, K, M, vmap) == _outcome(per_face_verify_covering, K, M, vmap)


class TestIdRange:
    def test_an_id_past_int64_is_refused_naming_it(self):
        with pytest.raises(MalformedInputError, match=str(2**63)):
            build_complex([(0, 2**63)])
        with pytest.raises(MalformedInputError, match=f"vertex image {2**63} does not fit"):
            verify_covering(cycle_complex(6), cycle_complex(3), {**{v: v % 3 for v in range(5)}, 5: 2**63})
        K = build_complex([(0, 2**63 - 1)])
        assert K.vertices == (0, 2**63 - 1) and K.facets() == ((0, 2**63 - 1),)

    def test_a_cover_whose_ids_would_not_fit_is_refused(self):
        M = build_complex([(2**62, 2**62 + 1), (2**62 + 1, 2**62 + 2), (2**62, 2**62 + 2)])
        with pytest.raises(MalformedInputError, match="cover vertex .* does not fit"):
            derived_complex(M, edge_voltages(M, 2, {(2**62, 2**62 + 1): (1, 0)}))


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
            apex = max(base.vertices) + 1
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
        assert all(p == identity(1) for p in iv.perms.values())

    def test_hexagon_single_nontrivial_voltage(self, c3_double_cover):
        iv = induced_incidence_voltage(c3_double_cover.covering, 0)
        nontrivial = [pair for pair, p in iv.perms.items() if p != (0, 1)]
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
                B, gpsi = as_graph_voltages(iv)
                D = derived_graph(B, gpsi)
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
            got, want = induced_incidence_voltage(cov, i), per_face_induced_incidence_voltage(cov, i)
            assert (got.k, got.dim, got.perms) == (want.k, want.dim, want.perms)


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
            P = IncidenceWeighting(
                {
                    pair: permutation_matrix(p)
                    for layer in range(0, M.top_dim + 1)
                    for pair, p in induced_incidence_voltage(cov, layer).perms.items()
                }
            )
            for i in range(0, M.top_dim + 1):
                order = cov.fibers[i].ravel()
                signs = orientation_sign_diagonal(cov, i).entries
                for kind in ("up", "down", "full") if i >= 1 else ("up",):
                    cover_op = laplacian_matrix(K, i, kind).matrix[np.ix_(order, order)]
                    expected = signs[:, None] * cover_op * signs[None, :]
                    got = laplacian_matrix(M, i, kind, COMBINATORIAL, P).matrix
                    assert np.array_equal(got, expected)
            done += 1
