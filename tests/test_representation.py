import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import cycle_complex
from oracles import (
    assembled_coboundary,
    as_weightings,
    block_laplacians,
    blocks_of,
    closure,
    coboundary_matrix,
    cofacet_table,
    compose,
    conjugated_weighting,
    cycle,
    incidence_voltages,
    kronecker_coboundary,
    layer_spectra,
    pair_table,
    per_face_induced_incidence_voltage,
    per_incidence_block_values,
    per_incidence_signing,
    per_pair_decorated_coboundary,
    permutation_matrix,
    random_unitary,
    transposition,
    voltage_coboundary_matrix,
)
from randgen import random_complex, random_connected_cover

from liftlap import (
    COMBINATORIAL,
    GroupStructureError,
    IncidenceVoltages,
    VoltageError,
    abelian_decomposition,
    block_identity,
    block_values,
    WeightError,
    build_complex,
    coboundary,
    decompose_representation,
    decorated_coboundary,
    derived_complex,
    edge_voltages,
    incidence_weighting,
    induced_incidence_voltage,
    integer_split,
    laplacian_matrix,
    voltage_group,
)
from liftlap import io as llio
from liftlap.cli import main
from liftlap.complexes import _unique_rows
from liftlap.representation import RESIDUAL_TOL, _locate_rows, _orbital_mean, _orbitals


def _regular_s3():
    """Generators of S_3 acting on its own six elements by left
    multiplication, as permutations of the sorted element list."""
    els = list(map(tuple, voltage_group([transposition(3, 0, 1), cycle(3)]).elements.tolist()))
    index = {g: j for j, g in enumerate(els)}
    return [tuple(index[compose(g, h)] for h in els) for g in (transposition(3, 0, 1), cycle(3))]


# 1-3 random permutations of range(k), k <= 6
_GENERATORS = st.integers(1, 6).flatmap(
    lambda k: st.lists(st.permutations(range(k)).map(tuple), min_size=1, max_size=3)
)


class TestVoltageGroup:
    def test_two_element_group(self):
        g = voltage_group([(1, 0)])
        assert g.elements.tolist() == [[0, 1], [1, 0]]
        assert g.transitive and g.abelian

    def test_cyclic_three(self):
        g = voltage_group([cycle(3)])
        assert g.order == 3 and g.abelian

    def test_full_symmetric_group_from_standard_generators(self):
        g = voltage_group([transposition(4, 0, 1), cycle(4)])
        assert g.order == 24
        assert not g.abelian

    def test_transitive_means_one_orbit(self):
        assert not voltage_group([(1, 0, 2)]).transitive
        assert not voltage_group([(1, 0, 2, 3), (0, 1, 3, 2)]).transitive
        assert voltage_group([(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)]).transitive

    def test_empty_generators_need_fold_count(self):
        assert voltage_group(np.zeros((0, 3), np.int64)).order == 1
        with pytest.raises(VoltageError):
            voltage_group([])


class TestDerivedCoboundary:
    def test_single_sheet_is_plain(self):
        M = cycle_complex(3)
        psi = induced_incidence_voltage(
            derived_complex(M, edge_voltages(M, 1)).covering, 0
        )
        assert np.array_equal(voltage_coboundary_matrix(M, psi, 0), coboundary_matrix(M, 0))
        assert np.array_equal(kronecker_coboundary(M, psi, 0), coboundary_matrix(M, 0))

    def test_routes_agree_on_random_instances(self):
        rng = np.random.default_rng(42)
        count = 0
        while count < 15:
            M = random_complex(rng, min_beta1=1)
            out = random_connected_cover(M, int(rng.integers(2, 5)), rng)
            if out is None:
                continue
            _, result = out
            for i in range(0, M.top_dim + 1):
                iv = induced_incidence_voltage(result.covering, i)
                assert np.array_equal(voltage_coboundary_matrix(M, iv, i), kronecker_coboundary(M, iv, i))
            count += 1


class TestDecomposeRepresentation:
    def test_two_sheets(self):
        dec = decompose_representation(voltage_group([(1, 0)]))
        assert dec.block_sizes == (1, 1)
        T = dec.transform
        ones = np.ones(2) / np.sqrt(2)
        assert np.allclose(np.abs(T[:, 0]), ones)
        swap = blocks_of(dec)[(1, 0)]
        assert np.allclose(swap[0], [[1.0]])
        assert np.allclose(swap[1], [[-1.0]])

    def test_cyclic_three_characters(self):
        dec = decompose_representation(voltage_group([cycle(3)]))
        assert dec.block_sizes == (1, 1, 1)
        at_gen = blocks_of(dec)[cycle(3)]
        vals = sorted(np.angle(complex(at_gen[j][0, 0])) for j in (1, 2))
        expected = sorted([-2 * np.pi / 3, 2 * np.pi / 3])
        assert np.allclose(vals, expected)
        for j in (1, 2):
            assert abs(abs(complex(at_gen[j][0, 0])) - 1) < 1e-12

    def test_natural_symmetric_action(self):
        group = voltage_group([transposition(3, 0, 1), cycle(3)])
        dec = decompose_representation(group)
        assert dec.block_sizes == (1, 2)
        assert dec.residual <= 1e-10
        # certify block-diagonality for every element explicitly
        T = dec.transform
        for g in group.elements.tolist():
            conj = T.conj().T @ permutation_matrix(g) @ T
            assert abs(conj[0, 0] - 1) < 1e-12
            assert np.max(np.abs(conj[1:, 0])) < 1e-10
            assert np.max(np.abs(conj[0, 1:])) < 1e-10

    def test_transform_is_unitary(self):
        for gens in ([(1, 0)], [cycle(3)], [cycle(4)], [transposition(4, 0, 1), cycle(4)], _regular_s3()):
            dec = decompose_representation(voltage_group(gens))
            T = dec.transform
            assert np.allclose(T.conj().T @ T, np.eye(T.shape[0]), atol=1e-12)
            # each block's values at every element are the dense oracle's
            table = blocks_of(dec)
            for j, values in enumerate(block_values(dec, dec.group.elements)):
                assert np.max(np.abs(values - [blocks[j] for blocks in table.values()])) <= 1e-12

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_natural_symmetric_action_is_trivial_plus_standard(self, k):
        dec = decompose_representation(voltage_group([transposition(k, 0, 1), cycle(k)]))
        assert dec.block_sizes == (1, k - 1)
        assert dec.residual <= RESIDUAL_TOL

    def test_cyclic_four_real_and_complex_characters(self):
        dec = decompose_representation(voltage_group([cycle(4)]))
        assert dec.block_sizes == (1, 1, 1, 1)
        assert {np.round(complex(v[0, 0, 0]), 9) for v in block_values(dec, [cycle(4)])[1:]} == {-1, 1j, -1j}

    def test_regular_symmetric_three_splits_the_repeated_irreducible(self):
        # the 2-dimensional irreducible occurs twice; each block is one copy,
        # chosen by a random complex combination
        gens = _regular_s3()
        dec = decompose_representation(voltage_group(gens))
        assert dec.block_sizes == (1, 1, 2, 2)
        assert dec.residual <= RESIDUAL_TOL

    def test_bench_decompose_input_splits_into_trivial_and_standard(self, capsys, monkeypatch, tmp_path):
        # the benchmark's `decompose S4 punctured` case: an S_4 cover of the
        # punctured 12 x 12 torus, decomposed on its edge/triangle layer
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        from perfbench.workloads import build_cases

        (case,) = [c for c in build_cases("spectral", 1, tmp_path) if c.command == "decompose"]
        argv = case.argv
        base, _ = llio.load_complex(argv[argv.index("--base") + 1])
        psi = llio.load_edge_voltages(argv[argv.index("--voltage") + 1], base)
        iv = induced_incidence_voltage(derived_complex(base, psi).covering, 1)
        dec = decompose_representation(voltage_group(iv.perms), seed=int(argv[argv.index("--seed") + 1]))
        assert dec.block_sizes == (1, 3)
        assert dec.residual <= RESIDUAL_TOL
        assert main(argv) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["block_sizes"] == [1, 3]
        assert results["residual"] <= RESIDUAL_TOL

    def test_one_eigensolve_per_try(self, monkeypatch):
        # S_4 on 4 points is certified on the first try, by one eigh of the
        # reduced commutant element and none per block
        calls, eigh = [], np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        dec = decompose_representation(voltage_group([transposition(4, 0, 1), cycle(4)]))
        assert dec.block_sizes == (1, 3)
        assert calls == [(3, 3)]

    def test_deterministic_given_seed(self):
        group = voltage_group([transposition(4, 0, 1), cycle(4)])
        a = decompose_representation(group, seed=5)
        b = decompose_representation(group, seed=5)
        assert np.array_equal(a.transform, b.transform)


class TestDecompositionProperties:
    @staticmethod
    def characters(dec):
        """Per block, its character over the sorted group elements."""
        return [[np.trace(blocks[j]) for blocks in blocks_of(dec).values()] for j in range(len(dec.block_sizes))]

    @settings(max_examples=150, deadline=None)
    @given(_GENERATORS, st.integers(0, 2**32 - 1))
    def test_blocks_are_the_diagonal_of_every_conjugated_element(self, gens, seed):
        # the array route against the tuple route: the group is the closure
        # of the generator tuples, the residual taken at the generators
        # bounds the off-block entries at every element, block j of element
        # g is row g of block_values, and the values at incidences equal one
        # per-incidence lookup each
        k = len(gens[0])
        group = voltage_group(gens)
        assert group.elements.dtype == np.int64 and not group.elements.flags.writeable
        assert group.elements.tolist() == [list(g) for g in closure(gens, k)]
        assert group.generators.tolist() == [list(g) for g in sorted(set(gens))]
        dec = decompose_representation(group, seed=0)
        T = dec.transform
        offsets = np.cumsum((0,) + dec.block_sizes)
        off_block = np.ones(T.shape, dtype=bool)
        for a, b in zip(offsets, offsets[1:]):
            off_block[a:b, a:b] = False
        values = block_values(dec, group.elements)
        for n, g in enumerate(group.elements.tolist()):
            conj = T.conj().T @ permutation_matrix(g) @ T
            for a, b, block in zip(offsets, offsets[1:], (v[n] for v in values)):
                assert np.max(np.abs(conj[a:b, a:b] - block)) <= 1e-12
            if off_block.any():
                assert np.max(np.abs(conj[off_block])) <= RESIDUAL_TOL
        other = decompose_representation(group, seed=1)
        assert other.block_sizes == dec.block_sizes
        assert np.allclose(self.characters(other), self.characters(dec), rtol=0, atol=1e-9)
        els = list(map(tuple, group.elements.tolist()))
        assert group.abelian == all(compose(g, h) == compose(h, g) for g in els for h in els)

        rng = np.random.default_rng(seed)
        M = random_complex(rng, max_vertices=6, max_faces=16)
        i = int(rng.integers(0, M.top_dim))
        picks = rng.integers(group.order, size=len(coboundary(M, i)[0]))
        psi = IncidenceVoltages(M, k, i, group.elements[picks])

        # every block is complex, even where its values at these voltages are real
        got, want = block_values(dec, psi.perms), per_incidence_block_values(dec, psi.perms)
        assert [w.shape for w in got] == [v.shape for v in want]
        for w, v in zip(got, want):
            assert w.dtype == v.dtype == np.complex128
            assert np.max(np.abs(w - v), initial=0.0) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(_GENERATORS, st.integers(0, 2**32 - 1))
    def test_orbitals_from_the_generators_against_the_enumerated_group(self, gens, seed):
        # Burnside on pairs: the orbit count of G on ordered pairs is the
        # mean over the elements of fix(g)^2; and the mean over each
        # orbital is the group average of P^g H P^{g^-1}
        k = len(gens[0])
        group = voltage_group(gens)
        elements = closure(gens, k)
        orbital = _orbitals(group)
        fixed = sum(sum(g[x] == x for x in range(k)) ** 2 for g in elements)
        assert len(set(orbital.ravel().tolist())) * len(elements) == fixed
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        herm = (raw + raw.conj().T) / 2
        average = sum(permutation_matrix(g) @ herm @ permutation_matrix(g).T for g in elements) / len(elements)
        assert np.max(np.abs(_orbital_mean(orbital, herm) - average)) <= 1e-12

    def test_no_array_grows_with_the_order_times_k_squared(self):
        # S_8 on 8 points: one real (|G|, k, k) stack would be 20.6 MB; the
        # decomposition reads the group through its generators and its
        # (|G|, k) element array only, so no peak reaches half a stack
        import tracemalloc

        k = 8
        group = voltage_group([transposition(k, 0, 1), cycle(k)])
        stack_bytes = group.order * k * k * 8
        tracemalloc.start()
        try:
            dec = decompose_representation(group)
            psi = IncidenceVoltages(cycle_complex(3), k, 0, group.elements[:6])
            block_values(dec, psi.perms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dec.block_sizes == (1, k - 1)
        assert peak < stack_bytes / 2

    @settings(max_examples=60, deadline=None)
    @given(_GENERATORS, st.integers(0, 2**32 - 1))
    def test_block_spectra_do_not_depend_on_the_block_basis(self, gens, seed):
        # in a random complex basis, U^H rho_j(g) U, the same block must give the same spectra
        rng = np.random.default_rng(seed)
        M = random_complex(rng, max_vertices=6, max_faces=16)
        group = voltage_group(gens)
        dec = decompose_representation(group)
        i = int(rng.integers(0, M.top_dim))
        table = {
            (c[:j] + c[j + 1 :], c): group.elements[int(rng.integers(group.order))]
            for c in M.faces(i + 1)
            for j in range(len(c))
        }
        psi = incidence_voltages(M, group.k, i, table)
        for j, w in enumerate(as_weightings(psi, block_values(dec, psi.perms)[1:]), start=1):
            turned = conjugated_weighting(w, random_unitary(rng, dec.block_sizes[j]))
            for plain, other in zip(layer_spectra(M, i, decoration=w), layer_spectra(M, i, decoration=turned)):
                assert len(plain) == len(other)
                assert np.max(np.abs(np.subtract(plain.values, other.values)), initial=0.0) <= 1e-12


def _c3_double_cover_records():
    """Each record of the 2-fold cover of the 3-cycle, built afresh."""
    M = cycle_complex(3)
    psi = edge_voltages(M, 2, {(0, 1): (1, 0)})
    result = derived_complex(M, psi)
    iv = induced_incidence_voltage(result.covering, 0)
    group = voltage_group(iv.perms)
    return {
        "EdgeVoltages": psi,
        "DerivedComplexResult": result,
        "CoveringMap": result.covering,
        "IncidenceVoltages": iv,
        "VoltageGroup": group,
        "BlockDecomposition": decompose_representation(group),
    }


@pytest.mark.parametrize("name", list(_c3_double_cover_records()))
def test_records_holding_arrays_compare_by_identity(name):
    x, y = (_c3_double_cover_records()[name] for _ in range(2))
    assert type(x).__name__ == name
    assert x == x and not (x != x)
    assert not (x == y) and x != y
    assert hash(x) == hash(x) and len({x, y}) == 2


class TestBlockValuesRefusal:
    @pytest.mark.parametrize(
        "k, voltage, gens, named",
        [
            # the hexagon over the 3-cycle against S_3: the fold count differs
            (2, {(0, 1): (1, 0)}, [(1, 0, 2), (1, 2, 0)], "(0, 1)"),
            # a 3-cycle's voltages against the group of one transposition
            (3, {(0, 1): (1, 2, 0)}, [(1, 0, 2)], "(1, 2, 0)"),
        ],
    )
    def test_a_voltage_outside_the_group_is_named(self, k, voltage, gens, named):
        M = cycle_complex(3)
        iv = induced_incidence_voltage(derived_complex(M, edge_voltages(M, k, voltage)).covering, 0)
        dec = decompose_representation(voltage_group(gens))
        with pytest.raises(VoltageError, match=re.escape(f"voltage {named} is not an element of the decomposed group")):
            block_values(dec, iv.perms)

    def test_the_first_incidence_outside_the_group_is_named(self):
        # (1, 0, 2) is in the group and sorts before both voltages outside
        # it, of which (2, 0, 1) is on the earlier incidence
        M = cycle_complex(3)
        perms = [(0, 1, 2), (0, 1, 2), (1, 0, 2), (2, 0, 1), (1, 2, 0), (0, 1, 2)]
        psi = IncidenceVoltages(M, 3, 0, np.array(perms))
        dec = decompose_representation(voltage_group([(1, 0, 2)]))
        with pytest.raises(VoltageError, match=re.escape("voltage (2, 0, 1) is not an element")):
            block_values(dec, psi.perms)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3), min_size=1, max_size=40),
    st.lists(st.lists(st.integers(-1, 4), min_size=3, max_size=3), max_size=20),
)
def test_locate_rows_is_a_lookup_among_the_sorted_rows(table, queries):
    rows = _unique_rows(np.array(table, np.int64))[0]
    position = {tuple(r): j for j, r in enumerate(rows.tolist())}
    queries = table[: len(queries)] + queries
    got = _locate_rows(rows, np.array(queries, np.int64).reshape(-1, 3))
    assert got.tolist() == [position.get(tuple(q), -1) for q in queries]


_VOLTAGE_ROWS = st.integers(1, 6).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(st.permutations(range(k)), min_size=6, max_size=6))
)


class TestIntegerSplit:
    @settings(max_examples=150, deadline=None)
    @given(_VOLTAGE_ROWS)
    def test_split_of_the_permutation_module(self, case):
        # P(p) T = T (1 (+) R(p)) exactly at every voltage, T^T T = diag(k,
        # I + J), and on two sheets T = [[1, 1], [1, -1]] with R(p) the
        # signing, found one incidence at a time
        k, perms = case
        psi = IncidenceVoltages(cycle_complex(3), k, 0, np.array(perms, np.int64).reshape(6, k))
        T, R = integer_split(psi)
        assert T.dtype == R.dtype == np.int64 and T.shape == (k, k) and R.shape == (6, k - 1, k - 1)
        for p, r in zip(perms, R):
            split = np.zeros((k, k), np.int64)
            split[0, 0] = 1
            split[1:, 1:] = r
            assert np.array_equal(permutation_matrix(p) @ T, T @ split)
        gram = np.zeros((k, k), np.int64)
        gram[0, 0] = k
        gram[1:, 1:] = np.eye(k - 1, dtype=np.int64) + 1
        assert np.array_equal(T.T @ T, gram)
        assert block_identity(psi, T, [R]).residual == 0
        if k == 2:
            assert T.tolist() == [[1, 1], [1, -1]]
            assert np.array_equal(R[:, 0, 0], per_incidence_signing(psi))

    def test_flip_from_reference_voltage(self, reference):
        M = reference.complex
        table = {}
        for t in M.faces(2):
            for j in range(3):
                e = t[:j] + t[j + 1 :]
                table[(e, t)] = (1, 0) if (e, t) == reference.flip else (0, 1)
        signing = pair_table(M, 1, integer_split(incidence_voltages(M, 2, 1, table))[1][:, 0, 0])
        assert signing == {pair: -1 if pair == reference.flip else 1 for pair in table}

    def test_all_identity_does_not_warn(self):
        M = cycle_complex(3)
        table = {((v,), e): (0, 1) for e in M.faces(1) for v in [e[0], e[1]]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            signing = integer_split(incidence_voltages(M, 2, 0, table))[1]
            empty_top = integer_split(IncidenceVoltages(M, 2, 1, np.zeros((0, 2), np.int64)))[1]
        assert signing.tolist() == [[[1]]] * 6 and empty_top.shape == (0, 1, 1)
        for i, values in ((0, signing), (1, empty_top)):
            assert np.array_equal(decorated_coboundary(M, i, values)[2], coboundary(M, i)[2])

    def test_all_swapped(self):
        M = cycle_complex(3)
        table = {((v,), e): (1, 0) for e in M.faces(1) for v in [e[0], e[1]]}
        assert integer_split(incidence_voltages(M, 2, 0, table))[1].tolist() == [[[-1]]] * 6

    def test_one_sheet_has_the_base_block_alone(self):
        M = cycle_complex(3)
        iv = induced_incidence_voltage(derived_complex(M, edge_voltages(M, 1)).covering, 0)
        T, R = integer_split(iv)
        assert T.tolist() == [[1]] and R.shape == (6, 0, 0)
        assert block_identity(iv, T, [R]) == block_identity(iv, T, [])


class TestAbelianWeightings:
    def test_two_sheets_match_the_signing(self, c3_double_cover):
        iv = induced_incidence_voltage(c3_double_cover.covering, 0)
        (character,) = block_values(abelian_decomposition(iv), iv.perms)[1:]
        signing = integer_split(iv)[1]
        assert np.allclose(character.real, signing)
        assert np.abs(character.imag).max(initial=0.0) < 1e-12

    def test_cyclic_three_values_are_roots_of_unity(self):
        M = cycle_complex(3)
        psi = edge_voltages(M, 3, {(0, 1): cycle(3)})
        cov = derived_complex(M, psi).covering
        iv = induced_incidence_voltage(cov, 0)
        characters = block_values(abelian_decomposition(iv), iv.perms)[1:]
        assert len(characters) == 2
        roots = {np.round(np.exp(2j * np.pi * j / 3), 9) for j in range(3)}
        for v in characters:
            assert v.shape == (len(iv.perms), 1, 1)
            assert set(np.round(v.ravel(), 9).tolist()) <= roots

    def test_klein_four_group(self):
        # regular action of Z2 x Z2 on four sheets
        a = (1, 0, 3, 2)
        b = (2, 3, 0, 1)
        M = build_complex([{0, 1}, {1, 2}, {0, 2}, {0, 3}, {1, 3}])
        psi = edge_voltages(M, 4, {(0, 1): a, (0, 2): b})
        cov = derived_complex(M, psi).covering
        iv = induced_incidence_voltage(cov, 0)
        group = voltage_group(iv.perms)
        assert group.order == 4 and group.abelian
        characters = block_values(abelian_decomposition(iv), iv.perms)[1:]
        assert len(characters) == 3
        for v in characters:
            assert set(np.round(v.real.ravel(), 9).tolist()) <= {1.0, -1.0}

    def test_non_abelian_rejected(self):
        # a transposition and a 3-cycle on the two loops of a theta graph
        M = build_complex([{0, 1}, {1, 2}, {0, 2}, {0, 3}, {1, 3}])
        psi = edge_voltages(M, 3, {(0, 1): transposition(3, 0, 1), (0, 3): cycle(3)})
        iv = induced_incidence_voltage(derived_complex(M, psi).covering, 0)
        assert not voltage_group(iv.perms).abelian
        with pytest.raises(GroupStructureError):
            abelian_decomposition(iv)

    def test_non_transitive_rejected(self):
        M = cycle_complex(3)
        # trivial voltages on 3 sheets: abelian but not transitive
        psi = edge_voltages(M, 3)
        result = derived_complex(M, psi)
        assert not result.connected
        iv = incidence_voltages(M, 3, 0, {})
        with pytest.raises(GroupStructureError):
            abelian_decomposition(iv)


class TestBlockLaplacians:
    def test_abelian_blocks_equal_weighted_laplacians_entrywise(self):
        # for a cyclic cover, block j+1 is the operator of the j-th
        # character weighting, entry for entry
        M = build_complex([{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 2}])
        psi = edge_voltages(M, 4, {(0, 1): cycle(4), (0, 2): cycle(4)})
        result = derived_complex(M, psi)
        assert result.connected
        cov = result.covering
        iv = induced_incidence_voltage(cov, 0)
        group = voltage_group(iv.perms)
        assert group.abelian and group.transitive
        dec = decompose_representation(group)
        weightings = as_weightings(iv, block_values(abelian_decomposition(iv), iv.perms)[1:])
        blocks = block_laplacians(M, iv, 0, COMBINATORIAL, "up", dec)
        assert len(blocks) == 1 + len(weightings)
        for j, w in enumerate(weightings, start=1):
            expected = laplacian_matrix(M, 0, "up", COMBINATORIAL, w)
            assert np.max(np.abs(blocks[j] - expected)) <= 1e-12

    def test_single_sheet_single_block(self):
        M = cycle_complex(3)
        cov = derived_complex(M, edge_voltages(M, 1)).covering
        iv = induced_incidence_voltage(cov, 0)
        blocks = block_laplacians(M, iv, 0)
        assert len(blocks) == 1
        assert np.array_equal(blocks[0], laplacian_matrix(M, 0, "up"))

    def test_two_fold_blocks_match_plain_and_signed(self):
        rng = np.random.default_rng(44)
        done = 0
        while done < 8:
            M = random_complex(rng, min_beta1=1)
            out = random_connected_cover(M, 2, rng)
            if out is None:
                continue
            _, result = out
            cov = result.covering
            for i in range(0, M.top_dim + 1):
                iv = induced_incidence_voltage(cov, i)
                (signing,) = as_weightings(iv, integer_split(iv)[1:])
                blocks = block_laplacians(M, iv, i)
                plain = laplacian_matrix(M, i, "up")
                signed = laplacian_matrix(M, i, "up", decoration=signing)
                assert np.max(np.abs(blocks[0] - plain)) <= 1e-12
                assert np.max(np.abs(blocks[1] - signed)) <= 1e-12
            done += 1


def _same_triplets(got, want):
    """Triplets equal bit for bit: the same dtypes and the same bytes."""
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got, want))


class TestArrayRoute:
    """Each decoration the library builds as arrays in coboundary order
    gives, bit for bit, the triplets of the per-pair assembly fed by the
    face-by-face induced voltages."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.sampled_from(["real", "complex", "matrix", "1x1"]))
    def test_decorations_equal_the_per_pair_oracle(self, seed, k, kind):
        rng = np.random.default_rng(seed)
        M = random_complex(rng, max_vertices=6, min_beta1=1)
        out = random_connected_cover(M, k, rng)
        assume(out is not None)
        cov = out[1].covering
        for i in range(0, M.top_dim + 1):
            psi = induced_incidence_voltage(cov, i)
            voltages = per_face_induced_incidence_voltage(cov, i)
            group = voltage_group(psi.perms)
            dec = decompose_representation(group)
            # the library's values at every element, keyed by the element; a
            # block's dtype is its values', complex where its transform is
            blocks = block_values(dec, group.elements)
            table = dict(zip(map(tuple, group.elements.tolist()), zip(*blocks)))
            cases = [
                (layer, {pair: table[p][j] for pair, p in voltages.items()}, blocks[j].dtype)
                for j, layer in enumerate(block_values(dec, psi.perms)[1:], start=1)
            ]
            if k == 2:
                flips = {pair: -1 for pair, p in voltages.items() if p == (1, 0)}
                cases.append((integer_split(psi)[1], flips, np.int64))
            for layer, values, dtype in cases:
                want = per_pair_decorated_coboundary(M, i, values, dtype)
                assert _same_triplets(decorated_coboundary(M, i, layer), want)
            if i == 0:
                (first,) = as_weightings(psi, [cases[0][0]])

        # a weighting keyed by pairs, listed in random order across every layer
        pairs = [(f, c) for f, cofacets in cofacet_table(M).items() for c in cofacets]
        picked = [pairs[j] for j in rng.permutation(len(pairs)) if rng.random() < 0.5]
        draw = {
            "real": lambda: float(rng.choice([-2.0, -1.0, 0.5, 3.0])),
            "complex": lambda: np.exp(2j * np.pi * rng.integers(1, 5) / 5),
            "matrix": lambda: rng.normal(size=(2, 2)) + 1j * rng.integers(0, 2) * rng.normal(size=(2, 2)),
            # signed zero imaginary parts: complex values, though their imaginary parts are zero
            "1x1": lambda: np.array([[complex(rng.choice([-1.0, 2.0]), rng.choice([-0.0, 0.0, 0.5]))]]),
        }[kind]
        values = {pair: draw() for pair in picked}
        # the operators' route: unlisted layers carry the identity, and every
        # layer the weighting's dtype
        w = incidence_weighting(M, values)
        for i in M.dims():
            got, want = assembled_coboundary(M, i, w), per_pair_decorated_coboundary(M, i, values)
            assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))

        # a pair off the complex is named, and a weighting fits only its own complex
        with pytest.raises(WeightError, match=r"\(\[0, 1\], \[0, 1, 99\]\) is not a \(face, cofacet\) incidence"):
            incidence_weighting(M, {**values, ((0, 1), (0, 1, 99)): draw()})
        # the cover, and a relabelled base with the same incidence counts
        relabelled = build_complex([[v + 1 for v in f] for f in M.facets()], include_empty=M.include_empty)
        for K in (cov.cover, relabelled):
            for weighting in (first, w):
                with pytest.raises(WeightError, match="built for another complex"):
                    assembled_coboundary(K, 0, weighting)
