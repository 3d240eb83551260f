import numpy as np
import pytest

from conftest import cycle_complex
from oracles import block_laplacians, cycle, kronecker_coboundary, transposition, voltage_coboundary_matrix
from randgen import random_complex, random_connected_cover

from liftlap import (
    COMBINATORIAL,
    GroupStructureError,
    IncidenceVoltages,
    IncidenceWeighting,
    VoltageError,
    abelian_weightings,
    build_complex,
    coboundary_matrix,
    decompose_representation,
    derived_complex,
    edge_voltages,
    induced_incidence_voltage,
    laplacian_matrix,
    two_fold_signing,
    voltage_group,
)
from liftlap.perms import identity, permutation_matrix


class TestVoltageGroup:
    def test_two_element_group(self):
        g = voltage_group([(1, 0)])
        assert g.elements == ((0, 1), (1, 0))
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
        assert voltage_group([], k=3).order == 1
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
        swap = dec.blocks_of[(1, 0)]
        assert np.allclose(swap[0], [[1.0]])
        assert np.allclose(swap[1], [[-1.0]])

    def test_cyclic_three_characters(self):
        dec = decompose_representation(voltage_group([cycle(3)]))
        assert dec.block_sizes == (1, 1, 1)
        gen = cycle(3)
        vals = sorted(
            np.angle(complex(dec.blocks_of[gen][j][0, 0])) for j in (1, 2)
        )
        expected = sorted([-2 * np.pi / 3, 2 * np.pi / 3])
        assert np.allclose(vals, expected)
        for j in (1, 2):
            assert abs(abs(complex(dec.blocks_of[gen][j][0, 0])) - 1) < 1e-12

    def test_natural_symmetric_action(self):
        group = voltage_group([transposition(3, 0, 1), cycle(3)])
        dec = decompose_representation(group)
        assert dec.block_sizes == (1, 2)
        assert dec.residual <= 1e-10
        # certify block-diagonality for every element explicitly
        T = dec.transform
        for g in group.elements:
            conj = T.conj().T @ permutation_matrix(g) @ T
            assert abs(conj[0, 0] - 1) < 1e-12
            assert np.max(np.abs(conj[1:, 0])) < 1e-10
            assert np.max(np.abs(conj[0, 1:])) < 1e-10

    def test_transform_is_unitary(self):
        for gens in ([(1, 0)], [cycle(4)], [transposition(4, 0, 1), cycle(4)]):
            dec = decompose_representation(voltage_group(gens))
            T = dec.transform
            assert np.allclose(T.conj().T @ T, np.eye(T.shape[0]), atol=1e-12)

    def test_deterministic_given_seed(self):
        group = voltage_group([transposition(4, 0, 1), cycle(4)])
        a = decompose_representation(group, seed=5)
        b = decompose_representation(group, seed=5)
        assert np.array_equal(a.transform, b.transform)


class TestTwoFoldSigning:
    def test_flip_from_reference_voltage(self, reference):
        M = reference.complex
        table = {}
        for t in M.faces(2):
            for j in range(3):
                e = t[:j] + t[j + 1 :]
                table[(e, t)] = (1, 0) if (e, t) == reference.flip else (0, 1)
        signing = two_fold_signing(IncidenceVoltages(2, 1, table))
        assert signing.value(*reference.flip) == -1
        others = [
            (e, t)
            for t in M.faces(2)
            for e, _ in [(t[:j] + t[j + 1 :], None) for j in range(3)]
            if (e, t) != reference.flip
        ]
        assert all(signing.value(e, t) == 1 for e, t in others)

    def test_all_identity_warns(self):
        M = cycle_complex(3)
        table = {((v,), e): (0, 1) for e in M.faces(1) for v in [e[0], e[1]]}
        with pytest.warns(UserWarning):
            signing = two_fold_signing(IncidenceVoltages(2, 0, table))
        assert signing == IncidenceWeighting()

    def test_all_swapped(self):
        M = cycle_complex(3)
        table = {((v,), e): (1, 0) for e in M.faces(1) for v in [e[0], e[1]]}
        signing = two_fold_signing(IncidenceVoltages(2, 0, table))
        assert all(signing.value((v,), e) == -1 for (v,), e in table)

    def test_wrong_fold_count(self):
        M = cycle_complex(3)
        iv = induced_incidence_voltage(
            derived_complex(M, edge_voltages(M, 1)).covering, 0
        )
        with pytest.raises(VoltageError):
            two_fold_signing(iv)


class TestAbelianWeightings:
    def test_two_sheets_match_the_signing(self, c3_double_cover):
        iv = induced_incidence_voltage(c3_double_cover.covering, 0)
        (weighting,) = abelian_weightings(iv)
        signing = two_fold_signing(iv)
        for pair in iv.perms:
            assert np.isclose(weighting.value(*pair).real, signing.value(*pair))
            assert abs(weighting.value(*pair).imag) < 1e-12

    def test_cyclic_three_values_are_roots_of_unity(self):
        M = cycle_complex(3)
        psi = edge_voltages(M, 3, {(0, 1): cycle(3)})
        cov = derived_complex(M, psi).covering
        iv = induced_incidence_voltage(cov, 0)
        ws = abelian_weightings(iv)
        assert len(ws) == 2
        roots = {np.round(np.exp(2j * np.pi * j / 3), 9) for j in range(3)}
        for w in ws:
            for pair in iv.perms:
                assert np.round(w.value(*pair), 9) in roots

    def test_klein_four_group(self):
        # regular action of Z2 x Z2 on four sheets
        a = (1, 0, 3, 2)
        b = (2, 3, 0, 1)
        M = build_complex([{0, 1}, {1, 2}, {0, 2}, {0, 3}, {1, 3}])
        psi = edge_voltages(M, 4, {(0, 1): a, (0, 2): b})
        cov = derived_complex(M, psi).covering
        iv = induced_incidence_voltage(cov, 0)
        group = voltage_group(iv)
        assert group.order == 4 and group.abelian
        ws = abelian_weightings(iv)
        assert len(ws) == 3
        for w in ws:
            vals = {np.round(w.value(*pair).real, 9) for pair in iv.perms}
            assert vals <= {1.0, -1.0}

    def test_non_abelian_rejected(self):
        # a transposition and a 3-cycle on the two loops of a theta graph
        M = build_complex([{0, 1}, {1, 2}, {0, 2}, {0, 3}, {1, 3}])
        psi = edge_voltages(M, 3, {(0, 1): transposition(3, 0, 1), (0, 3): cycle(3)})
        iv = induced_incidence_voltage(derived_complex(M, psi).covering, 0)
        assert not voltage_group(iv).abelian
        with pytest.raises(GroupStructureError):
            abelian_weightings(iv)

    def test_non_transitive_rejected(self):
        M = cycle_complex(3)
        # trivial voltages on 3 sheets: abelian but not transitive
        psi = edge_voltages(M, 3)
        result = derived_complex(M, psi)
        assert not result.connected
        table = {}
        for e in M.faces(1):
            for v in e:
                table[((v,), e)] = identity(3)
        iv = IncidenceVoltages(3, 0, table)
        with pytest.raises(GroupStructureError):
            abelian_weightings(iv)


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
        group = voltage_group(iv)
        assert group.abelian and group.transitive
        dec = decompose_representation(group)
        weightings = abelian_weightings(iv)
        blocks = block_laplacians(M, iv, 0, COMBINATORIAL, "up", dec)
        assert len(blocks) == 1 + len(weightings)
        for j, w in enumerate(weightings, start=1):
            expected = laplacian_matrix(M, 0, "up", COMBINATORIAL, w)
            assert np.max(np.abs(blocks[j].matrix - expected.matrix)) <= 1e-12

    def test_single_sheet_single_block(self):
        M = cycle_complex(3)
        cov = derived_complex(M, edge_voltages(M, 1)).covering
        iv = induced_incidence_voltage(cov, 0)
        blocks = block_laplacians(M, iv, 0)
        assert len(blocks) == 1
        assert np.array_equal(blocks[0].matrix, laplacian_matrix(M, 0, "up").matrix)

    def test_two_fold_blocks_match_plain_and_signed(self):
        import warnings as warnmod

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
                with warnmod.catch_warnings():
                    # a layer untouched by the twist legitimately degrades
                    warnmod.simplefilter("ignore")
                    signing = two_fold_signing(iv)
                blocks = block_laplacians(M, iv, i)
                plain = laplacian_matrix(M, i, "up")
                signed = laplacian_matrix(M, i, "up", decoration=signing)
                assert np.max(np.abs(blocks[0].matrix - plain.matrix)) <= 1e-12
                assert np.max(np.abs(blocks[1].matrix - signed.matrix)) <= 1e-12
            done += 1
