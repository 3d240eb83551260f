"""The certified block route: the factorization of the lifted coboundary,
the block identity, and the block spectra they make the cover's, which
the spectral commands prove without solving any operator."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import cycle_complex, scrambled_covering
from mutants import COMMANDS, patch_everywhere, write_cover
from oracles import as_weightings, coboundary_factorization, compare_spectra, face_positions, layer_spectra
from randgen import random_complex, random_connected_cover

from liftlap import (
    COMBINATORIAL,
    NORMALIZED,
    DecompositionError,
    GroupStructureError,
    IncidenceVoltages,
    SpectrumMultiset,
    VoltageError,
    abelian_decomposition,
    block_identity,
    block_values,
    build_complex,
    cli,
    coboundary,
    covering,
    decompose_representation,
    derived_complex,
    factor_lifted_coboundary,
    induced_incidence_voltage,
    integer_split,
    operators,
    verify_covering,
    voltage_group,
)
from liftlap.io import load_complex, load_edge_voltages
from liftlap.representation import RESIDUAL_TOL

TOL = 1e-8
SEEDS = st.integers(0, 2**32 - 1)


def _random_cover(seed, k, flavor):
    """A connected k-fold cover of a random complex, its cover vertices
    relabelled so that the orientation signs are not all +1."""
    rng = np.random.default_rng(seed)
    M = random_complex(rng, min_beta1=1)
    out = random_connected_cover(M, k, rng, flavor)
    assume(out is not None)
    result = out[1]
    return scrambled_covering(rng, result.complex, result.vertex_map, M), rng


class TestFactorization:
    @settings(max_examples=40, deadline=None)
    @given(SEEDS, st.sampled_from([2, 3, 4]), st.sampled_from(["cyclic", "symmetric"]))
    def test_is_the_dense_oracle_with_the_induced_and_with_faulty_voltages(self, seed, k, flavor):
        cov, rng = _random_cover(seed, k, flavor)
        M = cov.base
        for i in range(0, M.top_dim + 1):
            psi = induced_incidence_voltage(cov, i)
            assert all(f.holds for f in factor_lifted_coboundary(cov, i, psi, [COMBINATORIAL, NORMALIZED]))
            assert coboundary_factorization(cov, i).residual == 0
            if not len(psi.perms):
                continue
            # one incidence gets another permutation
            perms = psi.perms.copy()
            e = int(rng.integers(len(perms)))
            perms[e] = np.roll(perms[e], 1)
            bad = IncidenceVoltages(M, k, i, perms)
            got, want = factor_lifted_coboundary(cov, i, bad, [COMBINATORIAL])[0], coboundary_factorization(cov, i, bad)
            assert got.residual == want.residual > 0
            # the witness is a pair of cover faces at which the two matrices differ
            face, cofacet = got.witness
            position = face_positions(cov.cover)
            row, col = (int(np.argmax(cov.fibers[d].ravel() == position[f])) for d, f in ((i + 1, cofacet), (i, face)))
            product = want.cofacet_signs.entries[:, None] * want.voltage_coboundary * want.face_signs.entries
            assert want.cover_coboundary[row, col] != product[row, col]

    def test_names_the_first_differing_pair_in_the_covers_order(self, c3_double_cover):
        cov = c3_double_cover.covering
        psi = induced_incidence_voltage(cov, 0)
        perms = psi.perms.copy()
        perms[[0, 1]] = perms[[0, 1], ::-1]
        (fac,) = factor_lifted_coboundary(cov, 0, IncidenceVoltages(cov.base, 2, 0, perms), [COMBINATORIAL])
        # sheet 0 of vertex 0 meets sheet 1 of vertex 1 across the swapped edge
        assert (fac.residual, fac.witness, fac.weight_witness) == (1, ((0,), (0, 3)), None)
        assert not fac.holds

    @pytest.mark.parametrize(
        "first, second, residual",
        [
            # the incidence ((1,), (0, 1)) at sheet image 2k + s lands in the fiber
            # of (1, 2), where ((1,), (1, 2)) now puts sheet s: signs +1 and -1 cancel
            (1, 4, 1),
            # ((0,), (0, 1)) at k + s lands in the fiber of (0, 2), where
            # ((0,), (0, 2)) now puts sheet s: both signs are -1
            (0, 2, 2),
        ],
        ids=["cancel", "add"],
    )
    def test_lifted_nonzeros_off_the_covers_pattern_are_summed_by_position(self, first, second, residual):
        # a 6-cycle over the 3-cycle, labelled so that the pair off the
        # pattern comes first in the cover's order
        M = cycle_complex(3)
        K = build_complex([(0, 3), (0, 5), (1, 2), (1, 4), (2, 5), (3, 4)])
        cov, k = verify_covering(K, M, {0: 2, 1: 2, 2: 0, 3: 0, 4: 1, 5: 1}), 2
        base_rows = coboundary(M, 0)[0]
        perms = induced_incidence_voltage(cov, 0).perms.copy()
        # sheet 0 of the second incidence goes to the sheet it does not meet in the cover
        s = 1 - perms[second, 0]
        perms[second, 0] = s
        perms[first, 0] = (base_rows[second] - base_rows[first]) * k + s
        (got,) = factor_lifted_coboundary(cov, 0, IncidenceVoltages(M, k, 0, perms), [COMBINATORIAL])
        # the dense oracle, its D_psi placed nonzero by nonzero at the slot each sheet image names
        want = coboundary_factorization(cov, 0)
        lifted = np.zeros_like(want.voltage_coboundary)
        for (row, col, sign), p in zip(zip(*coboundary(M, 0)), perms):
            for j in range(k):
                lifted[row * k + p[j], col * k + j] += sign
        difference = want.cover_coboundary - want.cofacet_signs.entries[:, None] * lifted * want.face_signs.entries
        row, col = min((cov.fibers[1].ravel()[r], cov.fibers[0].ravel()[c]) for r, c in zip(*np.nonzero(difference)))
        assert got.residual == np.abs(difference).max() == residual
        assert got.witness == (K.faces(0)[col], K.faces(1)[row])

    def test_refuses_voltages_of_another_layer(self, c3_double_cover):
        cov = c3_double_cover.covering
        with pytest.raises(VoltageError, match="not layer 1 voltages"):
            factor_lifted_coboundary(cov, 1, induced_incidence_voltage(cov, 0), [COMBINATORIAL])


class TestBlockIdentity:
    def test_two_fold_transform_is_exact(self, c3_double_cover):
        psi = induced_incidence_voltage(c3_double_cover.covering, 0)
        transform, signing = integer_split(psi)
        ident = block_identity(psi, transform, [signing])
        assert (ident.residual, ident.defect) == (0.0, 0.0)

    def test_the_constant_column_is_exact_for_any_voltages(self):
        rng = np.random.default_rng(5)
        M = random_complex(rng, min_beta1=1)
        perms = np.array([rng.permutation(5) for _ in range(len(M.faces(1)) * 2)])
        psi = IncidenceVoltages(M, 5, 0, perms)
        ident = block_identity(psi, np.ones((5, 1)), [])
        assert (ident.residual, ident.defect) == (0.0, 0.0)

    @pytest.mark.parametrize("cover", ["Z3-triangle", "S3-punctured-torus"])
    @pytest.mark.parametrize("layer", [0, 1])
    def test_decomposition_transform_holds_within_the_residual_bound(self, tmp_path, cover, layer):
        _, base, _, voltage = write_cover(tmp_path, cover)
        M = load_complex(base)[0]
        psi = induced_incidence_voltage(derived_complex(M, load_edge_voltages(voltage, M)).covering, layer)
        dec = decompose_representation(voltage_group(psi.perms))
        ident = block_identity(psi, dec.transform, block_values(dec, psi.perms)[1:])
        assert ident.residual <= RESIDUAL_TOL and ident.defect <= RESIDUAL_TOL

    def test_a_faulty_value_is_found_at_its_incidence(self, c3_double_cover):
        psi = induced_incidence_voltage(c3_double_cover.covering, 0)
        transform, signing = integer_split(psi)
        values = signing.astype(float)
        values[3] *= 1 + 1e-6
        ident = block_identity(psi, transform, [values])
        assert ident.witness == 3 and ident.residual == pytest.approx(1e-6)

    def test_a_transform_that_does_not_fit_is_refused(self, c3_double_cover):
        psi = induced_incidence_voltage(c3_double_cover.covering, 0)
        with pytest.raises(DecompositionError, match="does not fit 2 sheets"):
            block_identity(psi, np.ones((2, 1)), integer_split(psi)[1:])
        # values for one incidence, or scalars, are not a matrix per incidence
        transform, signing = integer_split(psi)
        for values in (signing[:1], signing[:, 0, 0]):
            with pytest.raises(DecompositionError, match=r"do not fit 6 incidences"):
                block_identity(psi, transform, [values])

    def test_abelian_decomposition_refuses_a_non_abelian_group(self):
        M = build_complex([[0, 1], [1, 2], [0, 2]])
        psi = IncidenceVoltages(M, 3, 0, np.array([[1, 0, 2], [1, 2, 0]] * 3))
        with pytest.raises(GroupStructureError, match="abelian"):
            abelian_decomposition(psi)


class TestCertifiedSpectra:
    @settings(max_examples=30, deadline=None)
    @given(SEEDS, st.sampled_from([2, 3]), st.sampled_from(["cyclic", "symmetric"]))
    def test_block_spectra_union_to_the_direct_solve_of_the_cover(self, seed, k, flavor):
        # the independent end-to-end check: the spectra the commands read off
        # the blocks are those of the cover, solved densely, up and down
        cov, _ = _random_cover(seed, k, flavor)
        M = cov.base
        for layer in range(0, M.top_dim + 1):
            psi = induced_incidence_voltage(cov, layer)
            dec = decompose_representation(voltage_group(psi.perms), seed=seed % 1000)
            routes = [(dec.transform, block_values(dec, psi.perms)[1:])]
            if k == 2:
                transform, signing = integer_split(psi)
                routes.append((transform, [signing]))
            for transform, values in routes:
                ident = block_identity(psi, transform, values)
                assert max(ident.residual, ident.defect) <= RESIDUAL_TOL
                for scheme in (COMBINATORIAL, NORMALIZED):
                    assert factor_lifted_coboundary(cov, layer, psi, [scheme])[0].holds
                    parts = [layer_spectra(M, layer, scheme, w) for w in [None] + as_weightings(psi, values)]
                    direct = layer_spectra(cov.cover, layer, scheme)
                    for side in (0, 1):
                        certified = SpectrumMultiset([v for p in parts for v in p[side].values])
                        assert compare_spectra(direct[side], certified, "equal", tol=TOL).holds


def _main(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize(
    "cover, command",
    [
        ("C3-double", "union"),
        ("C3-double", "abelian"),
        ("Z3-triangle", "abelian"),
        ("S3-punctured-torus", "inclusion"),
        ("S3-punctured-torus", "decompose"),
        ("Z3-triangle", "decompose"),
    ],
)
def test_no_spectral_command_assembles_or_solves_an_operator_of_the_cover(monkeypatch, tmp_path, cover, command):
    covers, complexes, solved = [], [], []

    def recording(name, log):
        def make(real):
            def wrapper(K, *args, **kwargs):
                log.append(K)
                return real(K, *args, **kwargs)

            return wrapper

        patch_everywhere(monkeypatch, operators, name, make)

    recording("laplacian_matrix", solved)
    recording("_weighted_coboundary", complexes)

    def refuse(*args, **kwargs):
        raise AssertionError("a spectral command eigensolved")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)

    def derived_make(real):
        def derived(M, psi):
            result = real(M, psi)
            covers.append(result.complex)
            return result

        return derived

    patch_everywhere(monkeypatch, covering, "derived_complex", derived_make)
    code, report = _main(COMMANDS[command] + write_cover(tmp_path, cover))
    assert code == 0 and covers and not solved
    assert not any(K is c for K in complexes for c in covers)
    assert not any("solved_sizes" in v for v in report["verdicts"])


@pytest.mark.parametrize(
    "cover, command",
    [
        ("C3-double", "union"),
        ("C3-double", "abelian"),
        ("Z3-triangle", "abelian"),
        ("S3-punctured-torus", "inclusion"),
        ("S3-punctured-torus", "decompose"),
        ("C3-double", "betti"),
        ("S3-punctured-torus", "betti"),
    ],
)
def test_no_verdict_builds_a_weighting(monkeypatch, tmp_path, cover, command):
    # the certificates read the blocks' value arrays; a weighting is only
    # what an operator is assembled from, and no verdict assembles one
    def refuse(self, *args, **kwargs):
        raise AssertionError("a verdict built an IncidenceWeighting")

    monkeypatch.setattr(operators.IncidenceWeighting, "__init__", refuse)
    with pytest.raises(AssertionError, match="built an IncidenceWeighting"):
        operators.IncidenceWeighting(build_complex([[0, 1]]))
    code, report = _main(COMMANDS[command] + write_cover(tmp_path, cover))
    assert code == 0 and report["verdicts"] and all(v["holds"] for v in report["verdicts"])


@pytest.mark.parametrize(
    "cover, command", [("C3-double", "union"), ("Z3-triangle", "abelian"), ("S3-punctured-torus", "inclusion")]
)
def test_both_schemes_share_one_integer_comparison_per_layer(monkeypatch, tmp_path, cover, command):
    compared = []
    real = covering._coboundary_difference

    def counted(cov, i, psi):
        compared.append(i)
        return real(cov, i, psi)

    monkeypatch.setattr(covering, "_coboundary_difference", counted)
    argv = COMMANDS[command] + write_cover(tmp_path, cover)
    code, both = _main(argv)
    layers = {int(v["claim"].split("dim ")[1][0]) - ("down" in v["claim"]) for v in both["verdicts"]}
    assert code == 0 and sorted(compared) == sorted(layers)
    separate = {name: _main(argv + ["--scheme", name])[1]["verdicts"] for name in ("combinatorial", "normalized")}
    assert len(both["verdicts"]) == sum(map(len, separate.values()))
    for v in both["verdicts"]:
        assert v in separate[v["claim"].rsplit(", ", 1)[1][:-1]]


class TestVerdictReports:
    def test_union_reports_the_certificate_and_the_degree(self, tmp_path):
        code, report = _main(COMMANDS["union"] + write_cover(tmp_path, "C3-double"))
        assert code == 0 and len(report["verdicts"]) == 6 and report["results"] == {"degree": 2}
        for v in report["verdicts"]:
            assert (v["tolerance"], v["max_error"], v["factorization_residual"], v["witness"]) == (0.0, 0.0, 0, None)
            assert (v["block_identity_residual"], v["transform_defect"]) == (0.0, 0.0)

    def test_inclusion_solves_nothing(self, tmp_path):
        code, report = _main(COMMANDS["inclusion"] + write_cover(tmp_path, "S3-punctured-torus"))
        assert code == 0 and all(v["tolerance"] == 0.0 for v in report["verdicts"])
        assert report["results"] == {"degree": 3}

    def test_decompose_reports_the_blocks_and_their_certificate(self, tmp_path):
        code, report = _main(COMMANDS["decompose"] + write_cover(tmp_path, "S3-punctured-torus"))
        assert code == 0
        results, certificate = report["results"], report["verdicts"][2]
        # S_3 on 3 sheets: the trivial block and the 2-dimensional one
        assert (results["group_order"], results["block_sizes"]) == (6, [1, 2])
        assert set(results) == {"group_order", "block_sizes", "residual"}
        assert certificate["tolerance"] == RESIDUAL_TOL and certificate["max_error"] <= RESIDUAL_TOL
