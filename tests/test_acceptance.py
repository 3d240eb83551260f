"""Acceptance suite: every exit criterion at its stated tolerance.

One test per criterion; the conftest hook prints a pass/fail line for
each.  Tolerances are pinned here, not configurable: spectra at 1e-8,
block residuals at 1e-10, first-block entrywise agreement at 1e-12,
kernel residuals and singular values at 1e-8, and the integer
identities exactly.
"""

from itertools import product

import numpy as np

from conftest import REFERENCE_FACETS, REFERENCE_FLIP
from oracles import (
    as_weightings,
    betti_numbers,
    block_laplacians,
    coboundary_factorization,
    coboundary_matrix,
    cochain_laplacian,
    cochain_weights,
    compare_spectra,
    compose,
    cycle,
    explicit_down_laplacian,
    exact_rank,
    explicit_up_laplacian,
    harmonic_bases,
    identity,
    incidence_voltages,
    kronecker_coboundary,
    lifted_harmonics,
    nonzeros,
    numeric_kernel_dimension,
    symmetrized_form,
    target_spectrum,
    transposition,
    voltage_coboundary_matrix,
)
from randgen import random_complex, random_connected_cover

from liftlap import (
    COMBINATORIAL,
    NORMALIZED,
    SpectrumMultiset,
    abelian_decomposition,
    block_values,
    build_complex,
    decompose_representation,
    derived_complex,
    edge_voltages,
    induced_incidence_voltage,
    integer_split,
    laplacian_matrix,
    spectrum,
    verify_betti_inequality,
    voltage_group,
)
from liftlap.reference_fixture import BASE_TARGET, COVER_TARGET, SIGNED_TARGET

TOL = 1e-8
BASE_SPECTRUM = target_spectrum(BASE_TARGET, 6)
SIGNED_SPECTRUM = target_spectrum(SIGNED_TARGET, 6)
COVER_SPECTRUM = target_spectrum(COVER_TARGET, 12)
SCHEMES = (COMBINATORIAL, NORMALIZED)


def _swap_only_voltage(M, flip):
    table = {}
    for t in M.faces(2):
        for j in range(3):
            e = t[:j] + t[j + 1 :]
            table[(e, t)] = (1, 0) if (e, t) == flip else (0, 1)
    return incidence_voltages(M, 2, 1, table)


def _assert_exact_identities(cov):
    """Criterion 6 obligations, asserted for one covering."""
    for K in (cov.cover, cov.base):
        for i in range(K.min_dim, K.top_dim):
            assert not (coboundary_matrix(K, i + 1) @ coboundary_matrix(K, i)).any()
    for i in range(0, cov.base.top_dim + 1):
        assert coboundary_factorization(cov, i).residual == 0


def _union_spectrum(parts):
    return SpectrumMultiset([v for s in parts for v in s.values])


def test_criterion_1_reference_fixture_and_companion_spectra(reference):
    # the search re-derives the fixture from its numeric description alone
    assert reference.complex == build_complex(REFERENCE_FACETS)
    assert reference.flip == REFERENCE_FLIP
    M = reference.complex

    base = spectrum(laplacian_matrix(M, 1, "up"))
    assert compare_spectra(base, BASE_SPECTRUM, "equal", tol=TOL).holds

    psi = _swap_only_voltage(M, reference.flip)
    (signing,) = as_weightings(psi, integer_split(psi)[1:])
    signed = spectrum(laplacian_matrix(M, 1, "up", COMBINATORIAL, signing))
    assert compare_spectra(signed, SIGNED_SPECTRUM, "equal", tol=TOL).holds

    dpsi = voltage_coboundary_matrix(M, psi, 1)
    assert np.array_equal(dpsi, kronecker_coboundary(M, psi, 1))
    lifted = spectrum(dpsi.T @ dpsi)
    assert compare_spectra(lifted, COVER_SPECTRUM, "equal", tol=TOL).holds

    # the lift's spectrum is exactly the union of the other two
    assert compare_spectra(lifted, _union_spectrum([base, signed]), tol=TOL).holds

    # the two-sheet block route reproduces the same pair
    blocks = block_laplacians(M, psi, 1)
    assert np.max(np.abs(blocks[0] - laplacian_matrix(M, 1, "up"))) <= 1e-12
    signed_block = spectrum(blocks[1])
    assert compare_spectra(signed_block, SIGNED_SPECTRUM, "equal", tol=TOL).holds


def test_criterion_2_two_fold_union():
    rng = np.random.default_rng(2024)
    instances = 0
    while instances < 50:
        M = random_complex(rng, min_beta1=1)
        out = random_connected_cover(M, 2, rng)
        if out is None:
            continue
        _, result = out
        cov = result.covering
        K = result.complex
        for i in range(0, M.top_dim + 1):
            psi = induced_incidence_voltage(cov, i)
            (signing,) = as_weightings(psi, integer_split(psi)[1:])
            for scheme in SCHEMES:
                lifted = spectrum(laplacian_matrix(K, i, "up", scheme))
                plain = spectrum(laplacian_matrix(M, i, "up", scheme))
                signed = spectrum(laplacian_matrix(M, i, "up", scheme, signing))
                cmp = compare_spectra(lifted, _union_spectrum([plain, signed]), tol=TOL)
                assert cmp.holds, (instances, i, scheme.kind, cmp.witness)
        _assert_exact_identities(cov)
        instances += 1
    assert instances >= 50


def test_criterion_3_spectral_inclusion():
    rng = np.random.default_rng(31337)
    per_fold = {2: 0, 3: 0, 4: 0}
    while min(per_fold.values()) < 8:
        k = int(rng.integers(2, 5))
        M = random_complex(rng, min_beta1=1)
        out = random_connected_cover(M, k, rng)
        if out is None:
            continue
        _, result = out
        K = result.complex
        for scheme in SCHEMES:
            for i in range(0, M.top_dim + 1):
                big = spectrum(laplacian_matrix(K, i, "up", scheme))
                small = spectrum(laplacian_matrix(M, i, "up", scheme))
                assert compare_spectra(small, big, "subset", tol=TOL).holds, (k, i, "up")
            for i in range(1, M.top_dim + 1):
                big = spectrum(laplacian_matrix(K, i, "down", scheme))
                small = spectrum(laplacian_matrix(M, i, "down", scheme))
                assert compare_spectra(small, big, "subset", tol=TOL).holds, (k, i, "down")
        _assert_exact_identities(result.covering)
        per_fold[k] += 1


def test_criterion_4_abelian_cyclic_decomposition():
    rng = np.random.default_rng(444)
    instances = 0
    layers_checked = 0
    while instances < 20:
        k = int(rng.integers(3, 6))
        M = random_complex(rng, min_beta1=1)
        out = random_connected_cover(M, k, rng, flavor="cyclic")
        if out is None:
            continue
        _, result = out
        cov = result.covering
        K = result.complex
        checked_here = 0
        for i in range(0, M.top_dim + 1):
            psi = induced_incidence_voltage(cov, i)
            group = voltage_group(psi.perms)
            assert group.abelian
            if not group.transitive:
                # the regular-action hypothesis fails on this layer
                continue
            weightings = as_weightings(psi, block_values(abelian_decomposition(psi), psi.perms)[1:])
            assert len(weightings) == k - 1
            for scheme in SCHEMES:
                lifted = spectrum(laplacian_matrix(K, i, "up", scheme))
                parts = [spectrum(laplacian_matrix(M, i, "up", scheme))]
                for w in weightings:
                    parts.append(spectrum(laplacian_matrix(M, i, "up", scheme, w)))
                cmp = compare_spectra(lifted, _union_spectrum(parts), "equal", tol=TOL)
                assert cmp.holds, (instances, k, i, scheme.kind, cmp.witness)
            checked_here += 1
        # the vertex/edge layer always sees the whole cyclic group
        assert checked_here >= 1
        layers_checked += checked_here
        _assert_exact_identities(cov)
        instances += 1
    assert layers_checked >= 20


def _nonabelian_base():
    # two triangles with all edges off the spanning tree, joined by a hub
    return build_complex(
        [{0, 1, 2}, {3, 4, 5}, {0, 6}, {1, 6}, {2, 6}, {3, 6}, {4, 6}, {5, 6}]
    )


def _nonabelian_cover(k, gen_a, gen_b):
    M = _nonabelian_base()
    h = identity(k)
    table = {
        (0, 1): gen_a,
        (1, 2): h,
        (0, 2): compose(gen_a, h),
        (3, 4): gen_b,
        (4, 5): h,
        (3, 5): compose(gen_b, h),
    }
    psi = edge_voltages(M, k, table)
    result = derived_complex(M, psi)
    assert result.connected
    return M, result


def test_criterion_5_general_block_decomposition():
    cases = [
        (3, transposition(3, 0, 1), cycle(3)),   # S3
        (4, transposition(4, 0, 1), cycle(4)),   # S4
        (5, transposition(5, 0, 1), cycle(5)),   # S5
    ]
    nonabelian_seen = 0
    for k, a, b in cases:
        M, result = _nonabelian_cover(k, a, b)
        cov = result.covering
        K = result.complex
        for direction, dims in (("up", range(0, M.top_dim + 1)), ("down", range(1, M.top_dim + 1))):
            for i in dims:
                layer = i if direction == "up" else i - 1
                psi = induced_incidence_voltage(cov, layer)
                group = voltage_group(psi.perms)
                if not group.abelian:
                    nonabelian_seen += 1
                dec = decompose_representation(group, seed=0)
                assert dec.residual <= 1e-10
                for scheme in SCHEMES:
                    blocks = block_laplacians(M, psi, i, scheme, direction, dec)
                    first = laplacian_matrix(M, i, direction, scheme)
                    if first.size:
                        assert np.max(np.abs(blocks[0] - first)) <= 1e-12
                    lifted = spectrum(laplacian_matrix(K, i, direction, scheme))
                    parts = [spectrum(b) for b in blocks]
                    cmp = compare_spectra(lifted, _union_spectrum(parts), "equal", tol=TOL)
                    assert cmp.holds, (k, direction, i, scheme.kind, cmp.witness)
        _assert_exact_identities(cov)
    assert nonabelian_seen >= 4


def test_criterion_6_exact_integer_identities(reference):
    # standalone sweep (the randomized suites assert the same identities inline)
    rng = np.random.default_rng(66)
    done = 0
    while done < 10:
        M = random_complex(rng, min_beta1=1)
        out = random_connected_cover(M, int(rng.integers(2, 5)), rng)
        if out is None:
            continue
        _, result = out
        _assert_exact_identities(result.covering)
        done += 1
    # and for the recovered reference fixture's own coboundaries
    M = reference.complex
    for i in range(M.min_dim, M.top_dim):
        assert not (coboundary_matrix(M, i + 1) @ coboundary_matrix(M, i)).any()


def test_criterion_7_betti_inequality():
    rng = np.random.default_rng(77)
    done = 0
    while done < 10:
        M = random_complex(rng, min_beta1=1)
        out = random_connected_cover(M, int(rng.integers(2, 4)), rng)
        if out is None:
            continue
        _, result = out
        rep = verify_betti_inequality(result.covering)
        assert rep.holds
        cover = betti_numbers(result.complex).betti
        for v in rep.per_dim:
            assert v.betti_cover == cover[v.dim] >= v.betti_base
            # the base harmonics lift to independent harmonic cochains
            for scheme in SCHEMES:
                basis = harmonic_bases(result.covering.base, {v.dim: v.betti_base}, scheme)[v.dim]
                if v.betti_base:
                    residual, sigma = lifted_harmonics(result.covering, v.dim, basis, scheme)
                    assert residual <= TOL and sigma >= TOL
        done += 1

    # strict witness: every connected 2-lift of the 5-edge near-complete
    # graph on 4 vertices gains an independent cycle
    M = build_complex([{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}])
    assert betti_numbers(M).betti[1] == 2
    edges = M.faces(1)
    strict = 0
    for flips in product([(0, 1), (1, 0)], repeat=len(edges)):
        result = derived_complex(M, edge_voltages(M, 2, dict(zip(edges, flips))))
        if not result.connected:
            continue
        assert betti_numbers(result.complex).betti[1] == 3
        strict += 1
    assert strict > 0


def test_criterion_7b_reference_pair_equality(reference):
    # on the recovered reference base, every connected 2-lift keeps the
    # Betti numbers equal in all dimensions
    rng = np.random.default_rng(775)
    M = reference.complex
    base_betti = betti_numbers(M).betti
    assert base_betti == {-1: 0, 0: 0, 1: 1, 2: 0}
    out = random_connected_cover(M, 2, rng)
    assert out is not None
    _, result = out
    assert betti_numbers(result.complex).betti == base_betti
    rep = verify_betti_inequality(result.covering)
    assert rep.holds
    assert all(v.betti_base == v.betti_cover and v.betti_twisted == 0 for v in rep.per_dim)
    # the lifted coboundary of the reference pair factors exactly too
    for i in range(0, M.top_dim + 1):
        assert coboundary_factorization(result.covering, i).residual == 0


def test_criterion_8_cross_method_oracles():
    rng = np.random.default_rng(88)

    # exact integer rank vs numeric kernel on 30 random complexes
    for _ in range(30):
        K = random_complex(rng)
        report = betti_numbers(K)
        for i in K.dims():
            up_rank = exact_rank(nonzeros(coboundary_matrix(K, i))) if i < K.top_dim else 0
            down_rank = exact_rank(nonzeros(coboundary_matrix(K, i - 1))) if i > K.min_dim else 0
            assert report.betti[i] == K.face_count(i) - up_rank - down_rank
            for scheme in SCHEMES:
                assert numeric_kernel_dimension(K, i, scheme) == report.betti[i]

    # tensor vs entrywise lifted coboundary, exact, on random coverings
    done = 0
    while done < 50:
        M = random_complex(rng, min_beta1=1)
        out = random_connected_cover(M, int(rng.integers(2, 5)), rng)
        if out is None:
            continue
        _, result = out
        for i in range(0, M.top_dim + 1):
            psi = induced_incidence_voltage(result.covering, i)
            assert np.array_equal(voltage_coboundary_matrix(M, psi, i), kronecker_coboundary(M, psi, i))
        done += 1

    # face-by-face cochain operators vs the cochain matrix products, and
    # their symmetrized forms vs the assembled Hermitian operators
    for _ in range(20):
        K = random_complex(rng)
        for scheme in SCHEMES:
            for i in range(0, K.top_dim + 1):
                weights = cochain_weights(K, i, scheme)
                for kind, explicit in (
                    ("up", explicit_up_laplacian(K, i, scheme)),
                    ("down", explicit_down_laplacian(K, i, scheme)),
                ):
                    assert np.max(np.abs(cochain_laplacian(K, i, kind, scheme) - explicit)) <= 1e-10
                    ours = laplacian_matrix(K, i, kind, scheme)
                    assert np.max(np.abs(symmetrized_form(explicit, weights) - ours)) <= 1e-10
