import re

import numpy as np
import pytest

from liftlap import build_complex, edge_voltages, verify_covering
from liftlap.reference_fixture import search_reference_fixture
from oracles import vertex_ids

_CRITERION = re.compile(r"test_criterion_(\d+[a-z]?)_(\w+)")


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when != "call":
        return
    m = _CRITERION.search(report.nodeid)
    if m:
        status = "PASS" if report.passed else "FAIL"
        label = m.group(2).replace("_", " ")
        print(f"\n[acceptance] criterion {m.group(1)} ({label}): {status}", flush=True)

# Canonical search result, frozen for the unit tests; the acceptance
# suite re-derives it from scratch and checks it still matches.
REFERENCE_FACETS = ((0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (2, 3, 4), (3, 4, 5))
REFERENCE_FLIP = ((0, 2), (0, 1, 2))


def cycle_complex(n, include_empty=True):
    return build_complex(
        [(i, (i + 1) % n) for i in range(n)], include_empty=include_empty
    )


def scrambled_covering(rng, K, vertex_map, M):
    """The covering with the cover's vertices relabelled at random, so the
    projection is not monotone and the orientation signs are nontrivial."""
    vertices = vertex_ids(K)
    relabel = {v: int(r) for v, r in zip(vertices, rng.permutation(len(vertices)))}
    K2 = build_complex(
        [tuple(relabel[v] for v in f) for f in K.facets()], include_empty=K.include_empty
    )
    images = dict(vertex_map.tolist())
    return verify_covering(K2, M, {relabel[v]: images[v] for v in vertices})


def cycle_laplacian_values(n):
    """Closed-form spectrum of the n-cycle graph Laplacian."""
    return sorted(2 - 2 * np.cos(2 * np.pi * j / n) for j in range(n))


@pytest.fixture(scope="session")
def reference():
    fixture = search_reference_fixture()
    assert fixture.flip is not None, "reference complex not recovered by the spectrum search"
    return fixture


@pytest.fixture()
def triangle():
    return build_complex([{0, 1, 2}])


@pytest.fixture()
def hollow_triangle():
    return build_complex([{0, 1}, {1, 2}, {0, 2}])


@pytest.fixture()
def c3_double_cover():
    """The 6-cycle as a 2-fold cover of the 3-cycle (one flipped edge)."""
    from liftlap import derived_complex

    base = cycle_complex(3)
    psi = edge_voltages(base, 2, {(0, 1): (1, 0)})
    result = derived_complex(base, psi)
    assert result.connected
    return result


# RP^2 with 6 vertices (the hemi-icosahedron), and the edges whose swap
# lifts it to its orientation double cover, the icosahedron
RP2_FACETS = ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1), (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3))
RP2_SWAPPED_EDGES = ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))


@pytest.fixture()
def rp2_double_cover():
    """The icosahedron as the 2-fold cover of RP^2: the first
    non-orientable base, where b_2 rises from 0 to 1."""
    from liftlap import derived_complex

    base = build_complex([set(f) for f in RP2_FACETS])
    psi = edge_voltages(base, 2, {e: (1, 0) for e in RP2_SWAPPED_EDGES})
    result = derived_complex(base, psi)
    assert result.connected
    return result
