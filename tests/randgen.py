"""Seeded random complexes and consistent voltage assignments.

Used by the randomized verification suites.  Voltage generation treats
the 2-face consistency relations as a constraint-satisfaction problem:
spanning-tree edges carry the identity, the remaining edges are filled
in randomly with forced values propagated through any triangle whose
other two edges are already assigned; contradictory forcings restart
the attempt.
"""

from __future__ import annotations

import numpy as np

from oracles import compose, cycle, identity, inverse, vertex_ids

from liftlap.complexes import SimplicialComplex, build_complex
from liftlap.covering import DerivedComplexResult, EdgeVoltages, derived_complex, edge_voltages
from liftlap.homology import exact_betti_numbers


def first_betti(M: SimplicialComplex) -> int:
    return exact_betti_numbers(M).get(1, 0)


def random_complex(
    rng: np.random.Generator,
    max_vertices: int = 8,
    max_dim: int = 3,
    max_faces: int = 30,
    min_beta1: int = 0,
    attempts: int = 400,
) -> SimplicialComplex:
    """A random connected complex within the given size budget.

    ``max_faces`` counts faces of dimension >= 0.  ``min_beta1`` insists
    on at least that many independent 1-cycles, which is what makes
    nontrivial connected covers possible.
    """
    for _ in range(attempts):
        n = int(rng.integers(4, max_vertices + 1))
        order = rng.permutation(n)
        facets = [tuple(sorted((int(order[t]), int(order[t + 1])))) for t in range(n - 1)]
        extras = int(rng.integers(2, 7))
        for _ in range(extras):
            size = int(rng.integers(2, min(max_dim + 1, n) + 1))
            verts = rng.choice(n, size=size, replace=False)
            facets.append(tuple(sorted(int(v) for v in verts)))
        K = build_complex(facets)
        total = sum(K.face_count(d) for d in range(0, K.top_dim + 1))
        if total > max_faces:
            continue
        if min_beta1 and first_betti(K) < min_beta1:
            continue
        return K
    raise RuntimeError("could not sample a complex within the attempt budget")


def _spanning_tree(M: SimplicialComplex) -> set:
    root = vertex_ids(M)[0]
    seen = {root}
    tree = set()
    adj: dict[int, list] = {v: [] for v in vertex_ids(M)}
    for u, v in M.faces(1):
        adj[u].append(v)
        adj[v].append(u)
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                tree.add(tuple(sorted((u, v))))
                stack.append(v)
    return tree


def _random_perm(rng, k: int, flavor: str):
    if flavor == "cyclic":
        power = int(rng.integers(0, k))
        p = identity(k)
        for _ in range(power):
            p = compose(cycle(k), p)
        return p
    return tuple(int(x) for x in rng.permutation(k))


def random_edge_voltages(
    M: SimplicialComplex,
    k: int,
    rng: np.random.Generator,
    flavor: str = "symmetric",
    attempts: int = 60,
) -> EdgeVoltages | None:
    """A random voltage assignment consistent around every 2-face.

    ``flavor`` is ``"symmetric"`` (arbitrary permutations) or
    ``"cyclic"`` (powers of one k-cycle).  Returns None when no
    consistent assignment is found within the attempt budget.
    """
    edges = list(M.faces(1))
    tris = list(M.faces(2))
    tree = _spanning_tree(M)
    tri_edges = {
        t: [tuple(sorted((t[a], t[b]))) for a, b in ((0, 1), (1, 2), (0, 2))] for t in tris
    }

    def propagate(assign, todo):
        # force triangle-completing edges; False on contradiction
        changed = True
        while changed:
            changed = False
            for t in tris:
                uv, vw, uw = tri_edges[t]
                known = sum(e in assign for e in (uv, vw, uw))
                if known == 3:
                    if compose(assign[uv], assign[vw]) != assign[uw]:
                        return False
                elif known == 2:
                    if uv not in assign:
                        missing, val = uv, compose(assign[uw], inverse(assign[vw]))
                    elif vw not in assign:
                        missing, val = vw, compose(inverse(assign[uv]), assign[uw])
                    else:
                        missing, val = uw, compose(assign[uv], assign[vw])
                    assign[missing] = val
                    todo.remove(missing)
                    changed = True
        return True

    for _ in range(attempts):
        assign: dict[tuple, tuple] = {e: identity(k) for e in tree}
        todo = [e for e in edges if e not in tree]
        rng.shuffle(todo)
        ok = propagate(assign, todo)
        while ok and todo:
            assign[todo.pop()] = _random_perm(rng, k, flavor)
            ok = propagate(assign, todo)
        if ok:
            return edge_voltages(M, k, assign)
    return None


def random_connected_cover(
    M: SimplicialComplex,
    k: int,
    rng: np.random.Generator,
    flavor: str = "symmetric",
    attempts: int = 60,
) -> tuple[EdgeVoltages, DerivedComplexResult] | None:
    """Sample consistent voltages until the derived complex is connected."""
    for _ in range(attempts):
        psi = random_edge_voltages(M, k, rng, flavor)
        if psi is None:
            return None
        result = derived_complex(M, psi)
        if result.connected:
            return psi, result
    return None
