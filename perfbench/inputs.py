"""Seeded benchmark inputs: triangulated tori and seam voltages.

The n x n torus has vertex ``i * n + j`` at grid point ``(i, j)``; every
grid square ``(i, j)``-``(i+1, j+1)`` (indices mod n) is split along its
diagonal into two triangles.  The punctured torus drops the two
triangles and the diagonal of the corner square ``(n-1, n-1)``, so its
fundamental group is free on the two seam loops.

Voltages are built from two seam permutations ``a`` (crossing the row
seam, from row n-1 to row 0) and ``b`` (crossing the column seam).  On a
full torus the only edge crossing both seams is the corner diagonal,
which needs ``a`` and ``b`` to commute: cyclic powers do.  The punctured
torus has no such edge, so any pair is a consistent voltage assignment.
Every other triangle crosses at most one seam, in and out again, so the
2-face cocycle condition holds by construction.  Nothing is sampled by
rejection against the complex, only against the group the pair
generates.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


def torus_facets(n: int, punctured: bool = False) -> list[list[int]]:
    """Triangles of the n x n torus, without the corner square if punctured."""
    if n < 3:
        raise ValueError(f"a triangulated torus needs n >= 3, got {n}")
    facets = []
    for i in range(n):
        for j in range(n):
            if punctured and i == j == n - 1:
                continue
            a = i * n + j
            b = ((i + 1) % n) * n + j
            c = i * n + (j + 1) % n
            d = ((i + 1) % n) * n + (j + 1) % n
            facets.append(sorted((a, b, d)))
            facets.append(sorted((a, c, d)))
    return facets


def _edges(facets) -> list[tuple[int, int]]:
    out = set()
    for f in facets:
        for x in range(len(f)):
            for y in range(x + 1, len(f)):
                out.add((f[x], f[y]))
    return sorted(out)


def _compose(p, q):
    """``p`` after ``q``, the library's composition order."""
    return tuple(p[x] for x in q)


def _inverse(p):
    inv = [0] * len(p)
    for j, i in enumerate(p):
        inv[i] = j
    return tuple(inv)


def _power(p, e):
    out = tuple(range(len(p)))
    for _ in range(e % math.factorial(len(p))):
        out = _compose(p, out)
    return out


def _cycle(k: int):
    return tuple((j + 1) % k for j in range(k))


def _transport(n: int, src: int, dst: int, a, b):
    """Sheet permutation carried along the grid step ``src -> dst``."""
    k = len(a)
    out = tuple(range(k))
    (si, sj), (di, dj) = divmod(src, n), divmod(dst, n)
    if (si, di) == (n - 1, 0):
        out = _compose(a, out)
    elif (si, di) == (0, n - 1):
        out = _compose(_inverse(a), out)
    if (sj, dj) == (n - 1, 0):
        out = _compose(b, out)
    elif (sj, dj) == (0, n - 1):
        out = _compose(_inverse(b), out)
    return out


def seam_voltages(n: int, facets, a, b) -> dict:
    """Edge voltage document: each edge carries its seam crossings.

    The file format stores, per edge ``[u, v]`` with ``u < v``, the
    1-based permutation taking sheets at ``v`` to sheets at ``u``;
    identity edges are omitted.
    """
    k = len(a)
    ident = tuple(range(k))
    records = []
    for u, v in _edges(facets):
        p = _transport(n, v, u, a, b)
        if p != ident:
            records.append({"edge": [u, v], "perm": [x + 1 for x in p]})
    return {"k": k, "edges": records}


def group_closure(gens) -> set:
    k = len(gens[0])
    ident = tuple(range(k))
    seen = {ident}
    frontier = [ident]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = _compose(g, cur)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _transitive(group, k: int) -> bool:
    return len({g[0] for g in group}) == k


def cyclic_pair(rng, k: int):
    """A random class ``(x, y)`` in Z_k^2 generating Z_k, as k-cycle powers."""
    while True:
        x, y = (int(v) for v in rng.integers(0, k, size=2))
        if math.gcd(math.gcd(x, y), k) == 1:
            c = _cycle(k)
            return _power(c, x), _power(c, y)


def full_symmetric_pair(rng, k: int):
    """A random pair of permutations generating all of S_k (so transitive).

    For k >= 4 neither may be an involution, so the seams always carry the
    four distinct voltages a, a^-1, b, b^-1: the coboundary then splits into
    the same number of pieces, and the same work, for every seed.
    """
    ident = tuple(range(k))
    while True:
        a = tuple(int(v) for v in rng.permutation(k))
        b = tuple(int(v) for v in rng.permutation(k))
        if k >= 4 and ident in (_compose(a, a), _compose(b, b)):
            continue
        group = group_closure([a, b])
        if len(group) == math.factorial(k) and _transitive(group, k):
            return a, b


def complex_doc(facets) -> dict:
    return {"facets": facets, "include_empty": True, "weights": {"scheme": "combinatorial"}}


def write_json(path: Path, doc) -> str:
    """Write ``doc`` and return the SHA-256 of the bytes written."""
    data = json.dumps(doc, sort_keys=True).encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()
