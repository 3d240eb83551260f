"""Permutations of {0, ..., k-1} stored as image tuples.

A permutation ``p`` maps ``j`` to ``p[j]``.  File formats use 1-based
image lists; everything in memory is 0-based.
"""

from __future__ import annotations

from .complexes import _index
from .errors import VoltageError

Perm = tuple


def identity(k: int) -> Perm:
    return tuple(range(k))


def check_perm(p, k: int) -> Perm:
    p = tuple(x if type(x) is int else _index(x, "perm image") for x in p)
    if len(p) != k or sorted(p) != list(range(k)):
        raise VoltageError(f"{p!r} is not a permutation of 0..{k - 1}")
    return p


def compose(p: Perm, q: Perm) -> Perm:
    """Function composition: ``compose(p, q)[j] == p[q[j]]`` (q applied first)."""
    return tuple(p[x] for x in q)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for j, i in enumerate(p):
        inv[i] = j
    return tuple(inv)

