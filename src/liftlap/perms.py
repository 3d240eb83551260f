"""Permutations of {0, ..., k-1} stored as image tuples.

A permutation ``p`` maps ``j`` to ``p[j]``.  File formats use 1-based
image lists; everything in memory is 0-based.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .complexes import _ids
from .errors import MalformedInputError, VoltageError

Perm = tuple


def identity(k: int) -> Perm:
    return tuple(range(k))


def check_perms(ps, k: int) -> np.ndarray:
    """The permutations ``ps`` of 0..k-1 as one ``(n, k)`` int64 array,
    checked in one pass; the first bad one is named."""
    ps = list(map(tuple, ps))
    try:
        ids = _ids(chain.from_iterable(ps), "perm image")
    except MalformedInputError:
        for p in ps if len(ps) > 1 else ():  # one at a time, to name the first bad one
            check_perms([p], k)
        raise
    lens = np.fromiter(map(len, ps), np.int64, len(ps))
    starts, bad = np.cumsum(lens) - lens, lens != k
    rows = ids[starts[~bad, None] + np.arange(k)]
    bad[~bad] = (np.sort(rows, axis=1) != np.arange(k)).any(axis=1)
    if bad.any():
        j = int(np.argmax(bad))
        p = tuple(ids[starts[j] : starts[j] + lens[j]].tolist())
        raise VoltageError(f"{p!r} is not a permutation of 0..{k - 1}")
    return rows


def compose(p: Perm, q: Perm) -> Perm:
    """Function composition: ``compose(p, q)[j] == p[q[j]]`` (q applied first)."""
    return tuple(p[x] for x in q)

