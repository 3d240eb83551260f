"""Voltage groups, their permutation representations, and block values.

Conjugating by a matrix T that block-diagonalizes the permutation
representation splits the lifted Laplacian into one block per
sub-representation rho_j: the base operator with every incidence (F,
Fbar) carrying the matrix rho_j(psi(F, Fbar)).  The first block is the
base operator itself; a two-fold cover's second block is the signed
operator, and the blocks of an abelian group are its character-weighted
operators.  :func:`block_identity` certifies ``P(psi_e) T = T (+)_j
rho_j(psi_e)`` at every incidence, on the value arrays of the blocks,
and the orthogonality of T's columns.  With the factorization of the
lifted coboundary (:func:`~liftlap.covering.factor_lifted_coboundary`)
the lifted operator is then similar to the direct sum of the blocks, so
the lifted spectrum is read off the blocks and the cover is never solved.

T is exact in integers for the two-fold union, whose T ``[[1, 1], [1,
-1]]`` and signing are :func:`integer_split` at k = 2 (the split the
Betti identity of :mod:`liftlap.homology` reads), and for inclusion (the
column ``1_k``); otherwise it is the transform found below.  No array
holds a matrix per group element: a group is the sorted int64 array of
its permutations, and :func:`block_values` conjugates each voltage once.

The transform is found numerically from the generators: the mean of a
random Hermitian matrix over each orbital (an orbit of G on ordered pairs
of points; Serre, *Linear Representations of Finite Groups*, 1.2 and 2.3)
lies in the commutant algebra, and its eigenspaces are invariant
subspaces, the blocks.  They are certified by the off-block residual at
the generators, since a subspace invariant under every generator is
invariant under G.  Irreducibility is not certified, only invariance and
the trivial first block, which is all the spectral statements need.  The
commutant element is complex Hermitian, since a real one cannot separate
complex-conjugate characters (on Z_3 it leaves one block of size 2), so
T and every block value are complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .complexes import _label_components, _unique_rows
from .covering import IncidenceVoltages, check_perms
from .errors import DecompositionError, GroupStructureError, VoltageError

# the off-block residual that certifies a decomposition, and how many
# random commutant elements are tried before giving up
RESIDUAL_TOL = 1e-10
MAX_RETRIES = 8


@dataclass(frozen=True, eq=False)
class VoltageGroup:
    """The subgroup of S_k generated by the voltages of an assignment.

    ``elements`` is the read-only ``(|G|, k)`` int64 array of the group's
    permutations in sorted row order, and ``generators`` the ``(m, k)``
    array of the distinct generating rows, sorted."""

    elements: np.ndarray
    generators: np.ndarray

    @property
    def k(self) -> int:
        return self.elements.shape[1]

    @property
    def order(self) -> int:
        return self.elements.shape[0]

    @property
    def abelian(self) -> bool:
        # a group is abelian exactly when its generators commute:
        # g[:, g][a, b] is generator a composed after generator b
        g = self.generators
        products = g[:, g]
        return bool((products == products.transpose(1, 0, 2)).all())

    @property
    def transitive(self) -> bool:
        # an orbit is a component of the graph with edges x - g[x]
        g = self.generators
        edges = np.stack([np.broadcast_to(np.arange(self.k), g.shape), g], axis=2).reshape(-1, 2)
        return not _label_components(self.k, edges).any()


def voltage_group(generators) -> VoltageGroup:
    """Closure of the voltage values under composition.

    ``generators`` is an ``(m, k)`` array of permutations of 0..k-1, such
    as the ``perms`` of an :class:`~liftlap.covering.IncidenceVoltages`;
    with no rows it generates the trivial group on k points.  Closure
    under composition suffices: in a finite symmetric group the generated
    semigroup already contains identity and inverses.
    """
    rows = np.asarray(generators)
    if rows.ndim != 2:
        raise VoltageError(f"generators must be an (m, k) array of permutations, not shape {rows.shape}")
    k = rows.shape[1]
    gens = check_perms(_unique_rows(rows)[0].tolist(), k)
    ident = tuple(range(k))
    elements = {ident}
    frontier = [ident]
    steps = gens.tolist()
    while frontier:
        cur = frontier.pop()
        for g in steps:
            # g composed after cur: g[cur[j]]
            nxt = tuple(g[x] for x in cur)
            if nxt not in elements:
                elements.add(nxt)
                frontier.append(nxt)
    flat = np.fromiter(chain.from_iterable(elements), np.int64, len(elements) * k)
    table = _unique_rows(flat.reshape(-1, k))[0]
    table.flags.writeable = gens.flags.writeable = False
    return VoltageGroup(table, gens)


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """A certified block-diagonalization of a permutation representation.

    ``transform`` is unitary; for every group element ``g`` the matrix
    ``transform^H P^g transform`` is block diagonal with ``block_sizes``
    on the diagonal (its blocks are :func:`block_values`), and the first
    block is the 1x1 identity on the span of the all-ones vector.
    ``residual`` is the largest off-block magnitude at the generators."""

    group: VoltageGroup
    transform: np.ndarray
    block_sizes: tuple
    residual: float


def _cluster(sorted_vals: np.ndarray, gap: float) -> list[slice]:
    cuts = [0, *(np.flatnonzero(np.diff(sorted_vals) > gap) + 1).tolist(), len(sorted_vals)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]


def _orbitals(group: VoltageGroup) -> np.ndarray:
    """The ``(k, k)`` array labelling each ordered pair of points (a, b) by
    the least ``a * k + b`` in its orbit under G; each generator g joins
    (a, b) to (g[a], g[b])."""
    k, g = group.k, group.generators
    moved = (g[:, :, None] * k + g[:, None, :]).reshape(len(g), k * k)
    ends = np.stack([np.broadcast_to(np.arange(k * k), moved.shape), moved], axis=2).reshape(-1, 2)
    return _label_components(k * k, ends).reshape(k, k)


def _orbital_mean(orbital: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The group average ``(1/|G|) sum_g P^g h P^{g^-1}``: the mean of h
    over each orbital, which every element maps onto itself."""
    labels = orbital.ravel()
    count = np.bincount(labels)[labels]
    real, imag = (np.bincount(labels, part.ravel())[labels] / count for part in (h.real, h.imag))
    return (real + 1j * imag).reshape(h.shape)


def decompose_representation(group: VoltageGroup, seed: int = 0) -> BlockDecomposition:
    """Numerically split the permutation representation into blocks.

    The transform is ``T = [1/sqrt(k) | comp V]``: the normalized
    all-ones vector (the trivial sub-representation), then an orthonormal
    basis comp of its complement times the eigenvectors V, in eigenvalue
    order, of a random Hermitian commutant element, the mean of H over
    each orbital; the eigenvalue clusters give the block sizes.  Fresh
    randomness is drawn until the off-block residual of T at the
    generators certifies the result, and a failure to certify raises.
    The blocks follow the trivial one by size, then by character over
    the sorted group elements.
    """
    k, gens = group.k, group.generators
    ones = np.ones((k, 1)) / math.sqrt(k)
    # orthonormal basis of the complement of the all-ones vector
    comp = np.linalg.qr(np.hstack([ones, np.eye(k)[:, : k - 1]]))[0][:, 1:]
    orbital = _orbitals(group)
    rng = np.random.default_rng(seed)
    for _ in range(MAX_RETRIES):
        raw = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        reduced = comp.conj().T @ _orbital_mean(orbital, (raw + raw.conj().T) / 2) @ comp
        vals, vecs = np.linalg.eigh((reduced + reduced.conj().T) / 2)
        spread = max(1.0, float(vals[-1] - vals[0])) if len(vals) else 1.0
        sizes = [1] + [sl.stop - sl.start for sl in _cluster(vals, 1e-6 * spread)]
        transform = np.hstack([ones, comp @ vecs])
        block = np.repeat(np.arange(len(sizes)), sizes)
        # a subspace invariant under every generator is invariant under G
        conj = transform.conj().T @ transform[np.argsort(gens, axis=1)]
        residual = float(np.abs(conj[:, block[:, None] != block]).max(initial=0.0))
        if residual <= RESIDUAL_TOL:
            break
    else:
        raise DecompositionError(f"block decomposition residual {residual:g} above {RESIDUAL_TOL:g}")

    keys = []
    for j in range(1, len(sizes)):
        # trace(T_j^H P^g T_j) is sum_x Q[x, g[x]] for the projector Q = T_j T_j^H
        proj = transform[:, block == j] @ transform[:, block == j].conj().T
        character = sum(proj[x, group.elements[:, x]] for x in range(k))
        # the character rounded to 8 places, real and imaginary part of each element in turn
        rounded = np.round(np.stack([character.real, character.imag], axis=1), 8).ravel().tolist()
        keys.append((sizes[j], rounded, j))
    order = [0] + [j for _, _, j in sorted(keys)]
    transform = transform[:, np.concatenate([np.flatnonzero(block == j) for j in order])]
    return BlockDecomposition(group, transform, tuple(sizes[j] for j in order), residual)


def block_values(dec: BlockDecomposition, perms) -> list[np.ndarray]:
    """``rho_j(p) = T_j^H P(p) T_j`` for every block j at each row p of the
    ``(m, k)`` array ``perms``, such as a layer's ``psi.perms``: an ``(m,
    d_j, d_j)`` complex128 array per block.  Each distinct row is located
    among the sorted elements by one binary search and conjugated once;
    ``P(p) T`` is the rows of T gathered by the inverse of p.  The first
    row that is no element of the decomposed group, one on another number
    of sheets included, is named in a :class:`VoltageError`."""
    perms, elements = np.asarray(perms), dec.group.elements
    # the distinct voltages, sorted, and the position of each row's among them
    used, where = _unique_rows(perms)
    # a voltage on another number of sheets equals no element
    at = _locate_rows(elements, used) if perms.shape[1] == dec.group.k else np.full(len(used), -1)
    if (at < 0).any():
        p = tuple(perms[np.argmax(at[where] < 0)].tolist())
        raise VoltageError(f"voltage {p!r} is not an element of the decomposed group")
    T = dec.transform
    conj = T.conj().T @ T[np.argsort(used, axis=1)]
    offsets = np.cumsum((0,) + dec.block_sizes)
    return [conj[where, a:b, a:b] for a, b in zip(offsets, offsets[1:])]


def _locate_rows(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The index of each row of ``rows`` in ``table``, whose rows are
    distinct and sorted as :func:`_unique_rows` returns them, or -1 where
    no row equals it: one binary search for all rows at once, at
    O(m·k·log n) for m rows of length k in a table of n."""
    n, pick = len(table), np.arange(len(rows))
    below = np.zeros(len(rows), np.int64)  # table rows found less than each row
    for bit in reversed(range(n.bit_length())):
        probe = below + (1 << bit)
        at = table[np.minimum(probe, n) - 1]
        first = (at != rows).argmax(axis=1)  # the first column where they differ
        less = (probe <= n) & (at[pick, first] < rows[pick, first])
        below[less] = probe[less]
    hit = (below < n) & (table[np.minimum(below, n - 1)] == rows).all(axis=1)
    return np.where(hit, below, -1)


def integer_split(psi: IncidenceVoltages) -> tuple[np.ndarray, np.ndarray]:
    """Q^k = Q.1 (+) V in integers: the int64 ``T = [1 | e_j - e_(k-1)]``
    and the ``(n, k-1, k-1)`` int64 stack of R(psi_e), each voltage's
    action on V in the basis e_j - e_(k-1), ``R[a, j] = [p_j = a] -
    [p_(k-1) = a]``, so ``P(p) T = T (1 (+) R(p))`` and ``T^T T = diag(k,
    I + J)``.  At k = 2, ``T = [[1, 1], [1, -1]]`` and R(p) = -1 exactly
    where p swaps the sheets: the incidence signing."""
    m = psi.k - 1
    transform = np.hstack([np.ones((m + 1, 1), np.int64), np.eye(m + 1, m, dtype=np.int64)])
    transform[m, 1:] = -1
    a = np.arange(m)[:, None]
    return transform, (psi.perms[:, None, :m] == a).astype(np.int64) - (psi.perms[:, None, m:] == a)


def abelian_decomposition(psi: IncidenceVoltages, seed: int = 0) -> BlockDecomposition:
    """The decomposition of ``psi``'s voltage group into its k characters,
    refused with the reason when the group is not abelian or not
    transitive.  Then the group is regular of order k, and the
    :func:`block_values` after the first are its k-1 nontrivial
    characters: each sends a voltage to its character value, on the unit
    circle."""
    group = voltage_group(psi.perms)
    if not group.abelian:
        raise GroupStructureError("character weightings require an abelian voltage group")
    if not group.transitive:
        raise GroupStructureError("character weightings require a transitive action (a connected lift)")
    dec = decompose_representation(group, seed=seed)
    if any(s != 1 for s in dec.block_sizes):
        raise DecompositionError("abelian decomposition produced a block of size > 1")
    return dec


@dataclass(frozen=True)
class BlockIdentity:
    """How far ``P(psi_e) T = T (+)_j value_j[e]`` is from holding.

    ``residual`` is the largest entry of the difference over every
    incidence e of the layer, and ``witness`` the position of the
    incidence where it is largest (``None`` without incidences).
    ``defect`` is the largest entry of ``T^H T - c I`` with ``c`` the
    squared norm of T's first column: 0 when T's columns are orthogonal
    and of one length."""

    residual: float
    defect: float
    witness: int | None


def block_identity(psi: IncidenceVoltages, transform, values: list) -> BlockIdentity:
    """Check ``P(psi_e) T = T (+)_j value_j[e]`` at every incidence e of
    ``psi``'s layer.

    Block 0 is the base operator (value 1) and block ``j >= 1`` has the
    ``(n, d_j, d_j)`` values ``values[j - 1]``, a matrix per incidence as
    :func:`block_values` and :func:`integer_split` give them (another shape
    is refused); the columns
    of the ``(k, m)`` matrix ``transform`` are taken block by block, so m
    is the sum of the block sizes.  With the identity and T's columns
    orthogonal of one length, the lifted coboundary that
    :func:`~liftlap.covering.factor_lifted_coboundary` certifies is
    carried by ``1 (x) T`` into the direct sum of the decorated base
    coboundaries, and with them every Laplacian: when T is square the
    lifted spectrum is the union of the block spectra, and a single column
    spans an invariant subspace whose spectrum is block 0's.  ``P(p) T``
    is the rows of T gathered by the inverse of p.
    """
    T = np.asarray(transform)
    n, k = len(psi.perms), psi.k
    values = [np.ones((n, 1, 1), np.int64), *map(np.asarray, values)]
    offsets = np.cumsum([0] + [v.shape[-1] for v in values])
    if T.ndim != 2 or T.shape != (k, offsets[-1]) or any(v.shape != (n,) + v.shape[-1:] * 2 for v in values):
        raise DecompositionError(
            f"a transform of shape {T.shape} does not fit {k} sheets and blocks of size {offsets[-1]}, "
            f"or block values of shapes {[v.shape for v in values[1:]]} do not fit {n} incidences"
        )
    gram = T.conj().T @ T
    defect = float(np.max(np.abs(gram - gram[0, 0].real * np.eye(len(gram)))))
    if not n:
        return BlockIdentity(0.0, defect, None)
    moved = T[np.argsort(psi.perms, axis=1)]
    blocked = np.empty(moved.shape, np.result_type(T, *values))
    for a, b, v in zip(offsets, offsets[1:], values):
        blocked[:, :, a:b] = T[:, a:b] @ v
    worst = np.abs(moved - blocked).max(axis=(1, 2))
    return BlockIdentity(float(worst.max()), defect, int(np.argmax(worst)))
