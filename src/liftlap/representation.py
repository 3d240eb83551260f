"""Voltage groups, their permutation representations, and block Laplacians.

Conjugating by a matrix that block-diagonalizes the permutation
representation splits the lifted Laplacian into one block per
sub-representation rho_j.  Block j is itself a decorated base Laplacian:
the base operator with every incidence (F, Fbar) weighted by the matrix
rho_j(psi(F, Fbar)), given by :func:`block_weightings` and solved by
:func:`~liftlap.operators.layer_spectra` like any other weighting.  The
first block is the base Laplacian itself; a two-fold cover's second
block is the signed Laplacian, and the blocks of an abelian group are
its character-weighted Laplacians.

The block-diagonalizing transform is found numerically: a random
Hermitian element of the commutant algebra is eigendecomposed, its
eigenspaces (which are invariant subspaces) become the blocks, and the
result is certified a posteriori by an off-block residual bound.  Full
irreducibility of the blocks is not certified - only invariance and the
trivial first block - which is all the spectral statements need.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import perms
from .complexes import connected_components
from .covering import IncidenceVoltages
from .errors import DecompositionError, GroupStructureError, VoltageError
from .operators import IncidenceWeighting

# the off-block residual that certifies a decomposition, and how many
# random commutant elements are tried before giving up
RESIDUAL_TOL = 1e-10
MAX_RETRIES = 8


@dataclass(frozen=True)
class VoltageGroup:
    """The subgroup of S_k generated by the voltages of an assignment."""

    k: int
    elements: tuple
    generators: tuple

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def abelian(self) -> bool:
        els = self.elements
        return all(
            perms.compose(g, h) == perms.compose(h, g) for g in els for h in els
        )

    @property
    def transitive(self) -> bool:
        # an orbit is a component of the graph with edges x - g[x]
        moves = [(x, g[x]) for g in self.generators or self.elements for x in range(self.k)]
        return len(connected_components(range(self.k), moves)) <= 1


def voltage_group(psi, k: int | None = None) -> VoltageGroup:
    """Closure of the voltage values under composition.

    ``psi`` may be an :class:`~liftlap.covering.IncidenceVoltages`, an
    :class:`~liftlap.covering.EdgeVoltages`, or a bare iterable of
    permutations (then ``k`` is required if the iterable is empty).
    Closure under composition suffices: in a finite symmetric group the
    generated semigroup already contains identity and inverses.
    """
    if hasattr(psi, "perms"):
        gens = sorted(set(psi.perms.values()))
        k = psi.k
    else:
        gens = sorted(set(tuple(p) for p in psi))
        if gens:
            k = len(gens[0])
        elif k is None:
            raise VoltageError("cannot infer the fold count from an empty generator set")
    ident = perms.identity(k)
    elements = {ident}
    frontier = [ident]
    gens = [perms.check_perm(g, k) for g in gens]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = perms.compose(g, cur)
            if nxt not in elements:
                elements.add(nxt)
                frontier.append(nxt)
    return VoltageGroup(k, tuple(sorted(elements)), tuple(gens))


@dataclass(frozen=True)
class BlockDecomposition:
    """A certified block-diagonalization of a permutation representation.

    ``transform`` is unitary; for every group element ``g`` the matrix
    ``transform^H P^g transform`` is block diagonal with ``block_sizes``
    on the diagonal, the first block is the 1x1 identity on the span of
    the all-ones vector, and ``residual`` bounds the largest off-block
    magnitude over the whole group.
    """

    group: VoltageGroup
    transform: np.ndarray
    block_sizes: tuple
    blocks_of: Mapping
    residual: float


def _cluster(sorted_vals: np.ndarray, gap: float) -> list[slice]:
    bounds = [0]
    for idx in range(1, len(sorted_vals)):
        if sorted_vals[idx] - sorted_vals[idx - 1] > gap:
            bounds.append(idx)
    bounds.append(len(sorted_vals))
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def decompose_representation(group: VoltageGroup, seed: int = 0) -> BlockDecomposition:
    """Numerically split the permutation representation into blocks.

    The first column of the transform is the normalized all-ones vector
    (the trivial sub-representation).  The orthogonal complement is
    split along the eigenspaces of a random Hermitian commutant element
    ``sum_g P^g H P^{g^-1}``; those eigenspaces are invariant under the
    whole group.  Fresh randomness is drawn until the off-block residual
    certifies the result, and a failure to certify raises rather than
    returning an unverified transform.
    """
    k = group.k
    pmats = {g: perms.permutation_matrix(g).astype(float) for g in group.elements}
    ones = np.ones((k, 1)) / math.sqrt(k)
    if k == 1:
        blocks = {g: [np.array([[1.0 + 0j]])] for g in group.elements}
        return BlockDecomposition(group, np.array([[1.0 + 0j]]), (1,), blocks, 0.0)

    # orthonormal basis of the complement of the all-ones vector
    basis = np.linalg.qr(np.hstack([ones, np.eye(k)[:, : k - 1]]))[0]
    comp = basis[:, 1:]

    rng = np.random.default_rng(seed)
    last_residual = float("inf")
    for _ in range(MAX_RETRIES):
        raw = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        herm = (raw + raw.conj().T) / 2
        commutant = sum(pmats[g] @ herm @ pmats[g].T for g in group.elements) / group.order
        reduced = comp.conj().T @ commutant @ comp
        vals, vecs = np.linalg.eigh((reduced + reduced.conj().T) / 2)
        spread = max(1.0, float(vals[-1] - vals[0])) if len(vals) else 1.0
        clusters = _cluster(vals, 1e-6 * spread)
        columns = [ones] + [comp @ vecs[:, sl] for sl in clusters]
        transform = np.hstack(columns).astype(complex)
        sizes = [1] + [sl.stop - sl.start for sl in clusters]

        conj = {g: transform.conj().T @ pmats[g] @ transform for g in group.elements}
        residual = 0.0
        offsets = np.cumsum([0] + sizes)
        mask = np.ones((k, k), dtype=bool)
        for a, b in zip(offsets, offsets[1:]):
            mask[a:b, a:b] = False
        for g in group.elements:
            residual = max(residual, float(np.max(np.abs(conj[g][mask]))) if mask.any() else 0.0)
        last_residual = residual
        if residual <= RESIDUAL_TOL:
            order = _block_order(group, conj, sizes, offsets)
            return _assemble(group, transform, sizes, offsets, conj, residual, order)
    raise DecompositionError(
        f"block decomposition residual {last_residual:g} above {RESIDUAL_TOL:g}"
    )


def _block_order(group, conj, sizes, offsets):
    """Deterministic block order: the trivial block first, then by size and
    by the character signature over the sorted group elements."""
    keys = []
    for j in range(1, len(sizes)):
        a, b = offsets[j], offsets[j + 1]
        signature = tuple(
            (round(float(np.trace(conj[g][a:b, a:b]).real), 8),
             round(float(np.trace(conj[g][a:b, a:b]).imag), 8))
            for g in group.elements
        )
        keys.append((sizes[j], signature, j))
    return [0] + [j for _, _, j in sorted(keys)]


def _assemble(group, transform, sizes, offsets, conj, residual, order):
    col_order = []
    for j in order:
        col_order.extend(range(offsets[j], offsets[j + 1]))
    transform = transform[:, col_order]
    new_sizes = tuple(sizes[j] for j in order)
    new_offsets = np.cumsum([0] + list(new_sizes))
    blocks_of = {}
    for g in group.elements:
        mat = transform.conj().T @ perms.permutation_matrix(g) @ transform
        blocks_of[g] = [
            mat[a:b, a:b] for a, b in zip(new_offsets, new_offsets[1:])
        ]
    return BlockDecomposition(group, transform, new_sizes, blocks_of, residual)


def block_weightings(psi: IncidenceVoltages, dec: BlockDecomposition) -> list[IncidenceWeighting]:
    """The decorations of the blocks after the first.

    Block 0 of the lifted operator is the base operator itself; block
    ``j >= 1`` is the base operator with each incidence weighted by
    block j of its voltage, ``rho_j(psi(F, Fbar))``.  ``psi`` lives on
    the incidence layer the blocks are taken on: ``(i, i+1)`` for the
    i-up operator, and the same layer serves the (i+1)-down operator.
    """
    return [
        IncidenceWeighting({pair: dec.blocks_of[p][j] for pair, p in psi.perms.items()})
        for j in range(1, len(dec.block_sizes))
    ]


def two_fold_signing(psi: IncidenceVoltages) -> IncidenceWeighting:
    """The incidence signing of a 2-fold cover: -1 where the voltage swaps.

    If every voltage is the identity the lift is disconnected (two
    copies of the base); the all-plus signing is returned with a warning
    since the spectral union statement then degenerates gracefully.
    """
    if psi.k != 2:
        raise VoltageError(f"two-fold signing needs k = 2, got k = {psi.k}")
    flips = [pair for pair, p in psi.perms.items() if p == (1, 0)]
    if not flips:
        warnings.warn(
            "all voltages are trivial: the 2-fold lift is disconnected and the "
            "signed complex coincides with the base",
            stacklevel=2,
        )
    return IncidenceWeighting({pair: -1.0 for pair in flips})


def abelian_weightings(psi: IncidenceVoltages, seed: int = 0) -> list[IncidenceWeighting]:
    """The k-1 nontrivial character weightings of ``psi``'s voltage group.

    The group must be abelian and act transitively (it is then regular
    of order k, and simultaneous diagonalization of the commuting
    permutation matrices produces exactly k degree-one characters).
    Each weighting sends an incidence to the character value of its
    voltage; all values lie on the unit circle.
    """
    group = voltage_group(psi)
    if not group.abelian:
        raise GroupStructureError("character weightings require an abelian voltage group")
    if not group.transitive:
        raise GroupStructureError(
            "character weightings require a transitive action (a connected lift)"
        )
    dec = decompose_representation(group, seed=seed)
    if any(s != 1 for s in dec.block_sizes):
        raise DecompositionError("abelian decomposition produced a block of size > 1")
    return block_weightings(psi, dec)
