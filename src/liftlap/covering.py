"""Coverings of simplicial complexes via permutation voltages.

The pieces implemented here:

* permutation voltage assignments on the 1-skeleton and on the
  incidences (face, cofacet) of one dimension layer,
* construction of a covering complex from voltages on the 1-skeleton of
  the base (edge voltages must compose consistently around every
  2-face; consistency then propagates to all higher faces because each
  lifted simplex is pinned by the sheet of one of its vertices),
* verification of the covering axioms for a user-supplied vertex map,
  which also tables each cover face's base face and sheet, and
* the voltages a covering induces on the base incidences, read from
  that table and the cover's coboundary, and
* the exact check that the cover's coboundary is the base coboundary
  lifted by given voltages, with the cover's face weights those of the
  base (:func:`factor_lifted_coboundary`): one integer comparison per
  layer, whatever the weight schemes, each lifted nonzero located in
  its cover row by a gather, and one weight check per scheme and
  covering.

Array checks
------------
Verification and construction run on the int64 face arrays a
:class:`~liftlap.complexes.SimplicialComplex` keeps per dimension, one
pass per dimension rather than a Python step per face; vertex ids must
therefore fit in int64, and larger ones are refused as malformed input.
The vertex map stays an ``(m, 2)`` int64 array of ``[vertex, image]``
rows from the file to the report, and no dict of it is built.  Each
cover vertex is mapped once to the index of its image among the base
vertices, the projection (-1 for an image that is no base vertex).  The
vertex indices of every cover face are gathered from the cover's
coboundary columns, not searched for, and its image is one sorted row
of their projections, located among the base faces by their keys; a
row that is no base face is a face whose image collapses or is no base
face, and the first is named by its image ids.  A (base edge, cover
vertex) pair met twice is a fiber overlap: two faces of one fiber that
share a vertex hold two edges of one fiber that share it.  The strong
condition is certified by counts: once images are base faces, no face
collapses and no fiber overlaps, the cofacets of a face over ``g`` lie
over distinct cofacets of ``g``, so every incidence at ``g`` lifts at
that face exactly when the two cofacet counts agree.  Every witness is
the first failing face in the canonical order, as a face-by-face check
finds it.

Voltages
--------
Voltages are int64 arrays of sheet images with a row per edge of
``M.faces(1)`` or per nonzero of ``coboundary(M, i)``, read by position.
For an edge ``(u, v)``, u < v, the voltage ``p`` maps sheets at ``v`` to
sheets at ``u``: the lift joins ``(u, p[j])`` to ``(v, j)``.  For an
incidence ``(face, cofacet)`` the stored voltage maps face sheets to
cofacet sheets: sheet ``j`` of the face is incident to sheet ``p[j]`` of
the cofacet.  The fiber of a base face lists its cover faces in
canonical (lexicographic) order, and a face's place in it is its sheet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Mapping, Sequence

import numpy as np

from .complexes import (
    MAX_ID,
    SimplicialComplex,
    WeightScheme,
    _ids,
    _index,
    _unique_rows,
    build_complex,
    coboundary,
    compute_weights,
)
from .errors import (
    CocycleError,
    CoveringViolation,
    DimensionError,
    MalformedInputError,
    VoltageError,
)


# -- voltage assignments -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class EdgeVoltages:
    """Permutation voltages on the edges of the 1-skeleton of ``base``.

    ``perms`` is an ``(n_1, k)`` int64 array: row e is the voltage of the
    edge ``(u, v) = base.faces(1)[e]``, u < v, mapping sheets at ``v`` to
    sheets at ``u``.  :func:`edge_voltages` builds and checks it.
    """

    base: SimplicialComplex
    k: int
    perms: np.ndarray


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
    bad[~bad] = _non_permutations(rows, k)
    if bad.any():
        j = int(np.argmax(bad))
        p = tuple(ids[starts[j] : starts[j] + lens[j]].tolist())
        raise VoltageError(f"{p!r} is not a permutation of 0..{k - 1}")
    return rows


def _non_permutations(rows: np.ndarray, k: int) -> np.ndarray:
    """Whether each row of an ``(n, k)`` int64 array is no permutation of 0..k-1."""
    return (np.sort(rows, axis=1) != np.arange(k)).any(axis=1)


def edge_voltages(M: SimplicialComplex, k: int, assignments: Mapping | None = None) -> EdgeVoltages:
    """Voltages on the 1-skeleton of ``M``; unlisted edges get the identity.

    ``assignments[(u, v)]`` maps sheets at ``v`` to sheets at ``u``, so a
    key with ``u > v`` puts its inverse on ``(v, u)``.  The permutations
    are checked and the edges located in one pass (:func:`_edge_table`);
    an edge listed twice is refused."""
    assignments = assignments or {}
    keys = list(map(tuple, assignments))
    given = check_perms(assignments.values(), k)
    pair = np.fromiter(map(len, keys), np.int64, len(keys)) == 2
    # -1 is no vertex id, so a key that is no pair is no edge
    ends = np.full((len(keys), 2), -1, np.int64)
    ends[pair] = _ids(chain.from_iterable(compress(keys, pair))).reshape(-1, 2)
    return EdgeVoltages(M, k, _edge_table(M, k, ends, given, keys))


def _edge_table(M: SimplicialComplex, k: int, ends: np.ndarray, perms: np.ndarray, keys=None) -> np.ndarray:
    """The ``(n_1, k)`` int64 voltages of :class:`EdgeVoltages` from arrays:
    row t of the ``(m, k)`` array ``perms`` maps sheets at ``ends[t, 1]``
    to sheets at ``ends[t, 0]``, so its inverse goes on an edge listed
    from its greater end, and every edge not listed gets the identity.
    The rows must be permutations of 0..k-1 and the ``(m, 2)`` rows of
    ``ends`` edges of ``M``, none listed twice; the first bad row is
    named, a non-edge by its entry of ``keys`` when given."""
    bad = _non_permutations(perms, k)
    if bad.any():
        raise VoltageError(f"{tuple(perms[np.argmax(bad)].tolist())!r} is not a permutation of 0..{k - 1}")
    at = M._locate(np.sort(ends, axis=1))
    if (at < 0).any():
        named = list(map(tuple, ends.tolist() if keys is None else keys))
        raise VoltageError(f"voltages given for non-edges: {[named[j] for j in np.flatnonzero(at < 0)]}")
    twice = np.bincount(at, minlength=M.face_count(1)) > 1
    if twice.any():
        raise VoltageError(f"edge {M.faces(1)[np.argmax(twice)]!r} is listed twice")
    table = np.tile(np.arange(k, dtype=np.int64), (M.face_count(1), 1))
    # the inverse of a permutation is its argsort
    table[at] = np.where((ends[:, 0] > ends[:, 1])[:, None], np.argsort(perms, axis=1), perms)
    return table


@dataclass(frozen=True, eq=False)
class IncidenceVoltages:
    """Permutation voltages on the incidences of one dimension layer.

    ``perms`` is an ``(nnz, k)`` int64 array, a row per nonzero of
    ``coboundary(base, dim)`` in its order; the row of an incidence ``(face,
    cofacet)`` maps the sheet index at the face to that at the cofacet.
    """

    base: SimplicialComplex
    k: int
    dim: int
    perms: np.ndarray


# -- covering maps -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoveringMap:
    """A verified covering of complexes.

    ``fibers[d]`` is the ``(n_d, degree)`` int64 array of cover-face
    indices whose row g lists the cover d-faces over the g-th base
    d-face in canonical order, so column j is sheet j; it is given for
    every dimension ``0 <= d <= top_dim``.  When the base keeps the empty
    face, ``fibers[-1]`` is its one-point fiber ``[[0]]``, or ``[[]]``
    when the cover has no empty face.  :func:`verify_covering` fills it
    once and every reader of the covering reads it.  ``projection`` is
    the projection on vertices as an int64 array: the index in
    ``base.faces(0)`` of the image of each cover vertex, in the order of
    ``cover.faces(0)``.  The orientation signs of each dimension and the
    weight check of each scheme are kept on the covering once computed,
    as a complex keeps its face arrays.
    """

    cover: SimplicialComplex
    base: SimplicialComplex
    projection: np.ndarray
    degree: int
    fibers: Mapping
    _signs: dict = field(default_factory=dict, init=False, repr=False)
    _weight_witnesses: dict = field(default_factory=dict, init=False, repr=False)


def _vertex_pairs(vertex_map) -> np.ndarray:
    """A vertex map, a Mapping or an ``(m, 2)`` integer array of
    ``[vertex, image]`` rows, as an ``(m, 2)`` int64 array; the first bad
    id is named, and an array that lists a vertex twice is refused."""
    labels = ("vertex", "vertex image")
    if isinstance(vertex_map, Mapping):
        return _ids(chain.from_iterable(vertex_map.items()), labels).reshape(-1, 2)
    pairs = np.asarray(vertex_map)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
        raise MalformedInputError(f"a vertex map is a Mapping or an (m, 2) integer array, not {pairs.dtype} {pairs.shape}")
    if pairs.size and (pairs.min() < 0 or pairs.max() > MAX_ID):
        _ids(pairs.ravel().tolist(), labels)  # raises, naming the first bad id
    pairs = pairs.astype(np.int64, copy=False)
    r = _relisted(pairs[:, 0])
    if r >= 0:
        raise MalformedInputError(f"{int(pairs[r, 0])} is listed twice, the second time as {int(pairs[r, 1])}")
    return pairs


def _relisted(keys: np.ndarray) -> int:
    """Position of the first entry of ``keys`` equal to an earlier one, or
    -1: a scan when the keys increase, else one stable sort."""
    if (keys[1:] > keys[:-1]).all():
        return -1
    order = np.argsort(keys, kind="stable")
    again = order[1:][keys[order[1:]] == keys[order[:-1]]]
    return int(again.min()) if again.size else -1


def verify_covering(cover: SimplicialComplex, base: SimplicialComplex, vertex_map) -> CoveringMap:
    """Check the covering axioms and return a verified :class:`CoveringMap`.

    ``vertex_map`` is a Mapping of vertex ids or an ``(m, 2)`` integer
    array of ``[vertex, image]`` rows, as :func:`~liftlap.io.load_vertex_map`
    reads one; an array that lists a vertex twice is refused.  Raises
    :class:`CoveringViolation` with a distinct ``kind`` and a witness
    for the first axiom that fails:

    * ``unmapped-vertex`` - the vertex map is not total,
    * ``not-connected`` - the covering complex is disconnected,
    * ``not-simplicial`` / ``degenerate-face`` - some face does not map
      to a base face of the same dimension,
    * ``fiber-overlap`` - two faces of one fiber share a vertex,
    * ``strong-violation`` - a base incidence has no lift at some fiber
      point,
    * ``fiber-size`` - fibers are not all of one constant size.

    Each axiom is checked on the face arrays of one dimension at a time
    (see the module notes); the witness is the first failing face in the
    canonical order.
    """
    pairs = _vertex_pairs(vertex_map)
    verts = cover._face_array(0)[:, 0]
    if np.array_equal(pairs[:, 0], verts):
        vimg = pairs[:, 1]
    else:
        keys, targets = pairs[np.argsort(pairs[:, 0])].T
        at = keys.searchsorted(verts)
        mapped = keys.take(at, mode="clip") == verts if len(keys) else np.zeros(len(verts), bool)
        if not mapped.all():
            v = int(verts[np.argmin(mapped)])
            raise CoveringViolation("unmapped-vertex", f"vertex {v} has no image", v)
        vimg = targets[at]
    # the index in base.faces(0) of each cover vertex's image, -1 for an image that is no base vertex
    projection = base._locate(vimg[:, None])
    if not cover.connected:
        raise CoveringViolation(
            "not-connected",
            "covering complex must be connected",
            tuple(sorted(map(sorted, cover.components()))),
        )

    # images[d][r]: index in base.faces(d) of the image of cover.faces(d)[r];
    # a sorted row of base vertex indices is located as ids are, and -1
    # sorts first, so a row with an image off the base is no face
    images = []
    for d in range(0, cover.top_dim + 1):
        at = cover._vertex_index(d)
        g = base._locate_indices(np.sort(projection[at], axis=1))
        if (g < 0).any():
            # these are the faces whose image ids collapse or are no base face
            r = int(np.argmax(g < 0))
            f, image = cover.faces(d)[r], tuple(np.sort(vimg[at[r]]).tolist())
            if len(set(image)) < len(image):
                raise CoveringViolation("degenerate-face", f"face {f!r} collapses under the vertex map", f)
            raise CoveringViolation("not-simplicial", f"image {image!r} of {f!r} is not a base face", f)
        images.append(g)
    # fiber overlap, which shows first on the edges; in a stable sort every
    # repeated (image, vertex) pair comes from an edge after the first one
    if cover.top_dim >= 1:
        g = images[1]
        pairs = (g[:, None] * len(verts) + cover._vertex_index(1)).ravel()
        order = np.argsort(pairs, kind="stable")
        rows = order[1:][pairs[order[1:]] == pairs[order[:-1]]] // 2
        if rows.size:
            r = rows[np.lexsort((rows, g[rows]))[0]]
            overlap = (base.faces(1)[g[r]], cover.faces(1)[r])
            raise CoveringViolation("fiber-overlap", f"fiber of {overlap[0]!r} contains overlapping faces", overlap)

    # strong condition: every base incidence lifts at every fiber point.
    # Images are base faces, no face collapses and fibers do not overlap,
    # so the cofacets of f over g lie over distinct cofacets of g: the
    # condition holds at f exactly when the two counts agree.  The first
    # base face with a short count names the witness: its first cofacet,
    # then the first face of its fiber, with no lift of that incidence.
    images += [np.zeros(0, np.int64)] * (base.top_dim - cover.top_dim)
    for d in range(0, base.top_dim):
        short = cover._cofacet_counts(d) != base._cofacet_counts(d)[images[d]]
        if not short.any():
            continue
        gi = int(images[d][short].min())
        fiber = np.flatnonzero(images[d] == gi).tolist()
        rows, cols, _ = coboundary(cover, d)
        at = np.isin(cols, fiber)
        lifted = set(zip(cols[at].tolist(), images[d + 1][rows[at]].tolist()))
        base_rows, base_cols, _ = coboundary(base, d)
        g = base.faces(d)[gi]
        for gbar in base_rows[base_cols == gi].tolist():
            for f in fiber:
                if (f, gbar) not in lifted:
                    f, gbar = cover.faces(d)[f], base.faces(d + 1)[gbar]
                    raise CoveringViolation(
                        "strong-violation", f"incidence ({g!r}, {gbar!r}) has no lift at {f!r}", (f, gbar)
                    )

    degree = None
    for d in range(0, base.top_dim + 1):
        sizes = np.bincount(images[d], minlength=base.face_count(d))
        if degree is None:
            degree = int(sizes[0])
        off = np.flatnonzero(sizes != degree)
        if off.size:
            g = base.faces(d)[off[0]]
            raise CoveringViolation("fiber-size", f"fiber of {g!r} has size {int(sizes[off[0]])}, expected {degree}", g)

    # a stable sort by image keeps each fiber in the canonical order of
    # cover.faces(d); every fiber now has ``degree`` faces
    fibers = {-1: np.zeros((1, int(cover.include_empty)), np.int64)} if base.include_empty else {}
    for d in range(0, base.top_dim + 1):
        fibers[d] = np.argsort(images[d], kind="stable").reshape(-1, degree)
    return CoveringMap(cover, base, projection, degree, fibers)


# -- derived complexes --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DerivedComplexResult:
    """Outcome of building a covering complex from 1-skeleton voltages.

    ``covering`` is a verified :class:`CoveringMap` when the construction
    is connected; otherwise it is ``None`` and ``components`` lists the
    vertex sets of the pieces (each one is a covering of the base in its
    own right, only smaller).  ``vertex_map`` is the projection as an
    ``(m, 2)`` int64 array of ``[vertex, image]`` rows in vertex order.
    """

    complex: SimplicialComplex
    covering: CoveringMap | None
    components: tuple
    vertex_map: np.ndarray

    @property
    def connected(self) -> bool:
        return self.covering is not None


def check_cocycle(M: SimplicialComplex, volt: np.ndarray) -> None:
    """Voltages must compose around every 2-face: psi(u,v) o psi(v,w) == psi(u,w).

    ``volt[e]`` is the voltage of the edge ``M.faces(1)[e]`` read from
    its lesser end, as :class:`EdgeVoltages` stores it.  The edges of
    a 2-face (u, v, w) are its three degree-1 coboundary columns, in the
    order (u, v), (u, w), (v, w).
    """
    if M.top_dim < 2:
        return
    uv, uw, vw = (volt[c] for c in coboundary(M, 1)[1].reshape(-1, 3).T)
    bad = (np.take_along_axis(uv, vw, axis=1) != uw).any(axis=1)
    if bad.any():
        tri = M.faces(2)[int(np.argmax(bad))]
        raise CocycleError(f"edge voltages are inconsistent around 2-face {tri!r}", tri)


def derived_complex(M: SimplicialComplex, psi: EdgeVoltages) -> DerivedComplexResult:
    """Build the k-sheeted covering complex determined by edge voltages.

    The lift of a base face anchored at sheet ``j`` places its least
    vertex on sheet ``j`` and pins every other vertex through the edge
    voltages; the 2-face cocycle precondition makes this independent of
    the pinning route.  Covering vertices are encoded as ``v * k + j``,
    so the lexicographic fiber order coincides with the anchor sheet
    order.

    A disconnected result is reported, not rejected: downstream theorem
    checks require a connected cover, but the pieces are still useful
    for study.  Voltages built for another complex are refused.
    """
    if psi.base is not M and psi.base != M:
        raise VoltageError("the voltages were built for another complex")
    if not M.connected:
        raise MalformedInputError("base complex must be connected")
    k, volt = psi.k, psi.perms
    if volt.shape != (M.face_count(1), k):
        raise VoltageError(f"voltages of shape {volt.shape} do not fit the {M.face_count(1)} base edges and k = {k}")
    _index(int(M._face_array(0)[-1, 0]) * k + k - 1, "cover vertex")  # the largest cover id must fit in int64
    check_cocycle(M, volt)

    # the vertex v of a facet sits on sheet inverse(psi(anchor, v))[j]
    # when the facet's least vertex, its anchor, sits on sheet j
    inverse = np.argsort(volt, axis=1)
    lifted_facets = []
    for d, G in enumerate(M._facet_rows()):
        anchor_edges = np.stack([np.repeat(G[:, :1], d, axis=1), G[:, 1:]], axis=2).reshape(-1, 2)
        sheets = np.empty((len(G), k, d + 1), np.int64)
        sheets[:, :, 0] = np.arange(k)
        sheets[:, :, 1:] = inverse[M._locate(anchor_edges)].reshape(len(G), d, k).transpose(0, 2, 1)
        # v * k + j increases with v, so each lifted row stays sorted
        lifted_facets.append((G[:, None, :] * k + sheets).reshape(-1, d + 1))
    K = build_complex(lifted_facets, include_empty=M.include_empty)
    verts = K._face_array(0)[:, 0]
    vmap = np.stack([verts, verts // k], 1)
    cov = verify_covering(K, M, vmap) if K.connected else None
    return DerivedComplexResult(K, cov, K.components(), vmap)


# -- induced voltages ---------------------------------------------------------


def induced_incidence_voltage(cov: CoveringMap, i: int) -> IncidenceVoltages:
    """Voltages on the base incidences induced by a verified covering.

    For an incidence ``(G, Gbar)`` the permutation sends sheet ``j`` to
    the sheet of the cofacet of the sheet-j face over ``G`` lying in the
    fiber of ``Gbar``; the derived graph of the result is isomorphic to
    the cover's incidence graph, each face read at its sheet.
    :func:`verify_covering` established the strong condition, so that
    cofacet exists and is unique: the cover's incidences at layer i,
    sorted by base cofacet, base face and face sheet, are the base
    incidences in coboundary order, each lifted once per sheet.
    """
    M, K = cov.base, cov.cover
    if not (0 <= i <= M.top_dim):
        raise DimensionError(f"induced voltages need 0 <= i <= {M.top_dim}, got {i}")
    k = cov.degree
    if i == M.top_dim:
        return IncidenceVoltages(M, k, i, np.zeros((0, k), np.int64))
    slot, slot_above = _slots(cov, i), _slots(cov, i + 1)
    rows, cols, _ = coboundary(K, i)
    # one key: base cofacet, then the face's slot (base face * degree + sheet)
    order = np.argsort(slot_above[rows] // k * len(slot) + slot[cols], kind="stable")
    return IncidenceVoltages(M, k, i, (slot_above[rows[order]] % k).reshape(-1, k))


def _slots(cov: CoveringMap, d: int) -> np.ndarray:
    """The slot, base face * degree + sheet, of each cover d-face: the
    inverse of the fiber table, by one scatter."""
    fibers = cov.fibers[d].ravel()
    slot = np.empty(len(fibers), np.int64)
    slot[fibers] = np.arange(len(fibers))
    return slot


# -- the lifted coboundary, factored -------------------------------------------


def _orientation_signs(cov: CoveringMap, d: int) -> np.ndarray:
    """The ``(n_d, degree)`` int64 signs, +1 or -1, of the cover d-faces in
    the fiber table: the parity of the inversions among the images of a
    face's vertices, read in the face's own (increasing) order.  Computed
    once per dimension and kept on the covering."""
    if d not in cov._signs:
        fibers = cov.fibers[d]
        # a cover vertex's image as its base vertex's index, which orders like its id
        lifted = cov.projection[cov.cover._vertex_index(d)[fibers.ravel()]]
        inversions = np.triu(lifted[:, :, None] > lifted[:, None, :], 1).sum(axis=(1, 2))
        cov._signs[d] = (1 - 2 * (inversions % 2)).reshape(fibers.shape)
    return cov._signs[d]


@dataclass(frozen=True)
class Factorization:
    """Whether a cover's degree-i coboundary is the base's lifted by voltages.

    ``residual`` is the largest entry of ``|D_K - S_{i+1} D_psi S_i|``,
    an exact integer, and ``witness`` the first (face, cofacet) pair of
    cover faces, in the cover's canonical order, at which the two differ
    (``None`` when they agree).  ``weight_witness`` is the first cover
    face whose weight is not its base face's, or ``None``."""

    residual: int
    witness: tuple | None
    weight_witness: tuple | None

    @property
    def holds(self) -> bool:
        return self.residual == 0 and self.weight_witness is None


def factor_lifted_coboundary(
    cov: CoveringMap, i: int, psi: IncidenceVoltages, schemes: Sequence[WeightScheme]
) -> tuple[Factorization, ...]:
    """Check, in integers, that the cover's degree-i coboundary is
    ``S_{i+1} D_psi S_i``, and that under each of ``schemes`` every cover
    i- and (i+1)-face weighs exactly what its base face weighs: one
    :class:`Factorization` per scheme, in order.

    ``D_psi`` is the base coboundary with the nonzero of each incidence
    ``(G, Gbar)`` replaced by the block ``sign * P(psi)``: sheet j of
    ``G`` meets sheet ``psi[j]`` of ``Gbar``.  Rows and columns are read
    through the fiber table, and ``S_d`` is the diagonal of the
    orientation signs of the cover d-faces (:func:`_orientation_signs`).
    The matrices are compared once, whatever the schemes
    (:func:`_coboundary_difference`); the weights are compared once per
    scheme and covering.  With the weights equal, the weighted
    coboundaries factor the same way.  ``psi`` must be voltages on
    ``cov.base`` at layer ``i`` with ``cov.degree`` sheets, and each
    scheme must weigh both complexes.
    """
    M, k = cov.base, cov.degree
    if not (0 <= i <= M.top_dim):
        raise DimensionError(f"the lifted coboundary needs 0 <= i <= {M.top_dim}, got {i}")
    if (psi.base is not M and psi.base != M) or psi.dim != i or psi.perms.shape != (len(coboundary(M, i)[0]), k):
        raise VoltageError(f"the voltages are not layer {i} voltages of the base on {k} sheets")
    difference = _coboundary_difference(cov, i, psi)
    dims = (i, i + 1) if i < M.top_dim else (i,)
    out = []
    for scheme in schemes:
        off = _weight_witnesses(cov, scheme)
        out.append(Factorization(*difference, next((off[d] for d in dims if off[d] is not None), None)))
    return tuple(out)


def _weight_witnesses(cov: CoveringMap, scheme: WeightScheme) -> dict:
    """``{d: the first cover d-face, in the fiber table's order, whose weight
    under scheme is not its base face's, or None}`` for every dimension
    from 0, computed once per scheme and kept on the covering."""
    if scheme not in cov._weight_witnesses:
        K, M = cov.cover, cov.base
        w_cover, w_base = compute_weights(K, scheme), compute_weights(M, scheme)
        out = {}
        for d in range(0, M.top_dim + 1):
            off = (w_cover[d][cov.fibers[d]] != w_base[d][:, None]).ravel()
            out[d] = K.faces(d)[cov.fibers[d].ravel()[np.argmax(off)]] if off.any() else None
        cov._weight_witnesses[scheme] = out
    return cov._weight_witnesses[scheme]


def _coboundary_difference(cov: CoveringMap, i: int, psi: IncidenceVoltages) -> tuple[int, tuple | None]:
    """The residual and witness of :class:`Factorization`: where the
    cover's degree-i coboundary and the lifted one differ.

    The lifted nonzeros, k per base incidence, are located in the cover's
    triplets by :func:`_positions`, one gather, and subtracted there.
    Only those that fall off the cover's pattern, which the induced
    voltages never put there, are grouped by (row, column) key, so a
    lift that holds sorts nothing."""
    M, K, k = cov.base, cov.cover, cov.degree
    rows, cols, signs = coboundary(K, i)
    if not len(rows):
        return 0, None
    base_rows, base_cols, base_signs = coboundary(M, i)
    # the lifted nonzeros as fiber slots (base face * k + sheet), then as cover faces
    below = base_cols.repeat(k) * k + np.tile(np.arange(k), len(base_cols))
    above = base_rows.repeat(k) * k + psi.perms.ravel()
    s_above, s_below = _orientation_signs(cov, i + 1).ravel(), _orientation_signs(cov, i).ravel()
    lifted = s_above[above] * base_signs.repeat(k) * s_below[below]
    above, below = cov.fibers[i + 1].ravel()[above], cov.fibers[i].ravel()[below]
    at = _positions(cols, i + 2, above, below)
    on = at >= 0
    difference = signs - np.bincount(at[on], lifted[on], len(signs))
    n = K.face_count(i)
    keys, values = rows * n + cols, difference
    if not on.all():
        off, where = _unique_rows((above[~on] * n + below[~on])[:, None])
        keys, values = np.r_[keys, off[:, 0]], np.r_[values, -np.bincount(where, lifted[~on], len(off))]
    differs = values != 0
    if not differs.any():
        return 0, None
    row, col = divmod(int(keys[differs].min()), n)
    return int(np.abs(values).max()), (K.faces(i)[col], K.faces(i + 1)[row])


def _positions(cols: np.ndarray, width: int, rows: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Index in the triplets of the nonzero at each (row, column) pair
    ``(rows[t], at[t])`` of a matrix whose ``width`` nonzeros per row, in
    row order, have the columns ``cols``; -1 where the pair is no
    nonzero.  One gather of each pair's row and a comparison."""
    match = cols.reshape(-1, width)[rows] == at[:, None]
    return np.where(match.any(axis=1), rows * width + match.argmax(axis=1), -1)
