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
  that table and the cover's coboundary.

Array checks
------------
Verification and construction run on the int64 face arrays a
:class:`~liftlap.complexes.SimplicialComplex` keeps per dimension, one
pass per dimension rather than a Python step per face; vertex ids must
therefore fit in int64, and larger ones are refused as malformed input.
The image of every cover face is one sorted row of the vertex images,
found among the base faces by ``searchsorted``; a (base face, cover
vertex) pair met twice is a fiber overlap.  The strong condition is
certified by counts: once images are base faces, no face collapses and
no fiber overlaps, the cofacets of a face over ``g`` lie over distinct
cofacets of ``g``, so every incidence at ``g`` lifts at that face exactly
when the two cofacet counts agree.  Every witness is the first failing
face in the canonical order, as a face-by-face check finds it.

Orientation conventions
-----------------------
For an edge stored as ``(u, v)``, the voltage ``p`` maps sheets at ``v``
to sheets at ``u``: the lift joins ``(u, p[j])`` to ``(v, j)``.  For an
incidence ``(face, cofacet)`` the stored voltage maps face sheets to
cofacet sheets: sheet ``j`` of the face is incident to sheet ``p[j]`` of
the cofacet.  The fiber of a base face lists its cover faces in
canonical (lexicographic) order, and a face's place in it is its sheet.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Mapping

import numpy as np

from . import perms
from .complexes import SimplicialComplex, _index, build_complex, coboundary
from .errors import (
    CocycleError,
    CoveringViolation,
    DimensionError,
    MalformedInputError,
    VoltageError,
)
from .perms import Perm


# -- voltage assignments -----------------------------------------------------


@dataclass(frozen=True)
class EdgeVoltages:
    """Permutation voltages on the edges of a graph or 1-skeleton.

    ``perms[(u, v)]`` maps sheets at ``v`` to sheets at ``u``; the
    reverse orientation is the inverse permutation, so only one
    orientation is stored.
    """

    k: int
    perms: Mapping

    def __post_init__(self):
        object.__setattr__(
            self,
            "perms",
            {tuple(e): perms.check_perm(p, self.k) for e, p in dict(self.perms).items()},
        )

    def voltage(self, a, b) -> Perm:
        if (a, b) in self.perms:
            return self.perms[(a, b)]
        if (b, a) in self.perms:
            return perms.inverse(self.perms[(b, a)])
        raise VoltageError(f"no voltage on edge ({a!r}, {b!r})")

    def has_edge(self, a, b) -> bool:
        return (a, b) in self.perms or (b, a) in self.perms


def edge_voltages(M: SimplicialComplex, k: int, assignments: Mapping | None = None) -> EdgeVoltages:
    """Voltages on the 1-skeleton of ``M``; unlisted edges get the identity."""
    table = {}
    given = {tuple(sorted(e)): perms.check_perm(p, k) for e, p in (assignments or {}).items()}
    for e in M.faces(1):
        table[e] = given.pop(e, perms.identity(k))
    if given:
        raise VoltageError(f"voltages given for non-edges: {sorted(given)}")
    return EdgeVoltages(k, table)


@dataclass(frozen=True)
class IncidenceVoltages:
    """Permutation voltages on the incidences of one dimension layer.

    ``perms[(face, cofacet)]`` maps the sheet index at the face to the
    sheet index at the cofacet.
    """

    k: int
    dim: int
    perms: Mapping

    def __post_init__(self):
        object.__setattr__(
            self,
            "perms",
            {
                (tuple(f), tuple(c)): perms.check_perm(p, self.k)
                for (f, c), p in dict(self.perms).items()
            },
        )

    def voltage(self, face, cofacet) -> Perm:
        try:
            return self.perms[(tuple(face), tuple(cofacet))]
        except KeyError:
            raise VoltageError(f"no voltage on incidence ({face!r}, {cofacet!r})") from None


# -- covering maps -----------------------------------------------------------


@dataclass(frozen=True)
class CoveringMap:
    """A verified covering of complexes.

    ``fibers[d]`` is the ``(n_d, degree)`` int64 array of cover-face
    indices whose row g lists the cover d-faces over the g-th base
    d-face in canonical order, so column j is sheet j; it is given for
    every dimension ``0 <= d <= top_dim``.  When the base keeps the empty
    face, ``fibers[-1]`` is its one-point fiber ``[[0]]``, or ``[[]]``
    when the cover has no empty face.  :func:`verify_covering` fills it
    once and every reader of the covering reads it.  ``vertex_map`` is
    the projection on vertices as a dict of ids.
    """

    cover: SimplicialComplex
    base: SimplicialComplex
    vertex_map: Mapping
    degree: int
    fibers: Mapping


def verify_covering(cover: SimplicialComplex, base: SimplicialComplex, vertex_map: Mapping) -> CoveringMap:
    """Check the covering axioms and return a verified :class:`CoveringMap`.

    Raises :class:`CoveringViolation` with a distinct ``kind`` and a
    witness for the first axiom that fails:

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
    vertex_map = {_index(a, "vertex"): _index(b, "vertex image") for a, b in dict(vertex_map).items()}
    verts = cover._face_array(0)[:, 0]
    ids = verts.tolist()
    vimg = np.fromiter(map(vertex_map.get, ids, repeat(-1)), np.int64, len(ids))
    if (vimg < 0).any():
        v = ids[int(np.argmax(vimg < 0))]
        raise CoveringViolation("unmapped-vertex", f"vertex {v} has no image", v)
    if not cover.connected:
        raise CoveringViolation(
            "not-connected",
            "covering complex must be connected",
            tuple(sorted(map(sorted, cover.components()))),
        )

    # images[d][r]: index in base.faces(d) of the image of cover.faces(d)[r]
    images = []
    overlap = None
    for d in range(0, cover.top_dim + 1):
        at = np.searchsorted(verts, cover._face_array(d))
        img = np.sort(vimg[at], axis=1)
        degenerate = (img[:, 1:] == img[:, :-1]).any(axis=1)
        g = base._locate(img)
        bad = degenerate | (g < 0)
        if bad.any():
            r = int(np.argmax(bad))
            f = cover.faces(d)[r]
            if degenerate[r]:
                raise CoveringViolation("degenerate-face", f"face {f!r} collapses under the vertex map", f)
            image = tuple(img[r].tolist())
            raise CoveringViolation("not-simplicial", f"image {image!r} of {f!r} is not a base face", f)
        images.append(g)
        if overlap is None:
            # a (base face, cover vertex) pair met twice; in a stable sort
            # every repeat comes from a face after the first one holding it
            pairs = (g[:, None] * len(verts) + at).ravel()
            order = np.argsort(pairs, kind="stable")
            rows = order[1:][pairs[order[1:]] == pairs[order[:-1]]] // (d + 1)
            if rows.size:
                r = rows[np.lexsort((rows, g[rows]))[0]]
                overlap = (base.faces(d)[g[r]], cover.faces(d)[r])
    if overlap is not None:
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
    if cover.top_dim != base.top_dim:
        raise CoveringViolation(
            "fiber-size", "cover and base have different top dimensions", cover.top_dim
        )

    # a stable sort by image keeps each fiber in the canonical order of
    # cover.faces(d); every fiber now has ``degree`` faces
    fibers = {-1: np.zeros((1, int(cover.include_empty)), np.int64)} if base.include_empty else {}
    for d in range(0, base.top_dim + 1):
        fibers[d] = np.argsort(images[d], kind="stable").reshape(-1, degree)
    return CoveringMap(cover, base, vertex_map, degree, fibers)


# -- derived complexes --------------------------------------------------------


@dataclass(frozen=True)
class DerivedComplexResult:
    """Outcome of building a covering complex from 1-skeleton voltages.

    ``covering`` is a verified :class:`CoveringMap` when the construction
    is connected; otherwise it is ``None`` and ``components`` lists the
    vertex sets of the pieces (each one is a covering of the base in its
    own right, only smaller).
    """

    complex: SimplicialComplex
    covering: CoveringMap | None
    components: tuple
    vertex_map: Mapping

    @property
    def connected(self) -> bool:
        return self.covering is not None


def check_cocycle(M: SimplicialComplex, volt: np.ndarray) -> None:
    """Voltages must compose around every 2-face: psi(u,v) o psi(v,w) == psi(u,w).

    ``volt[e]`` is the voltage of the edge ``M.faces(1)[e]`` read from
    its lesser end, as :func:`derived_complex` builds it.
    """
    tris = M._face_array(2)
    uv, vw, uw = (volt[M._locate(tris[:, cols])] for cols in ([0, 1], [1, 2], [0, 2]))
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
    for study.
    """
    if not M.connected:
        raise MalformedInputError("base complex must be connected")
    k = psi.k
    for e in M.faces(1):
        if not psi.has_edge(*e):
            raise VoltageError(f"no voltage on base edge {e!r}")
    _index(M.faces(0)[-1][0] * k + k - 1, "cover vertex")  # the largest cover id must fit in int64
    volt = np.array([psi.voltage(u, v) for u, v in M.faces(1)], np.int64).reshape(-1, k)
    check_cocycle(M, volt)

    # the vertex v of a facet sits on sheet inverse(psi(anchor, v))[j]
    # when the facet's least vertex, its anchor, sits on sheet j
    inverse = np.argsort(volt, axis=1)
    lifted_facets = []
    for d in range(0, M.top_dim + 1):
        G = M._face_array(d)[M._cofacet_counts(d) == 0]
        anchor_edges = np.stack([np.repeat(G[:, :1], d, axis=1), G[:, 1:]], axis=2).reshape(-1, 2)
        sheets = np.empty((len(G), k, d + 1), np.int64)
        sheets[:, :, 0] = np.arange(k)
        sheets[:, :, 1:] = inverse[M._locate(anchor_edges)].reshape(len(G), d, k).transpose(0, 2, 1)
        lifted_facets += (G[:, None, :] * k + sheets).reshape(-1, d + 1).tolist()
    K = build_complex(lifted_facets, include_empty=M.include_empty)
    verts = K._face_array(0)[:, 0]
    vmap = dict(zip(verts.tolist(), (verts // k).tolist()))
    if K.connected:
        cov = verify_covering(K, M, vmap)
        return DerivedComplexResult(K, cov, K.components(), vmap)
    return DerivedComplexResult(K, None, K.components(), vmap)


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
    if i == M.top_dim:
        return IncidenceVoltages(cov.degree, i, {})
    # slot of a cover face in the fiber table: base face * degree + sheet
    k = cov.degree
    slot, slot_above = (np.argsort(cov.fibers[d].ravel()) for d in (i, i + 1))
    rows, cols, _ = coboundary(K, i)
    order = np.lexsort((slot[cols], slot_above[rows] // k))
    volt = (slot_above[rows[order]] % k).reshape(-1, k).tolist()
    base_rows, base_cols, _ = coboundary(M, i)
    faces, cofacets = M.faces(i), M.faces(i + 1)
    pairs = zip(map(faces.__getitem__, base_cols.tolist()), map(cofacets.__getitem__, base_rows.tolist()))
    return IncidenceVoltages(k, i, dict(zip(pairs, map(tuple, volt))))
