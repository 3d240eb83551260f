"""Coverings of simplicial complexes via permutation voltages.

The pieces implemented here:

* permutation voltage assignments on the 1-skeleton and on the
  incidences (face, cofacet) of one dimension layer,
* construction of a covering complex from voltages on the 1-skeleton of
  the base (edge voltages must compose consistently around every
  2-face; consistency then propagates to all higher faces because each
  lifted simplex is pinned by the sheet of one of its vertices),
* verification of the covering axioms for a user-supplied vertex map,
  and
* the voltages a covering induces on the base incidences.

Orientation conventions
-----------------------
For an edge stored as ``(u, v)``, the voltage ``p`` maps sheets at ``v``
to sheets at ``u``: the lift joins ``(u, p[j])`` to ``(v, j)``.  For an
incidence ``(face, cofacet)`` the stored voltage maps face sheets to
cofacet sheets: sheet ``j`` of the face is incident to sheet ``p[j]`` of
the cofacet.  Fibers are always enumerated in lexicographic order of
the covering face's vertex tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import perms
from .complexes import Face, SimplicialComplex, _index, boundary_faces, build_complex
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

    ``fibers[g]`` lists the cover faces over the base face ``g`` in
    lexicographic order, so a face's position in its fiber is its sheet;
    :func:`verify_covering` fills it once and every reader of the
    covering reads it.  Over a face of dimension 0 or more each fiber
    has ``degree`` faces.  ``vertex_map`` is the projection on vertices,
    which the orientation sign of a cover face needs.
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

    * ``not-connected`` - the covering complex is disconnected,
    * ``unmapped-vertex`` - the vertex map is not total,
    * ``not-simplicial`` / ``degenerate-face`` - some face does not map
      to a base face of the same dimension,
    * ``fiber-overlap`` - two faces of one fiber share a vertex,
    * ``strong-violation`` - a base incidence has no lift at some fiber
      point,
    * ``fiber-size`` - fibers are not all of one constant size.
    """
    vertex_map = {_index(a, "vertex"): _index(b, "vertex image") for a, b in dict(vertex_map).items()}
    missing = [v for v in cover.vertices if v not in vertex_map]
    if missing:
        raise CoveringViolation("unmapped-vertex", f"vertex {missing[0]} has no image", missing[0])
    if not cover.connected:
        raise CoveringViolation(
            "not-connected",
            "covering complex must be connected",
            tuple(sorted(map(sorted, cover.components()))),
        )

    fibers: dict[Face, list[Face]] = {g: [] for g in base.all_faces()}
    for d in range(0, cover.top_dim + 1):
        for f in cover.faces(d):
            img = tuple(sorted({vertex_map[v] for v in f}))
            if len(img) != len(f):
                raise CoveringViolation(
                    "degenerate-face", f"face {f!r} collapses under the vertex map", f
                )
            if not base.has_face(img):
                raise CoveringViolation(
                    "not-simplicial", f"image {img!r} of {f!r} is not a base face", f
                )
            fibers[img].append(f)
    if base.include_empty and cover.include_empty:
        fibers[()] = [()]

    for g, fs in fibers.items():
        if len(g) == 0:
            continue
        used: set[int] = set()
        for f in fs:
            if used.intersection(f):
                raise CoveringViolation(
                    "fiber-overlap", f"fiber of {g!r} contains overlapping faces", (g, f)
                )
            used.update(f)

    # strong condition: every base incidence lifts at every fiber point.
    # Images are base faces, no face collapses and fibers do not overlap,
    # so the cofacets of f over g lie over distinct cofacets of g: the
    # condition holds at f exactly when the two counts agree.  Only a
    # short count searches for the witness.
    for d in range(0, base.top_dim):
        for g in base.faces(d):
            up = base.cofacets(g)
            if all(len(cover.cofacets(f)) == len(up) for f in fibers[g]):
                continue
            for gbar in up:
                for f in fibers[g]:
                    if not any(
                        tuple(sorted(vertex_map[v] for v in fbar)) == gbar
                        for fbar in cover.cofacets(f)
                    ):
                        raise CoveringViolation(
                            "strong-violation",
                            f"incidence ({g!r}, {gbar!r}) has no lift at {f!r}",
                            (f, gbar),
                        )

    degree = None
    for d in range(0, base.top_dim + 1):
        for g in base.faces(d):
            n = len(fibers[g])
            if degree is None:
                degree = n
            if n != degree:
                raise CoveringViolation(
                    "fiber-size",
                    f"fiber of {g!r} has size {n}, expected {degree}",
                    g,
                )
    if cover.top_dim != base.top_dim:
        raise CoveringViolation(
            "fiber-size", "cover and base have different top dimensions", cover.top_dim
        )

    # each fiber was filled in the lexicographic order of cover.faces(d)
    return CoveringMap(cover, base, vertex_map, degree, {g: tuple(fs) for g, fs in fibers.items()})


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


def check_cocycle(M: SimplicialComplex, psi: EdgeVoltages) -> None:
    """Voltages must compose around every 2-face: psi(u,v) o psi(v,w) == psi(u,w)."""
    for tri in M.faces(2):
        u, v, w = tri
        lhs = perms.compose(psi.voltage(u, v), psi.voltage(v, w))
        if lhs != psi.voltage(u, w):
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
    check_cocycle(M, psi)

    def lift_face(g: Face, j: int) -> Face:
        anchor = g[0]
        out = [anchor * k + j]
        for v in g[1:]:
            sheet = perms.inverse(psi.voltage(anchor, v))[j]
            out.append(v * k + sheet)
        return tuple(out)

    lifted_facets = [lift_face(g, j) for g in M.facets() for j in range(k)]
    K = build_complex(lifted_facets, include_empty=M.include_empty)
    vmap = {v: v // k for v in K.vertices}
    if K.connected:
        cov = verify_covering(K, M, vmap)
        return DerivedComplexResult(K, cov, K.components(), vmap)
    return DerivedComplexResult(K, None, K.components(), vmap)


# -- induced voltages ---------------------------------------------------------


def induced_incidence_voltage(cov: CoveringMap, i: int) -> IncidenceVoltages:
    """Voltages on the base incidences induced by a verified covering.

    For an incidence ``(G, Gbar)`` the permutation sends sheet ``j`` to
    the sheet of the cofacet of ``fibers[G][j]`` lying in the fiber of
    ``Gbar``; the derived graph of the result is isomorphic to the
    cover's incidence graph, each face read at its sheet.
    :func:`verify_covering` established the strong condition, so that
    cofacet exists and is unique.
    """
    M, K = cov.base, cov.cover
    if not (0 <= i <= M.top_dim):
        raise DimensionError(f"induced voltages need 0 <= i <= {M.top_dim}, got {i}")
    table = {}
    for gbar in M.faces(i + 1):
        sheet_of = {f: l for l, f in enumerate(cov.fibers[gbar])}
        for g, _ in boundary_faces(gbar):
            table[(g, gbar)] = tuple(
                next(sheet_of[fbar] for fbar in K.cofacets(f) if fbar in sheet_of) for f in cov.fibers[g]
            )
    return IncidenceVoltages(cov.degree, i, table)
