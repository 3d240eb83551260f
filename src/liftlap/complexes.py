"""Finite abstract simplicial complexes with canonical orientations.

Faces are tuples of non-negative integer vertex ids in strictly
increasing order; the increasing order *is* the canonical orientation.
The empty face ``()`` has dimension -1 and is included by default so
that reduced cohomology and the degree-(-1) coboundary exist.

All structures here are immutable after construction and every
operation is a pure function, so concurrent reads are safe.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import chain, combinations, repeat
from typing import Mapping

import numpy as np

from .errors import DimensionError, MalformedInputError, WeightError

Face = tuple


MAX_ID = 2**63 - 1  # ids are stored in int64 face arrays


def _index(v, what: str = "vertex") -> int:
    """``v`` as a non-negative integer id: an integral float such as 2.0
    is one, a boolean or a string is not, and neither is an id above
    :data:`MAX_ID`."""
    if type(v) is int or (isinstance(v, numbers.Real) and not isinstance(v, bool) and v % 1 == 0):
        if v > MAX_ID:
            raise MalformedInputError(f"{what} {v!r} does not fit in a 64-bit integer")
        if v >= 0:
            return int(v)
    raise MalformedInputError(f"{what} {v!r} is not a non-negative integer")


def as_face(vertices) -> Face:
    """Normalize an iterable of vertex ids into a canonical face tuple."""
    try:
        vs = list(vertices)
    except TypeError:
        raise MalformedInputError(f"face {vertices!r} is not a list of vertices") from None
    try:
        # plain ints inline: this runs for every face of every complex built
        out = [v if type(v) is int and 0 <= v <= MAX_ID else _index(v) for v in vs]
    except MalformedInputError as exc:
        raise MalformedInputError(f"face {vs!r}: {exc}") from None
    if len(set(out)) != len(out):
        raise MalformedInputError(f"face {vs!r} repeats a vertex")
    return tuple(sorted(out))


class SimplicialComplex:
    """The downward closure of a list of facets, listed per dimension.

    Every facet passes through :func:`as_face`, and every non-empty
    subset of a facet is a face, so the family is downward closed and
    each face is canonical by construction.  Within each dimension the
    faces are sorted lexicographically, and that ordering defines the
    row/column indices of every matrix derived from the complex.

    Parameters
    ----------
    facets : iterable of vertex iterables
        Non-empty collection of non-empty vertex sets.
    include_empty : bool
        Include the empty face of dimension -1 (the reduced convention).
    """

    def __init__(self, facets, include_empty: bool = True):
        facets = list(facets)
        if not facets:
            raise MalformedInputError("facet list is empty")
        closure: set[Face] = set()
        for raw in facets:
            f = as_face(raw)
            if not f:
                raise MalformedInputError("facets must be non-empty vertex sets")
            for r in range(1, len(f) + 1):
                closure.update(combinations(f, r))
        faces: dict[int, list[Face]] = {-1: [()]} if include_empty else {}
        # lexicographic order of all faces is lexicographic within each dimension
        for f in sorted(closure):
            faces.setdefault(len(f) - 1, []).append(f)
        self._faces = {d: tuple(fs) for d, fs in faces.items()}
        self._include_empty = include_empty
        self._top_dim = max(self._faces)
        self._index = {d: {f: i for i, f in enumerate(fs)} for d, fs in self._faces.items()}
        self._cofacets: dict[Face, tuple[Face, ...]] | None = None
        self._arrays: dict[int, np.ndarray] = {}
        self._keys: dict[int, np.ndarray] = {}
        self._counts: dict[int, np.ndarray] = {}
        self._components = connected_components(self.vertices, self.faces(1))

    # -- basic queries ---------------------------------------------------

    @property
    def top_dim(self) -> int:
        return self._top_dim

    @property
    def include_empty(self) -> bool:
        return self._include_empty

    @property
    def min_dim(self) -> int:
        return -1 if self._include_empty else 0

    def dims(self) -> range:
        return range(self.min_dim, self._top_dim + 1)

    def faces(self, dim: int) -> tuple[Face, ...]:
        return self._faces.get(dim, ())

    def face_count(self, dim: int) -> int:
        return len(self.faces(dim))

    def index(self, face: Face) -> int:
        d = len(face) - 1
        try:
            return self._index[d][tuple(face)]
        except KeyError:
            raise MalformedInputError(f"{face!r} is not a face of the complex") from None

    def has_face(self, face) -> bool:
        face = tuple(face)
        return face in self._index.get(len(face) - 1, {})

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(f[0] for f in self.faces(0))

    def all_faces(self):
        for d in self.dims():
            yield from self.faces(d)

    def cofacets(self, face: Face) -> tuple[Face, ...]:
        """Faces of one dimension higher containing ``face``."""
        if self._cofacets is None:
            table: dict[Face, list[Face]] = {f: [] for f in self.all_faces()}
            for d in range(0, self._top_dim + 1):
                for f in self.faces(d):
                    for j in range(len(f)):
                        sub = f[:j] + f[j + 1 :]
                        if sub in table:
                            table[sub].append(f)
            self._cofacets = {f: tuple(v) for f, v in table.items()}
        face = tuple(face)
        if face not in self._cofacets:
            raise MalformedInputError(f"{face!r} is not a face of the complex")
        return self._cofacets[face]

    def facets(self) -> tuple[Face, ...]:
        """The faces without cofacets, by dimension, each in canonical order."""
        out = []
        for d in range(0, self._top_dim + 1):
            out.extend(map(self._faces[d].__getitem__, np.flatnonzero(self._cofacet_counts(d) == 0).tolist()))
        return tuple(out)

    # -- face arrays -------------------------------------------------------

    def _face_array(self, d: int) -> np.ndarray:
        """The d-faces as one ``(n_d, d+1)`` int64 array, rows in canonical order."""
        if d not in self._arrays:
            n = self.face_count(d)
            flat = np.fromiter(chain.from_iterable(self.faces(d)), np.int64, n * (d + 1))
            self._arrays[d] = flat.reshape(n, d + 1)
        return self._arrays[d]

    def _face_keys(self, d: int) -> np.ndarray:
        """Key of each d-face (d >= 1): the index of its prefix (d-1)-face
        times n_0 plus the index of its last vertex.  Keys increase with
        the canonical order and stay below n_{d-1} * n_0, which no id
        size can overflow."""
        if d not in self._keys:
            faces, verts = self._face_array(d), self._face_array(0)[:, 0]
            self._keys[d] = self._locate(faces[:, :-1]) * len(verts) + np.searchsorted(verts, faces[:, -1])
        return self._keys[d]

    def _locate(self, rows: np.ndarray) -> np.ndarray:
        """Index in ``faces(d)`` of each row of an ``(m, d+1)`` int64 array
        of increasing vertex ids, -1 where the row is not a face: one
        ``searchsorted`` per column, on the vertices and then on the keys."""
        width = rows.shape[1]
        if not 1 <= width <= self._top_dim + 1:
            return np.full(len(rows), -1, np.int64)
        verts = self._face_array(0)[:, 0]
        pos = np.searchsorted(verts, rows).clip(max=len(verts) - 1)
        found = (verts[pos] == rows).all(axis=1)
        idx = pos[:, 0]
        for c in range(1, width):
            keys = self._face_keys(c)
            key = idx * len(verts) + pos[:, c]
            idx = np.searchsorted(keys, key).clip(max=len(keys) - 1)
            found &= keys[idx] == key
        return np.where(found, idx, -1)

    def _cofacet_counts(self, d: int) -> np.ndarray:
        """Number of cofacets of each d-face, in canonical order."""
        if d not in self._counts:
            n = self.face_count(d)
            counts = np.bincount(coboundary(self, d)[1], minlength=n) if d < self._top_dim else np.zeros(n, np.int64)
            self._counts[d] = counts
        return self._counts[d]

    # -- connectivity ----------------------------------------------------

    @property
    def connected(self) -> bool:
        return len(self._components) <= 1

    def components(self) -> tuple[frozenset, ...]:
        """Vertex sets of the connected components of the 1-skeleton."""
        return self._components

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._faces == other._faces and self._include_empty == other._include_empty

    def __repr__(self):
        counts = ", ".join(f"S_{d}={self.face_count(d)}" for d in self.dims())
        return f"SimplicialComplex({counts})"


def connected_components(vertices, edges) -> tuple[frozenset, ...]:
    """Vertex sets of the components of a graph, by union-find.

    ``edges`` are vertex pairs; the components are ordered by their
    sorted vertex lists.
    """
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    groups: dict[int, set] = {}
    for v in parent:
        groups.setdefault(find(v), set()).add(v)
    return tuple(sorted((frozenset(g) for g in groups.values()), key=sorted))


def build_complex(facets, include_empty: bool = True) -> SimplicialComplex:
    """Downward closure of a list of facets; see :class:`SimplicialComplex`."""
    return SimplicialComplex(facets, include_empty)


def boundary_faces(f) -> list[tuple[Face, int]]:
    """Boundary of a face: pairs ``(face, sign)``.

    The j-th boundary face omits the j-th vertex and carries sign
    ``(-1)**j``.  The boundary of a vertex is the empty face with sign +1.
    """
    f = as_face(f)
    if not f:
        raise DimensionError("the empty face has no boundary")
    return [(f[:j] + f[j + 1 :], (-1) ** j) for j in range(len(f))]


def face_coboundary(rows, cols) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzeros of the integer coboundary between two lists of faces.

    ``rows`` holds (i+1)-faces and ``cols`` i-faces, each face an
    increasing vertex tuple, and every boundary face of a row must be in
    ``cols``.  Returns ``(row, col, sign)`` int64 arrays, i+2 entries per
    row in row order, each row's boundary faces in lexicographic order:
    the matrix entry (r, c) is ``(-1)**j`` when ``cols[c]`` is
    ``rows[r]`` without its j-th vertex, and 0 where no triplet names it.
    Every coboundary in the package, plain, decorated or lifted, takes
    its signs from here.
    """
    col_index = dict(zip(cols, range(len(cols))))
    width = len(rows[0]) if len(rows) else 0
    # the k-th (i+1)-subset in lexicographic order omits vertex width-1-k
    subs = chain.from_iterable(map(combinations, rows, repeat(width - 1)))
    col = np.fromiter(map(col_index.__getitem__, subs), np.int64, len(rows) * width)
    row = np.arange(len(rows), dtype=np.int64).repeat(width)
    sign = np.array(([1, -1] * width)[width - 1 :: -1] * len(rows), dtype=np.int64)
    return row, col, sign


def coboundary(K: SimplicialComplex, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzeros ``(row, col, sign)`` of the degree-i coboundary of ``K``.

    Rows are indexed by the (i+1)-faces, columns by the i-faces, both in
    their canonical orders; see :func:`face_coboundary`.  Valid degrees
    are ``min_dim <= i <= top_dim``; at ``top_dim`` there are no rows.
    """
    if not K.min_dim <= i <= K.top_dim:
        raise DimensionError(f"coboundary dimension {i} outside [{K.min_dim}, {K.top_dim}]")
    return face_coboundary(K.faces(i + 1), K.faces(i))


# -- weights --------------------------------------------------------------

COMBINATORIAL_KIND = "combinatorial"
NORMALIZED_KIND = "normalized"
EXPLICIT_KIND = "explicit"


@dataclass(frozen=True)
class WeightScheme:
    """Positive face weights defining the cochain inner products.

    ``combinatorial`` puts weight 1 on every face.  ``normalized`` puts 1
    on the facets and gives every other face the sum of its cofacets'
    weights (this recursion also defines the weight of the empty face as
    the sum of the vertex weights).  ``explicit`` carries user weights.
    """

    kind: str
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in (COMBINATORIAL_KIND, NORMALIZED_KIND, EXPLICIT_KIND):
            raise MalformedInputError(f"unknown weight scheme {self.kind!r}")

    @staticmethod
    def explicit(mapping) -> "WeightScheme":
        vals = tuple(sorted((as_face(f), float(w)) for f, w in dict(mapping).items()))
        return WeightScheme(EXPLICIT_KIND, vals)


COMBINATORIAL = WeightScheme(COMBINATORIAL_KIND)
NORMALIZED = WeightScheme(NORMALIZED_KIND)


def compute_weights(K: SimplicialComplex, scheme: WeightScheme) -> dict[Face, float]:
    """Weight of every face of ``K`` under ``scheme``.

    The normalized recursion runs top-down by dimension: facets get 1,
    every other face the sum of its cofacets' weights.  Explicit schemes
    must weight every face of ``K``, and nothing else, with a finite
    positive weight.
    """
    if scheme.kind == COMBINATORIAL_KIND:
        return {f: 1.0 for f in K.all_faces()}
    if scheme.kind == NORMALIZED_KIND:
        w: dict[Face, float] = {}
        for d in range(K.top_dim, K.min_dim - 1, -1):
            for f in K.faces(d):
                cof = K.cofacets(f)
                w[f] = 1.0 if not cof else sum(w[c] for c in cof)
        return w
    table = dict(scheme.values)
    stray = [f for f in table if not K.has_face(f)]
    if stray:
        raise WeightError(f"explicit scheme weights {stray[0]!r}, which is not a face of the complex")
    out = {}
    for f in K.all_faces():
        if f not in table:
            raise WeightError(f"explicit scheme does not weight face {f!r}")
        if not 0 < table[f] < math.inf:
            raise WeightError(f"weight of {f!r} must be finite and positive, got {table[f]}")
        out[f] = float(table[f])
    return out


def weight_vector(K: SimplicialComplex, i: int, weights: Mapping[Face, float]) -> np.ndarray:
    """Diagonal of the weight matrix at dimension ``i``, in face order."""
    return np.array([weights[f] for f in K.faces(i)], dtype=float)


def relative_orientation_sign(f, image_vertex_order) -> int:
    """Orientation sign of a face relative to its pointwise image.

    ``image_vertex_order`` lists the images of the vertices of ``f`` in
    the order ``f`` carries them.  Returns +1 when that sequence is an
    even permutation of its sorted order, -1 otherwise.
    """
    f = as_face(f)
    image = [v if type(v) is int else _index(v, "image vertex") for v in image_vertex_order]
    if len(image) != len(f):
        raise MalformedInputError("image sequence length does not match the face")
    if len(set(image)) != len(image):
        raise MalformedInputError(
            f"image {image!r} repeats a vertex; the map is not a bijection on the face"
        )
    inversions = sum(
        1 for a in range(len(image)) for b in range(a + 1, len(image)) if image[a] > image[b]
    )
    return -1 if inversions % 2 else 1
