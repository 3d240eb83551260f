"""Finite abstract simplicial complexes with canonical orientations.

Faces are tuples of non-negative integer vertex ids in strictly
increasing order; the increasing order *is* the canonical orientation.
The empty face ``()`` has dimension -1 and is included by default so
that reduced cohomology and the degree-(-1) coboundary exist.

A complex holds its facets as given, one int64 array per facet width
with each row sorted, and checks them when it is built.  Everything
else is computed from those arrays on first use and then kept:

* the d-faces, one sorted, duplicate-free ``(n_d, d+1)`` int64 array
  per dimension, built from the top dimension down: the distinct rows,
  by one stable sort of a packed int64 row key, among the boundary rows
  of the (d+1)-faces and the given facets of width d+1;
* the coboundary triplets of each degree, as read-only arrays, whose
  columns are the inverse of that sort: the position of each boundary
  row of a (d+1)-face among the d-faces;
* the face tuples of ``faces(d)`` and the vertex sets of
  ``components()``, views of those arrays (components by label
  propagation over the edge array).

A face given by its vertices is looked up in the face array of its
dimension, searched row by row with ``searchsorted``
(:meth:`SimplicialComplex._locate`).  The faces of the complex are not
searched for: the vertex indices of each face, and the keys ``_locate``
searches, are gathered up the coboundary columns
(:meth:`SimplicialComplex._vertex_index`).  ``index``, ``facets`` and
the weights read the coboundary or the same arrays, and weights are one
float64 array per dimension.

A complex never changes after construction and every operation is a
pure function, so concurrent reads are safe (a cache filled twice holds
the same array).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import chain, compress, cycle, repeat

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


def _ids(values, what="vertex") -> np.ndarray:
    """Non-negative integer ids as one int64 array, in order.

    Plain ints that fit take one numpy conversion.  Otherwise every
    entry goes through :func:`_index`, which accepts integral floats and
    numpy integers and names the first bad entry; ``what`` labels the
    entries, or cycles through a tuple of labels when pairs are
    flattened into one list."""
    values = list(values)
    if set(map(type, values)) <= {int}:
        try:
            ids = np.array(values, np.int64)
            if not (ids < 0).any():
                return ids
        except OverflowError:
            pass
    labels = repeat(what) if isinstance(what, str) else cycle(what)
    return np.fromiter(map(_index, values, labels), np.int64, len(values))


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D int64 array, sorted, and the position of each
    row of ``a`` among them, by the ranks of one packed row key.

    Column by column the key becomes ``key * width + (value - least)``,
    ``width`` the span of the column's values, so keys order like rows.
    Where that could leave the int64 range, the key so far is first
    replaced by its rank, and then, if the column still does not fit, the
    column by its values' ranks: the key is exact for any input."""
    key, span = np.zeros(len(a), np.int64), 1
    for column in a.T:
        least, most = (int(column.min()), int(column.max())) if len(a) else (0, 0)
        width = most - least + 1
        if span > 1 and span * width >= 2**63:
            key, span = _ranks(key)
        if span * width >= 2**63:
            (column, width), least = _ranks(column), 0
        key *= width
        key += column
        key -= least
        span *= width
    inverse, count = _ranks(key)
    distinct = np.empty((count, a.shape[1]), a.dtype)
    distinct[inverse] = a
    return distinct, inverse


def _ranks(values: np.ndarray) -> tuple[np.ndarray, int]:
    """The rank of each entry of a 1-D array among its distinct entries, and
    their number: one stable ``argsort``, quicker than the default sort on
    the nearly sorted keys of face rows."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new = np.zeros(len(values), np.int64)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    del ordered
    rank = np.empty(len(values), np.int64)
    rank[order] = np.cumsum(new, out=new)
    return rank, int(new[-1]) + 1 if len(values) else 0


def _id_or_minus_one(v) -> int:
    """``v`` as a vertex id, or -1 (no vertex has it) when no id equals it."""
    if type(v) is int or (isinstance(v, numbers.Real) and v % 1 == 0):
        return int(v) if 0 <= v <= MAX_ID else -1
    return -1


def as_face(vertices) -> Face:
    """Normalize an iterable of vertex ids into a canonical face tuple."""
    try:
        vs = list(vertices)
    except TypeError:
        raise MalformedInputError(f"face {vertices!r} is not a list of vertices") from None
    try:
        out = [_index(v) for v in vs]
    except MalformedInputError as exc:
        raise MalformedInputError(f"face {vs!r}: {exc}") from None
    if len(set(out)) != len(out):
        raise MalformedInputError(f"face {vs!r} repeats a vertex")
    return tuple(sorted(out))


def _is_block(f) -> bool:
    return isinstance(f, np.ndarray) and f.ndim == 2 and f.dtype.kind in "iu"


def _facet_arrays(facets) -> list[np.ndarray]:
    """The facets as int64 arrays, one per facet width, each row sorted
    ascending; duplicate and non-maximal facets stay.

    A 2-D integer array among the facets stands for its rows.  The ids
    of the other facets are converted a width at a time by :func:`_ids`.
    When a facet is bad, :func:`as_face` runs on the facets in order and
    names the first bad one."""
    facets = list(facets)
    try:
        kinds = set(map(type, facets))
        arrays = [f for f in facets if _is_block(f)] if np.ndarray in kinds else []
        rest = [f for f in facets if not _is_block(f)] if arrays else facets
        if not all(hasattr(kind, "__len__") for kind in kinds):
            rest = [f if hasattr(f, "__len__") else tuple(f) for f in rest]
        widths = np.fromiter(map(len, rest), np.int64, len(rest))
        for w in np.flatnonzero(np.bincount(widths)).tolist():
            at = widths == w
            arrays.append(_ids(chain.from_iterable(compress(rest, at))).reshape(np.count_nonzero(at), w))
        # a uint64 id above MAX_ID fails here, not in the cast
        good = all(a.size == 0 or (a.min() >= 0 and a.max() <= MAX_ID) for a in arrays)
        arrays = [np.sort(a.astype(np.int64), axis=1) for a in arrays if len(a)]
    except (TypeError, ValueError, MalformedInputError):
        good = False
    if good and arrays and all(a.shape[1] and not (a[:, 1:] == a[:, :-1]).any() for a in arrays):
        return arrays
    for f in facets:
        for face in f.tolist() if _is_block(f) else (f,):
            if not as_face(face):
                raise MalformedInputError("facets must be non-empty vertex sets")
    raise MalformedInputError("facet list is empty")


class SimplicialComplex:
    """The downward closure of a list of facets, listed per dimension.

    Every facet is checked as :func:`as_face` checks a face, and every
    non-empty subset of a facet is a face, so the family is downward
    closed and each face is canonical by construction.  Within each
    dimension the faces are sorted lexicographically, and that ordering
    defines the row/column indices of every matrix derived from the
    complex.

    Parameters
    ----------
    facets : iterable of vertex iterables
        Non-empty collection of non-empty vertex sets; a 2-D integer
        array among them stands for its rows.
    include_empty : bool
        Include the empty face of dimension -1 (the reduced convention).
    """

    def __init__(self, facets, include_empty: bool = True):
        self._given = _facet_arrays(facets)
        self._include_empty = include_empty
        self._top_dim = max(a.shape[1] for a in self._given) - 1
        self._arrays: dict[int, np.ndarray] = {}
        self._tuples: dict[int, tuple] = {}
        self._keys: dict[int, np.ndarray] = {}
        self._coboundaries: dict[int, tuple] = {}
        self._roots: np.ndarray | None = None
        self._components: tuple | None = None

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
        if dim not in self._tuples:
            self._tuples[dim] = tuple(map(tuple, self._face_array(dim).tolist()))
        return self._tuples[dim]

    def face_count(self, dim: int) -> int:
        return len(self._face_array(dim))

    def index(self, face: Face) -> int:
        r = int(self._indices([tuple(face)])[0])
        if r < 0:
            raise MalformedInputError(f"{face!r} is not a face of the complex")
        return r

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self._face_array(0)[:, 0].tolist())

    def facets(self) -> tuple[Face, ...]:
        """The faces without cofacets, by dimension, each in canonical order."""
        return tuple(chain.from_iterable(map(tuple, a.tolist()) for a in self._facet_rows()))

    def _facet_rows(self) -> list[np.ndarray]:
        """The rows of :meth:`facets`, one int64 array per dimension from 0."""
        return [self._face_array(d)[self._cofacet_counts(d) == 0] for d in range(0, self._top_dim + 1)]

    # -- face arrays -------------------------------------------------------

    def _face_array(self, d: int) -> np.ndarray:
        """The d-faces as one read-only ``(n_d, d+1)`` int64 array, rows in
        canonical order.

        The faces are built from the top dimension down: the d-faces are
        the distinct rows, by :func:`_unique_rows`, among the boundary
        rows of every (d+1)-face, in coboundary order, and the given
        facets of width d+1.  The position of each boundary row among
        the d-faces is the column array of the degree-d coboundary,
        which is kept with the faces unless that degree is already set."""
        if d not in self._arrays:
            if not 0 <= d <= self._top_dim:
                faces = np.zeros((int(d == -1 and self._include_empty), max(d + 1, 0)), np.int64)
            else:
                above = self._face_array(d + 1)
                n, width = above.shape
                # the k-th boundary face in lexicographic order omits column width-1-k
                kept = [[c for c in range(width) if c != width - 1 - k] for k in range(width)]
                parts = [above[:, kept].reshape(n * width, d + 1)] + [a for a in self._given if a.shape[1] == d + 1]
                faces, inverse = _unique_rows(np.concatenate(parts))
                self._coboundaries.setdefault(d, _triplets(n, width, inverse[: n * width]))
            faces.flags.writeable = False
            self._arrays[d] = faces
        return self._arrays[d]

    def _vertex_index(self, d: int) -> np.ndarray:
        """The ``(n_d, d+1)`` int64 index in ``faces(0)`` of each vertex of
        each d-face, by gathers up the coboundaries from the vertices: a
        c-face's first boundary face (column 0 of the degree-(c-1)
        coboundary) is its prefix, and its second (column 1) ends in its
        last vertex."""
        at = np.arange(self.face_count(0), dtype=np.int64)[:, None][:, : d + 1]
        if d == -1:
            return at[: self.face_count(-1)]
        for c in range(1, d + 1):
            first, second = coboundary(self, c - 1)[1].reshape(-1, c + 1)[:, :2].T
            at = np.concatenate([at[first], at[second, -1:]], axis=1)
        return at

    def _face_keys(self, d: int) -> np.ndarray:
        """Key of each d-face (d >= 1): the index of its prefix (d-1)-face,
        column 0 of the degree-(d-1) coboundary, times n_0 plus the index
        of its last vertex.  Keys increase with the canonical order and
        stay below n_{d-1} * n_0, which no id size can overflow."""
        if d not in self._keys:
            prefix = coboundary(self, d - 1)[1][:: d + 1]
            self._keys[d] = prefix * self.face_count(0) + self._vertex_index(d)[:, -1]
        return self._keys[d]

    def _locate(self, rows: np.ndarray) -> np.ndarray:
        """Index in ``faces(d)`` of each row of an ``(m, d+1)`` int64 array
        of vertex ids, -1 where the row is not a face (an unsorted row is
        not): one ``searchsorted`` on the vertices, then
        :meth:`_locate_indices` on the positions."""
        verts = self._face_array(0)[:, 0]
        # a position past the end (an id above every vertex) clips to the last
        pos = verts.searchsorted(rows)
        found = (verts.take(pos, mode="clip") == rows).all(axis=1)
        return np.where(found, self._locate_indices(pos), -1)

    def _locate_indices(self, at: np.ndarray) -> np.ndarray:
        """Index in ``faces(d)`` of each row of an ``(m, d+1)`` int64 array
        of vertex indices in ``faces(0)``, -1 where the row is not a face
        (a row that is not strictly increasing is not): one
        ``searchsorted`` per column after the first, on the keys."""
        width = at.shape[1]
        if not 1 <= width <= self._top_dim + 1:
            return np.full(len(at), -1, np.int64)
        idx, found = at[:, 0], np.ones(len(at), bool)
        for c in range(1, width):
            keys = self._face_keys(c)
            key = idx * self.face_count(0) + at[:, c]
            idx = keys.searchsorted(key)
            found &= keys.take(idx, mode="clip") == key
        return np.where(found, idx, -1)

    def _indices(self, faces) -> np.ndarray:
        """Index of each face of a list in ``faces(d)`` for its own d, -1
        where it is not a face: faces of one length are located together
        by one :meth:`_locate` call.  A vertex id matches when it equals a
        face's id, as a dict key would (2.0 matches 2); an unsorted tuple
        is not a face."""
        out = np.full(len(faces), -1, np.int64)
        by_width: dict[int, list[int]] = {}
        for j, f in enumerate(faces):
            by_width.setdefault(len(f), []).append(j)
        for width, at in by_width.items():
            if width == 0:
                out[at] = 0 if self._include_empty else -1
                continue
            ids = chain.from_iterable(faces[j] for j in at)
            rows = np.fromiter(map(_id_or_minus_one, ids), np.int64, len(at) * width)
            out[at] = self._locate(rows.reshape(len(at), width))
        return out

    def _cofacet_counts(self, d: int) -> np.ndarray:
        """Number of cofacets of each d-face, in canonical order."""
        n = self.face_count(d)
        return np.bincount(coboundary(self, d)[1], minlength=n) if d < self._top_dim else np.zeros(n, np.int64)

    # -- connectivity ----------------------------------------------------

    def _component_roots(self) -> np.ndarray:
        """Index of the least vertex of each vertex's component."""
        if self._roots is None:
            # an edge's two vertex indices are its columns of the degree-0 coboundary
            self._roots = _label_components(self.face_count(0), coboundary(self, 0)[1].reshape(-1, 2))
        return self._roots

    @property
    def connected(self) -> bool:
        return not self._component_roots().any()

    def components(self) -> tuple[frozenset, ...]:
        """Vertex sets of the connected components of the 1-skeleton,
        ordered by their sorted vertex lists."""
        if self._components is None:
            self._components = _grouped(self._face_array(0)[:, 0], self._component_roots())
        return self._components

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (
            self._include_empty == other._include_empty
            and self._top_dim == other._top_dim
            and all(np.array_equal(self._face_array(d), other._face_array(d)) for d in self.dims())
        )

    def __repr__(self):
        counts = ", ".join(f"S_{d}={self.face_count(d)}" for d in self.dims())
        return f"SimplicialComplex({counts})"


def _label_components(n: int, ends: np.ndarray) -> np.ndarray:
    """Index of the least node in the component of each of ``n`` nodes,
    for the edges given as an ``(m, 2)`` array of node indices.

    Label propagation over a forest in which every node points at
    itself (a root) or at a lesser node: each round hooks the greater
    root of every edge between two trees onto the least root it meets
    that way, then points every node straight at its root, until no edge
    joins two trees.  A root is therefore the least node of its tree."""
    root = np.arange(n)
    u, v = ends[:, 0], ends[:, 1]
    while True:
        ru, rv = root[u], root[v]
        split = ru != rv
        if not split.any():
            return root
        np.minimum.at(root, np.maximum(ru, rv)[split], np.minimum(ru, rv)[split])
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]


def _grouped(ids: np.ndarray, roots: np.ndarray) -> tuple[frozenset, ...]:
    """The sorted ``ids`` as one frozenset per component root, ordered by
    their least ids, which are the roots."""
    order = np.argsort(roots, kind="stable")
    cuts = np.flatnonzero(np.diff(roots[order])) + 1
    return tuple(frozenset(part.tolist()) for part in np.split(ids[order], cuts) if part.size)


def build_complex(facets, include_empty: bool = True) -> SimplicialComplex:
    """Downward closure of a list of facets; see :class:`SimplicialComplex`."""
    return SimplicialComplex(facets, include_empty)


def coboundary(K: SimplicialComplex, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzeros ``(row, col, sign)`` of the degree-i coboundary of ``K``.

    Rows are indexed by the (i+1)-faces, columns by the i-faces, both in
    their canonical orders.  There are i+2 int64 triplets per row, in row
    order, each row's boundary faces in lexicographic order: the entry
    (r, c) is ``(-1)**j`` when the c-th i-face is the r-th (i+1)-face
    without its j-th vertex.  Every coboundary in the package, plain,
    decorated or lifted, takes its signs from here.  The triplets are
    kept on ``K`` as read-only arrays.  Degree -1 has every column 0;
    for i >= 0 the columns come from the sort that builds the i-faces
    (:meth:`SimplicialComplex._face_array`), as the position of each
    boundary row among them, so no face is searched for.  Valid degrees
    are ``min_dim <= i <= top_dim``; at ``top_dim`` there are no rows.
    """
    if not K.min_dim <= i <= K.top_dim:
        raise DimensionError(f"coboundary dimension {i} outside [{K.min_dim}, {K.top_dim}]")
    if i == -1 and i not in K._coboundaries:
        # the boundary of every vertex is the empty face
        n = K.face_count(0)
        K._coboundaries[i] = _triplets(n, 1, np.zeros(n, np.int64))
    K._face_array(i)
    return K._coboundaries[i]


def _triplets(n: int, width: int, col: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only coboundary triplets of ``n`` rows with ``width`` nonzeros
    each, at the columns ``col``: the k-th nonzero of a row omits vertex
    j = width-1-k and has sign (-1)**j."""
    row = np.arange(n, dtype=np.int64).repeat(width)
    sign = np.tile((-1) ** np.arange(width - 1, -1, -1, dtype=np.int64), n)
    for a in (row, col, sign):
        a.flags.writeable = False
    return row, col, sign


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


def compute_weights(K: SimplicialComplex, scheme: WeightScheme) -> dict[int, np.ndarray]:
    """Weight of every face of ``K`` under ``scheme``: for each dimension
    ``d`` in ``K.dims()``, one float64 array in the canonical face order.

    The normalized recursion runs top-down by dimension: facets get 1,
    every other face the sum of its cofacets' weights, summed in their
    canonical order by one ``bincount`` over the coboundary triplets.
    Explicit schemes must weight every face of ``K``, and nothing else,
    with a finite positive weight; the first weighted non-face in the
    scheme's order, else the first face in canonical order left
    unweighted or weighted wrongly, is the one named.
    """
    if scheme.kind == COMBINATORIAL_KIND:
        return {d: np.ones(K.face_count(d)) for d in K.dims()}
    if scheme.kind == NORMALIZED_KIND:
        w = {K.top_dim: np.ones(K.face_count(K.top_dim))}
        for d in range(K.top_dim - 1, K.min_dim - 1, -1):
            rows, cols, _ = coboundary(K, d)
            sums = np.bincount(cols, w[d + 1][rows], K.face_count(d))
            # weights are positive, so only a face without cofacets sums to 0
            w[d] = np.where(sums > 0, sums, 1.0)
        return dict(sorted(w.items()))
    table = dict(scheme.values)
    faces = list(table)
    at = K._indices(faces)
    if (at < 0).any():
        raise WeightError(f"explicit scheme weights {faces[int(np.argmax(at < 0))]!r}, which is not a face of the complex")
    dims = np.fromiter(map(len, faces), np.int64, len(faces)) - 1
    values = np.fromiter(table.values(), float, len(faces))
    out = {}
    for d in K.dims():
        given, w = np.zeros(K.face_count(d), bool), np.zeros(K.face_count(d))
        given[at[dims == d]] = True
        w[at[dims == d]] = values[dims == d]
        bad = ~(given & (0 < w) & (w < math.inf))
        if bad.any():
            f = K.faces(d)[int(np.argmax(bad))]
            if f not in table:
                raise WeightError(f"explicit scheme does not weight face {f!r}")
            raise WeightError(f"weight of {f!r} must be finite and positive, got {table[f]}")
        out[d] = w
    return out
