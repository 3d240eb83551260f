"""Independent reference implementations, and the permutations and exact
factorization they are checked with, that only the tests call."""

import math
from dataclasses import dataclass
from itertools import chain, combinations, repeat

import numpy as np

import liftlap.reference_fixture as rf
from liftlap import (
    COMBINATORIAL,
    CoveringMap,
    CoveringViolation,
    DimensionError,
    GroupStructureError,
    IncidenceVoltages,
    IncidenceWeighting,
    LiftlapError,
    MalformedInputError,
    SimplicialComplex,
    SpectrumMultiset,
    WeightError,
    WeightScheme,
    as_face,
    block_values,
    build_complex,
    coboundary,
    compute_weights,
    decompose_representation,
    decorated_coboundary,
    exact_betti_numbers,
    induced_incidence_voltage,
    laplacian_matrix,
    voltage_group,
)
from liftlap.complexes import COMBINATORIAL_KIND, NORMALIZED_KIND, _index
from liftlap.covering import _orientation_signs
from liftlap.homology import _pivots


# a permutation p of 0..k-1 as its image tuple: p maps j to p[j]
Perm = tuple


def identity(k: int) -> Perm:
    return tuple(range(k))


def compose(p: Perm, q: Perm) -> Perm:
    """Function composition: ``compose(p, q)[j] == p[q[j]]`` (q applied first)."""
    return tuple(p[x] for x in q)


def closure(gens, k: int) -> list:
    """The sorted permutation tuples of the group ``gens`` generate in
    S_k, composing from the identity until nothing new appears: what the
    rows of ``voltage_group(gens).elements`` must be."""
    elements = {identity(k)}
    while True:
        more = {compose(g, h) for g in map(tuple, gens) for h in elements} - elements
        if not more:
            return sorted(elements)
        elements |= more


def cycle(k: int) -> Perm:
    """The k-cycle 0 -> 1 -> ... -> k-1 -> 0."""
    return tuple((j + 1) % k for j in range(k))


def transposition(k: int, a: int, b: int) -> Perm:
    im = list(range(k))
    im[a], im[b] = im[b], im[a]
    return tuple(im)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for j, i in enumerate(p):
        inv[i] = j
    return tuple(inv)


def permutation_matrix(p: Perm) -> np.ndarray:
    """k x k 0/1 matrix P with P[p[j], j] = 1."""
    k = len(p)
    mat = np.zeros((k, k), dtype=np.int64)
    for j in range(k):
        mat[p[j], j] = 1
    return mat


def to_one_based(p: Perm) -> list:
    """A permutation as the 1-based image list of the voltage files."""
    return [x + 1 for x in p]


def nonzeros(matrix) -> tuple:
    """The ``(rows, cols, values)`` of a 2-d array's nonzeros, the form
    in which :func:`exact_rank` and ``coboundary`` give a matrix."""
    a = np.asarray(matrix)
    rows, cols = np.nonzero(a)
    return rows, cols, a[rows, cols]


def exact_rank(triplets) -> int:
    """The exact rank over the rationals of the integer matrix with
    nonzeros ``(rows, cols, values)``: the number of pivots of the
    elimination that ``exact_betti_numbers`` runs."""
    return len(_pivots(*map(np.asarray, triplets)))


def dense_matrix(triplets, shape) -> np.ndarray:
    """The ``shape`` array with the values of ``(rows, cols, values)``
    at their positions and zeros elsewhere."""
    rows, cols, values = triplets
    out = np.zeros(shape, values.dtype)
    out[rows, cols] = values
    return out


# -- faces one at a time ----------------------------------------------------------


def closure_faces(facets, include_empty: bool = True) -> dict:
    """The downward closure of the facets as face tuples, per dimension
    in canonical order, from a set of vertex combinations: what the face
    arrays of a ``SimplicialComplex`` built from ``facets`` must hold."""
    closure: set = set()
    for raw in facets:
        f = as_face(raw)
        if not f:
            raise MalformedInputError("facets must be non-empty vertex sets")
        for r in range(1, len(f) + 1):
            closure.update(combinations(f, r))
    faces: dict = {-1: [()]} if include_empty else {}
    # lexicographic order of all faces is lexicographic within each dimension
    for f in sorted(closure):
        faces.setdefault(len(f) - 1, []).append(f)
    return {d: tuple(fs) for d, fs in faces.items()}


def union_find_components(vertices, edges) -> tuple[frozenset, ...]:
    """Vertex sets of the components of a graph, by union-find, ordered
    by their sorted vertex lists: what ``SimplicialComplex.components``
    must return."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    groups: dict = {}
    for v in parent:
        groups.setdefault(find(v), set()).add(v)
    return tuple(sorted((frozenset(g) for g in groups.values()), key=sorted))



def unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D integer array, sorted, and the position of
    each row among them, by one ``lexsort`` of the columns and a comparison
    of neighbouring rows: what ``complexes._unique_rows`` must return."""
    order = np.lexsort(a.T[::-1]) if a.shape[1] else np.arange(len(a))
    ordered = a[order]
    new = np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)][: len(a)]
    inverse = np.empty(len(a), np.int64)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def face_positions(K: SimplicialComplex) -> dict:
    """Each face of ``K`` with its index in the canonical order of its
    dimension, in a dict: what the face search ``K._indices`` must find."""
    return {f: r for d in K.dims() for r, f in enumerate(K.faces(d))}


def vertex_ids(K: SimplicialComplex) -> tuple:
    """The vertex ids of ``K`` in canonical order."""
    return tuple(v for (v,) in K.faces(0))


def vertex_dict(cov: CoveringMap) -> dict:
    """The projection of a covering on vertices as a dict of ids, read
    through ``cov.projection``."""
    images = cov.base.faces(0)
    return {v: images[j][0] for v, j in zip(vertex_ids(cov.cover), cov.projection.tolist())}


def cofacet_table(K: SimplicialComplex) -> dict:
    """Each face of ``K`` with its cofacets in canonical order, found by
    deleting each vertex of every face in turn."""
    table: dict = {f: [] for f in face_positions(K)}
    for d in range(0, K.top_dim + 1):
        for f in K.faces(d):
            for j in range(len(f)):
                if f[:j] + f[j + 1 :] in table:
                    table[f[:j] + f[j + 1 :]].append(f)
    return {f: tuple(v) for f, v in table.items()}


def boundary_faces(f) -> list[tuple[tuple, int]]:
    """Boundary of a face: pairs ``(face, sign)``.

    The j-th boundary face omits the j-th vertex and carries sign
    ``(-1)**j``.  The boundary of a vertex is the empty face with sign +1.
    """
    f = as_face(f)
    if not f:
        raise DimensionError("the empty face has no boundary")
    return [(f[:j] + f[j + 1 :], (-1) ** j) for j in range(len(f))]


def face_coboundary(rows, cols) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzeros of the integer coboundary between two lists of faces, with
    a dict from face to column: ``coboundary`` must return the same int64
    triplets.

    ``rows`` holds (i+1)-faces and ``cols`` i-faces, and every boundary
    face of a row must be in ``cols``.  There are i+2 entries per row in
    row order, each row's boundary faces in lexicographic order: the
    entry (r, c) is ``(-1)**j`` when ``cols[c]`` is ``rows[r]`` without
    its j-th vertex.
    """
    col_index = dict(zip(cols, range(len(cols))))
    width = len(rows[0]) if len(rows) else 0
    # the k-th (i+1)-subset in lexicographic order omits vertex width-1-k
    subs = chain.from_iterable(map(combinations, rows, repeat(width - 1)))
    col = np.fromiter(map(col_index.__getitem__, subs), np.int64, len(rows) * width)
    row = np.arange(len(rows), dtype=np.int64).repeat(width)
    sign = np.array(([1, -1] * width)[width - 1 :: -1] * len(rows), dtype=np.int64)
    return row, col, sign


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


def face_weights(K: SimplicialComplex, scheme: WeightScheme) -> dict:
    """Weight of every face of ``K``, face by face in a dict: normalized
    weights by the top-down recursion over :func:`cofacet_table`, explicit ones
    checked face by face.  ``compute_weights`` must give the same values,
    bitwise, and raise the same errors."""
    if scheme.kind == COMBINATORIAL_KIND:
        return {f: 1.0 for f in face_positions(K)}
    if scheme.kind == NORMALIZED_KIND:
        w: dict = {}
        cofacets = cofacet_table(K)
        for d in range(K.top_dim, K.min_dim - 1, -1):
            for f in K.faces(d):
                cof = cofacets[f]
                w[f] = 1.0 if not cof else sum(w[c] for c in cof)
        return w
    table = dict(scheme.values)
    position = face_positions(K)
    stray = [f for f in table if f not in position]
    if stray:
        raise WeightError(f"explicit scheme weights {stray[0]!r}, which is not a face of the complex")
    out = {}
    for f in face_positions(K):
        if f not in table:
            raise WeightError(f"explicit scheme does not weight face {f!r}")
        if not 0 < table[f] < math.inf:
            raise WeightError(f"weight of {f!r} must be finite and positive, got {table[f]}")
        out[f] = float(table[f])
    return out


def coboundary_matrix(K: SimplicialComplex, i: int) -> np.ndarray:
    """The degree-i coboundary of ``K`` as a dense integer matrix, rows
    the (i+1)-faces and columns the i-faces in their canonical orders."""
    return dense_matrix(coboundary(K, i), (K.face_count(i + 1), K.face_count(i)))


def bareiss_rank(matrix) -> int:
    """Exact rank of an integer matrix by fraction-free elimination.

    Pure-integer Bareiss pivoting; exact for any matrix that fits in
    Python ints, and independent of the floating eigensolver path.
    """
    m = [[int(x) for x in row] for row in np.asarray(matrix)]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        piv = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, n_rows):
            for c in range(col + 1, n_cols):
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == n_rows:
            break
    return rank


def numeric_kernel_dimension(K: SimplicialComplex, i: int, scheme: WeightScheme = COMBINATORIAL) -> int:
    """Betti number counted as the eigenvalues at most 1e-7 of the
    symmetrized full degree-i cochain Laplacian (the up part alone at the
    lowest dimension); ``exact_betti_numbers`` must agree."""
    kind = "full" if i > K.min_dim else "up"
    sym = symmetrized_form(cochain_laplacian(K, i, kind, scheme), cochain_weights(K, i, scheme))
    return int(np.sum(np.linalg.eigvalsh((sym + sym.conj().T) / 2) <= 1e-7))


@dataclass
class BettiReport:
    """Betti numbers per dimension with harmonic bases of the same size.

    ``kernel_bases[i]`` has ``betti[i]`` columns spanning the kernel of
    the full Laplacian.  ``reduced`` is False when the complex omits the
    empty face, in which case the degree-0 number counts components
    rather than components minus one.
    """

    betti: dict
    kernel_bases: dict
    reduced: bool


def harmonic_bases(K: SimplicialComplex, betti: dict, scheme: WeightScheme) -> dict:
    """A basis of each kernel of ``K`` under ``scheme``: where b_i > 0 the
    b_i eigenvectors of least eigenvalue of the full degree-i operator
    (the up part alone at the lowest dimension), mapped back to cochain
    values; where b_i = 0 an empty basis, and no operator is built.  Their
    lifts must be harmonic cochains of a cover (:func:`lifted_harmonics`)."""
    bases = {}
    for i, b in betti.items():
        if b == 0:
            bases[i] = np.zeros((K.face_count(i), 0))
            continue
        op = laplacian_matrix(K, i, "full" if i > K.min_dim else "up", scheme)
        bases[i] = np.linalg.eigh(op)[1][:, :b] / np.sqrt(compute_weights(K, scheme)[i])[:, None]
    return bases


def betti_numbers(K: SimplicialComplex, scheme: WeightScheme = COMBINATORIAL) -> BettiReport:
    """Reduced Betti numbers of ``K`` from ``exact_betti_numbers``, with an
    eigensolved harmonic basis for each."""
    betti = exact_betti_numbers(K)
    return BettiReport(betti, harmonic_bases(K, betti, scheme), K.include_empty)


# -- the cochain form of the operators -----------------------------------------


def cochain_weights(K: SimplicialComplex, i: int, scheme: WeightScheme = COMBINATORIAL, decoration=None):
    """The dimension-i weight diagonal, each weight repeated once per row
    of the decoration's d x d values."""
    w = compute_weights(K, scheme).get(i, np.zeros(0))
    return np.repeat(w, getattr(decoration, "block_size", 1))


def dense_decorated_coboundary(K: SimplicialComplex, i: int, decoration=None) -> np.ndarray:
    """The decorated coboundary as a dense matrix, placed block by block
    from ``coboundary_matrix``: nonzero (r, c) becomes ``sign * value``
    at rows ``r*d ..`` and columns ``c*d ..``.  The densified
    ``decorated_coboundary`` must equal it."""
    D = coboundary_matrix(K, i)
    if decoration is None:
        return D
    d = decoration.block_size
    out = np.zeros((D.shape[0] * d, D.shape[1] * d), decoration.dtype)
    cofacets, faces = K.faces(i + 1), K.faces(i)
    values = pair_table(K, i, decoration.layers[i]) if i in decoration.layers else {}
    for r, c in zip(*np.nonzero(D)):
        block = np.reshape(values.get((faces[c], cofacets[r]), np.eye(d)), (d, d))
        out[r * d : (r + 1) * d, c * d : (c + 1) * d] = D[r, c] * block
    return out


def incidence_pairs(K: SimplicialComplex, i: int) -> list:
    """The (face, cofacet) pair of each nonzero of ``coboundary(K, i)``, in
    its order: the labels of the rows of an incidence layer."""
    rows, cols, _ = coboundary(K, i)
    return list(zip(map(K.faces(i).__getitem__, cols.tolist()), map(K.faces(i + 1).__getitem__, rows.tolist())))


def pair_table(K: SimplicialComplex, i: int, values) -> dict:
    """An incidence layer of values (voltages as tuples) keyed by its
    (face, cofacet) pairs."""
    values = [tuple(v) for v in values.tolist()] if np.ndim(values) == 2 else list(values)
    return dict(zip(incidence_pairs(K, i), values))


def incidence_voltages(M: SimplicialComplex, k: int, i: int, table) -> IncidenceVoltages:
    """Layer-i voltages from a dict keyed by (face, cofacet) pairs; the
    incidences not listed carry the identity."""
    ident = tuple(range(k))
    perms = [table.get(pair, ident) for pair in incidence_pairs(M, i)]
    return IncidenceVoltages(M, k, i, np.array(perms, np.int64).reshape(-1, k))


def per_pair_decorated_coboundary(K: SimplicialComplex, i: int, values, dtype=None) -> tuple:
    """The decorated coboundary read pair by pair from ``values``, a dict
    keyed by (face, cofacet) pairs whose unlisted incidences carry the
    identity.  A 1 x 1 matrix is its scalar.  The triplets have
    ``dtype``, by default complex exactly when some value has a complex
    dtype, whatever its imaginary part.  Zero entries are dropped.
    ``decorated_coboundary`` must give the same triplets bit for bit from
    the same values in coboundary order."""
    table = {}
    for pair, v in values.items():
        v = np.asarray(v)
        table[pair] = v[0, 0] if v.shape == (1, 1) else v
    d = next((len(v) for v in table.values() if v.ndim), 1)
    if dtype is None:
        dtype = np.complex128 if any(np.iscomplexobj(v) for v in table.values()) else np.float64
    rows, cols, signs = coboundary(K, i)
    faces, cofacets = K.faces(i), K.faces(i + 1)
    unit = np.eye(d) if d > 1 else 1.0
    blocks = [table.get((faces[c], cofacets[r]), unit) for r, c in zip(rows.tolist(), cols.tolist())]
    blocks = signs[:, None, None] * np.array(blocks, dtype).reshape(-1, d, d)
    within = np.arange(d)
    rows = np.broadcast_to((rows * d)[:, None, None] + within[:, None], blocks.shape)
    cols = np.broadcast_to((cols * d)[:, None, None] + within, blocks.shape)
    kept = blocks.ravel() != 0
    return rows.ravel()[kept], cols.ravel()[kept], blocks.ravel()[kept]


def assembled_coboundary(K: SimplicialComplex, i: int, decoration=None) -> tuple:
    """The nonzeros ``(row, col, value)`` of the decorated coboundary the
    operators assemble from, under the combinatorial scheme, whose unit
    weights leave every value equal.  Reads the library at call time."""
    from liftlap import operators

    return operators._weighted_coboundary(K, i, compute_weights(K, COMBINATORIAL), decoration)[:3]


def cochain_laplacian(
    K: SimplicialComplex, i: int, kind: str = "up", scheme: WeightScheme = COMBINATORIAL, decoration=None
) -> np.ndarray:
    """The operator on i-cochains: up ``W_i^{-1} D_i^H W_{i+1} D_i``, down
    ``D_{i-1} W_{i-1}^{-1} D_{i-1}^H W_i``, full their sum (up is zero at
    the top dimension).  ``laplacian_matrix`` must give its
    :func:`symmetrized_form`."""
    w_i = cochain_weights(K, i, scheme, decoration)
    mat = np.zeros((len(w_i), len(w_i)))
    if kind != "down" and i < K.top_dim:
        D = dense_decorated_coboundary(K, i, decoration)
        mat = mat + (D.conj().T * cochain_weights(K, i + 1, scheme, decoration)) @ D / w_i[:, None]
    if kind != "up":
        D = dense_decorated_coboundary(K, i - 1, decoration)
        mat = mat + (D / cochain_weights(K, i - 1, scheme, decoration)) @ (D.conj().T * w_i)
    return mat


def dense_laplacian(
    K: SimplicialComplex, i: int, kind: str = "up", scheme: WeightScheme = COMBINATORIAL, decoration=None
) -> np.ndarray:
    """``A_i^H A_i`` (up), ``A_{i-1} A_{i-1}^H`` (down) or their sum as
    dense matrix products, with ``A_j = W_{j+1}^{1/2} D_j W_j^{-1/2}`` from
    :func:`dense_decorated_coboundary`: the dense reference that
    ``laplacian_matrix`` must match to rounding."""

    def weighted(j):
        D = dense_decorated_coboundary(K, j, decoration)
        hi, lo = cochain_weights(K, j + 1, scheme, decoration), cochain_weights(K, j, scheme, decoration)
        return D * (np.sqrt(hi)[:, None] / np.sqrt(lo))

    n = len(cochain_weights(K, i, scheme, decoration))
    mat = np.zeros((n, n))
    if kind != "down":
        A = weighted(i)
        mat = mat + A.conj().T @ A
    if kind != "up":
        A = weighted(i - 1)
        mat = mat + A @ A.conj().T
    return mat


def symmetrized_form(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Similarity transform ``W^{1/2} L W^{-1/2}``: Hermitian positive
    semidefinite for the cochain operators above, with the same spectrum."""
    root = np.sqrt(np.asarray(weights, dtype=float))
    return (matrix * root[:, None]) / root[None, :]


def block_laplacians(
    M: SimplicialComplex, psi, i: int, scheme: WeightScheme = COMBINATORIAL, direction="up", decomposition=None
):
    """The assembled blocks whose spectra union to the lifted i-dimensional
    Laplacian's: block 0 the base operator, block j >= 1 the base operator
    weighted by block j's ``block_values``.  ``psi`` lives on the incidence
    layer the operator reads, (i, i+1) for up and (i-1, i) for down."""
    layer = i if direction == "up" else i - 1
    if psi.dim != layer:
        raise DimensionError(f"{direction} blocks at dim {i} need voltages on layer {layer}")
    dec = decomposition or decompose_representation(voltage_group(psi.perms))
    weightings = as_weightings(psi, block_values(dec, psi.perms)[1:])
    return [laplacian_matrix(M, i, direction, scheme, w) for w in [None] + weightings]


def as_weightings(psi: IncidenceVoltages, values) -> list:
    """Each per-incidence value array of ``psi``'s layer, such as a block's
    ``block_values`` or the R of ``integer_split``, as a weighting of the
    base, so that the block it carries can be assembled and solved."""
    return [IncidenceWeighting(psi.base, {psi.dim: v}) for v in values]


def blocks_of(dec) -> dict:
    """The blocks of every group element keyed by its permutation tuple:
    ``blocks_of(dec)[g][j]`` is block j of ``transform^H P^g transform``,
    one dense product per element."""
    T = dec.transform
    offsets = np.cumsum((0,) + tuple(dec.block_sizes))
    table = {}
    for g in map(tuple, dec.group.elements.tolist()):
        conj = T.conj().T @ permutation_matrix(g) @ T
        table[g] = [conj[a:b, a:b] for a, b in zip(offsets, offsets[1:])]
    return table


def per_incidence_block_values(dec, perms) -> list:
    """What ``block_values(dec, perms)`` must return: block j of each
    row's voltage, looked up in :func:`blocks_of` one row at a time; a
    voltage outside the group raises ``KeyError``."""
    table = blocks_of(dec)
    values = [table[p] for p in map(tuple, perms.tolist())]
    return [np.array([v[j] for v in values]) for j in range(len(dec.block_sizes))]


def per_incidence_signing(psi: IncidenceVoltages) -> np.ndarray:
    """The incidence signing of a two-fold cover, one incidence at a time:
    -1 where the voltage swaps the two sheets, +1 where it fixes them."""
    signs = {(0, 1): 1, (1, 0): -1}
    return np.array([signs[p] for p in map(tuple, psi.perms.tolist())], np.int64)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """A Haar-random d x d unitary: the Q of a complex Gaussian matrix,
    its columns rephased by the signs of R's diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conjugated_weighting(weighting: IncidenceWeighting, unitary: np.ndarray) -> IncidenceWeighting:
    """The weighting with every value v replaced by ``U^H v U``: the same
    representation written in another orthonormal basis.  Unlisted
    layers carry the identity, which conjugation keeps."""
    u = np.asarray(unitary)
    d = len(u)
    return IncidenceWeighting(
        weighting.complex, {i: u.conj().T @ np.reshape(v, (-1, d, d)) @ u for i, v in weighting.layers.items()}
    )


def kronecker_coboundary(M: SimplicialComplex, psi, i: int) -> np.ndarray:
    """Lifted coboundary as the sum over voltage values p of the coboundary
    restricted to the incidences with voltage p, tensored with P(p);
    ``voltage_coboundary_matrix`` must agree exactly."""
    D = coboundary_matrix(M, i)
    cofacets, faces = M.faces(i + 1), M.faces(i)
    voltages = pair_table(M, i, psi.perms)
    pieces = {}
    for r, c in zip(*np.nonzero(D)):
        p = voltages[(faces[c], cofacets[r])]
        pieces.setdefault(p, np.zeros_like(D))[r, c] = D[r, c]
    out = np.zeros((D.shape[0] * psi.k, D.shape[1] * psi.k), dtype=np.int64)
    for p, Dp in pieces.items():
        out += np.kron(Dp, permutation_matrix(p))
    return out


# -- explicit operator formulas ------------------------------------------------


def explicit_up_laplacian(K: SimplicialComplex, i: int, scheme: WeightScheme = COMBINATORIAL):
    """Up operator assembled face by face, without matrix products.

    The diagonal at a face is the weight sum of its cofacets over its own
    weight; the off-diagonal at (F, F') is the cofacet weight over w(F)
    times the two boundary signs inside their common cofacet.
    """
    if not (K.min_dim <= i <= K.top_dim):
        raise LiftlapError(f"dimension {i} out of range")
    w = face_weights(K, scheme)
    faces = K.faces(i)
    idx = {f: c for c, f in enumerate(faces)}
    L = np.zeros((len(faces), len(faces)))
    for fbar in K.faces(i + 1):
        bdry = boundary_faces(fbar)
        for f, sa in bdry:
            L[idx[f], idx[f]] += w[fbar] / w[f]
            for f2, sb in bdry:
                if f2 != f:
                    L[idx[f], idx[f2]] += w[fbar] / w[f] * sa * sb
    return L


def explicit_down_laplacian(K: SimplicialComplex, i: int, scheme: WeightScheme = COMBINATORIAL):
    """Down operator assembled face by face, mirroring the up formula."""
    if not (K.min_dim + 1 <= i <= K.top_dim):
        raise LiftlapError(f"dimension {i} out of range for the down operator")
    w = face_weights(K, scheme)
    faces = K.faces(i)
    idx = {f: c for c, f in enumerate(faces)}
    L = np.zeros((len(faces), len(faces)))
    sign_in = {}
    for f in faces:
        for h, s in boundary_faces(f):
            sign_in[(h, f)] = s
            L[idx[f], idx[f]] += w[f] / w[h]
    cofacets = cofacet_table(K)
    for h in K.faces(i - 1):
        cof = cofacets[h]
        for f in cof:
            for f2 in cof:
                if f2 != f and len(set(f) & set(f2)) == i:
                    L[idx[f], idx[f2]] += (
                        w[f2] / w[h] * sign_in[(h, f)] * sign_in[(h, f2)]
                    )
    return L


# -- graphs --------------------------------------------------------------------


class Graph:
    """A finite simple graph with hashable vertex labels."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        seen = set()
        out = []
        vset = set(self.vertices)
        for a, b in edges:
            if a == b:
                raise MalformedInputError(f"loop edge at {a!r}")
            if a not in vset or b not in vset:
                raise MalformedInputError(f"edge ({a!r}, {b!r}) uses an unknown vertex")
            key = frozenset((a, b))
            if key not in seen:
                seen.add(key)
                out.append((a, b))
        self.edges = tuple(out)

    def neighbors(self, v):
        return tuple(b if a == v else a for a, b in self.edges if v in (a, b))

    @property
    def connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        adj: dict = {v: [] for v in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(self.vertices)


@dataclass(frozen=True)
class IncidenceGraph:
    """Bipartite graph between the i-faces and (i+1)-faces of a complex."""

    left: tuple
    right: tuple
    edges: tuple
    dim: int


def incidence_graph(K: SimplicialComplex, i: int) -> IncidenceGraph:
    """The bipartite incidence graph between ``S_i(K)`` and ``S_{i+1}(K)``."""
    if not (K.min_dim <= i <= K.top_dim):
        raise DimensionError(f"incidence graph needs {K.min_dim} <= i <= {K.top_dim}")
    left = K.faces(i)
    right = K.faces(i + 1)
    idx = {f: c for c, f in enumerate(left)}
    edges = []
    for r, fbar in enumerate(right):
        for sub, _ in boundary_faces(fbar):
            edges.append((idx[sub], r))
    return IncidenceGraph(left, right, tuple(edges), i)


def as_graph_voltages(M: SimplicialComplex, psi: IncidenceVoltages) -> tuple[Graph, dict]:
    """The incidence graph (labelled) of the layer of ``M`` that incidence
    voltages live on, and its edge voltages, cofacet side first.

    The stored face-to-cofacet permutation becomes the voltage of the
    edge ``(("r", cofacet), ("l", face))`` so the generic derived-graph
    rule reproduces the incidence adjacency of the covering complex.
    """
    table = pair_table(M, psi.dim, psi.perms)
    left = sorted({f for f, _ in table})
    right = sorted({c for _, c in table})
    verts = [("l", f) for f in left] + [("r", c) for c in right]
    edges = {(("r", c), ("l", f)): p for (f, c), p in table.items()}
    return Graph(verts, list(edges)), edges


def edge_table(M: SimplicialComplex, psi) -> dict:
    """Edge voltages as a dict keyed by the edges of ``M``."""
    return dict(zip(M.faces(1), map(tuple, psi.perms.tolist())))


def derived_graph(B: Graph, k: int, voltages: dict) -> Graph:
    """The k-sheeted derived graph of a voltage assignment.

    ``voltages[(u, v)]`` is given in one orientation of each edge of
    ``B``; the other is its inverse.  ``(u, i)`` and ``(v, j)`` are
    adjacent iff ``(u, v)`` is an edge of ``B`` with voltage ``p`` and
    ``i == p[j]``.
    """
    verts = [(v, j) for v in B.vertices for j in range(k)]
    edges = []
    for u, v in B.edges:
        p = voltages[(u, v)] if (u, v) in voltages else inverse(voltages[(v, u)])
        for j in range(k):
            edges.append(((u, p[j]), (v, j)))
    return Graph(verts, edges)


# -- the exact factorization of the lifted coboundary -------------------------


@dataclass(frozen=True)
class SignDiagonal:
    """Diagonal of +-1 signs indexed by (base face, sheet) pairs."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=np.int64))


@dataclass(frozen=True)
class CoboundaryFactorization:
    """Exact factorization of the lifted coboundary.

    ``cover_coboundary`` is the coboundary of the covering complex with
    rows and columns relabeled through the fibers into (base face, sheet)
    order; it equals ``cofacet_signs @ voltage_coboundary @
    face_signs`` exactly, and ``residual`` is the largest absolute
    deviation (always 0 for a verified covering).
    """

    face_signs: SignDiagonal
    cofacet_signs: SignDiagonal
    voltage_coboundary: np.ndarray
    cover_coboundary: np.ndarray
    residual: int


def orientation_sign_diagonal(cov: CoveringMap, i: int) -> SignDiagonal:
    """Signs comparing each lifted face's orientation with its image's."""
    M = cov.base
    k = cov.degree
    fibers, images = fiber_faces(cov), vertex_dict(cov)
    entries = np.zeros(M.face_count(i) * k, dtype=np.int64)
    for c, g in enumerate(M.faces(i)):
        for j, f in enumerate(fibers[g]):
            entries[c * k + j] = relative_orientation_sign(f, [images[v] for v in f])
    return SignDiagonal(i, entries)


def voltage_coboundary_matrix(M: SimplicialComplex, psi: IncidenceVoltages, i: int) -> np.ndarray:
    """Lifted coboundary: the base coboundary decorated by the voltages'
    permutation matrices, as exact integers.

    Block row/column order is (face index) * k + sheet.  Each nonzero of
    the base coboundary, the sign of an incidence ``(G, Gbar)`` with
    stored voltage ``p``, becomes the block ``sign * P(p)``, so it lands
    at ``((Gbar, p[j]), (G, j))`` for every sheet ``j``.
    """
    if psi.dim != i:
        raise DimensionError(f"voltages are for layer {psi.dim}, not {i}")
    shape = (M.face_count(i + 1) * psi.k, M.face_count(i) * psi.k)
    P = np.array([permutation_matrix(p) for p in psi.perms.tolist()], np.int64).reshape(-1, psi.k, psi.k)
    return dense_matrix(decorated_coboundary(M, i, P), shape)


def relabeled_cover_coboundary(cov: CoveringMap, i: int) -> np.ndarray:
    """Cover coboundary with rows/columns in (base face, sheet) order."""
    K, M = cov.cover, cov.base
    D = coboundary_matrix(K, i)
    fibers = fiber_faces(cov)
    position = face_positions(K)
    col_order = [position[f] for g in M.faces(i) for f in fibers[g]]
    row_order = [position[f] for gbar in M.faces(i + 1) for f in fibers[gbar]]
    return D[np.ix_(row_order, col_order)] if D.size else D.reshape(len(row_order), len(col_order))


def coboundary_factorization(cov: CoveringMap, i: int, psi: IncidenceVoltages | None = None):
    """Factor the cover coboundary through sign diagonals, exactly, as a
    :class:`CoboundaryFactorization`.

    All arithmetic is integer; the residual must be 0 for every verified
    covering and dimension with the voltages the covering induces, the
    default ``psi``.
    """
    M = cov.base
    if not (0 <= i <= M.top_dim):
        raise DimensionError(f"factorization needs 0 <= i <= {M.top_dim}, got {i}")
    if psi is None:
        psi = induced_incidence_voltage(cov, i)
    lam_lo = orientation_sign_diagonal(cov, i)
    lam_hi = orientation_sign_diagonal(cov, i + 1)
    dpsi = voltage_coboundary_matrix(M, psi, i)
    dk = relabeled_cover_coboundary(cov, i)
    product = (lam_hi.entries[:, None] * dpsi) * lam_lo.entries[None, :]
    residual = int(np.max(np.abs(dk - product))) if dk.size else 0
    return CoboundaryFactorization(lam_lo, lam_hi, dpsi, dk, residual)


# -- the covering axioms, face by face ----------------------------------------


def per_face_verify_covering(cover: SimplicialComplex, base: SimplicialComplex, vertex_map) -> CoveringMap:
    """The covering axioms checked one cover face at a time, with sets and
    the cofacet table: ``verify_covering`` must raise the same kind with
    an equal witness, or return an equal degree, projection and fibers."""
    vertex_map = {_index(a, "vertex"): _index(b, "vertex image") for a, b in dict(vertex_map).items()}
    missing = [v for v in vertex_ids(cover) if v not in vertex_map]
    if missing:
        raise CoveringViolation("unmapped-vertex", f"vertex {missing[0]} has no image", missing[0])
    if not cover.connected:
        raise CoveringViolation(
            "not-connected",
            "covering complex must be connected",
            tuple(sorted(map(sorted, cover.components()))),
        )

    base_faces, base_cofacets, cover_cofacets = face_positions(base), cofacet_table(base), cofacet_table(cover)
    fibers: dict = {g: [] for g in face_positions(base)}
    for d in range(0, cover.top_dim + 1):
        for f in cover.faces(d):
            img = tuple(sorted({vertex_map[v] for v in f}))
            if len(img) != len(f):
                raise CoveringViolation("degenerate-face", f"face {f!r} collapses under the vertex map", f)
            if img not in base_faces:
                raise CoveringViolation("not-simplicial", f"image {img!r} of {f!r} is not a base face", f)
            fibers[img].append(f)
    if base.include_empty and cover.include_empty:
        fibers[()] = [()]

    for g, fs in fibers.items():
        if len(g) == 0:
            continue
        used: set = set()
        for f in fs:
            if used.intersection(f):
                raise CoveringViolation("fiber-overlap", f"fiber of {g!r} contains overlapping faces", (g, f))
            used.update(f)

    for d in range(0, base.top_dim):
        for g in base.faces(d):
            for gbar in base_cofacets[g]:
                for f in fibers[g]:
                    if not any(tuple(sorted(vertex_map[v] for v in fbar)) == gbar for fbar in cover_cofacets[f]):
                        raise CoveringViolation(
                            "strong-violation", f"incidence ({g!r}, {gbar!r}) has no lift at {f!r}", (f, gbar)
                        )

    degree = None
    for d in range(0, base.top_dim + 1):
        for g in base.faces(d):
            n = len(fibers[g])
            if degree is None:
                degree = n
            if n != degree:
                raise CoveringViolation("fiber-size", f"fiber of {g!r} has size {n}, expected {degree}", g)
    if cover.top_dim != base.top_dim:
        raise CoveringViolation("fiber-size", "cover and base have different top dimensions", cover.top_dim)
    position = face_positions(cover)
    tables = {
        d: np.array([[position[f] for f in fibers[g]] for g in base.faces(d)], np.int64).reshape(
            base.face_count(d), -1
        )
        for d in base.dims()
    }
    projection = np.array([base_faces[(vertex_map[v],)] for v in vertex_ids(cover)], np.int64)
    return CoveringMap(cover, base, projection, degree, tables)


def fiber_faces(cov: CoveringMap) -> dict:
    """The fibers as a dict from each base face to its cover faces, by sheet."""
    return {
        g: tuple(map(cov.cover.faces(d).__getitem__, row))
        for d, table in cov.fibers.items()
        for g, row in zip(cov.base.faces(d), table.tolist())
    }


def per_face_induced_incidence_voltage(cov: CoveringMap, i: int) -> dict:
    """Induced voltages face by face, keyed by (G, Gbar): sheet j of G goes
    to the sheet of the cofacet of G's sheet-j face that lies over Gbar,
    found among that face's cofacets; ``induced_incidence_voltage`` must
    give the same voltages in coboundary order."""
    M, fibers, cofacets = cov.base, fiber_faces(cov), cofacet_table(cov.cover)
    table = {}
    for gbar in M.faces(i + 1):
        sheet_of = {f: l for l, f in enumerate(fibers[gbar])}
        for g, _ in boundary_faces(gbar):
            table[(g, gbar)] = tuple(
                next(sheet_of[fbar] for fbar in cofacets[f] if fbar in sheet_of) for f in fibers[g]
            )
    return table


def lift_cochain(values, i: int, cov: CoveringMap) -> np.ndarray:
    """Pull a base i-cochain, or a basis of them, back to the cover.

    The lifted value on a cover face is the base value on its image
    times the orientation sign of the pointwise vertex map: the parity of
    the inversions among the images of the face's vertices, read in the
    face's own (increasing) order.  ``values`` is indexed by the base
    i-faces in canonical order: a vector, or a matrix with one cochain
    per column; the fibers place every column at once.  Kernels are
    preserved because the combinatorial and normalized weight ratios
    across incidences match between cover and base.
    """
    K, fibers = cov.cover, cov.fibers[i]
    signs = _orientation_signs(cov, i).ravel()
    values = np.asarray(values)
    out = np.zeros((K.face_count(i),) + values.shape[1:], np.result_type(values.dtype, float))
    cols = np.arange(len(fibers)).repeat(fibers.shape[1])
    out[fibers.ravel()] = signs.reshape((-1,) + (1,) * (values.ndim - 1)) * values[cols]
    return out


def lifted_harmonics(cov: CoveringMap, i: int, basis: np.ndarray, scheme: WeightScheme) -> tuple[float, float]:
    """How far the lifts of the base harmonic i-cochains ``basis`` (one per
    column) are from independent harmonic cochains of the cover: the
    largest entry of ``L x`` over the lifts x, each of norm 1, with L the
    cover's full degree-i cochain operator under ``scheme`` (the up part
    alone at the lowest dimension), and the smallest singular value of
    the lifts.  The operator and the weights come from ``laplacian_matrix``
    and ``compute_weights`` at call time, so a fault patched into the
    library reaches them."""
    from liftlap import complexes, operators

    lifted = lift_cochain(basis, i, cov)
    lifted = lifted / np.linalg.norm(lifted, axis=0)
    op = operators.laplacian_matrix(cov.cover, i, "full" if i > cov.cover.min_dim else "up", scheme)
    root = np.sqrt(complexes.compute_weights(cov.cover, scheme)[i])[:, None]
    # L x in cochain units, L = W^{-1/2} (Hermitian form) W^{1/2}
    residual = float(np.max(np.abs(op @ (root * lifted) / root)))
    return residual, float(np.linalg.svd(lifted, compute_uv=False)[-1])


def per_face_lift_cochain(values, i: int, cov: CoveringMap) -> np.ndarray:
    """A base i-cochain (or a matrix of them) lifted face by face: each
    cover face takes its image's value times ``relative_orientation_sign``;
    ``lift_cochain`` must match it bitwise."""
    fibers, position, images = fiber_faces(cov), face_positions(cov.cover), vertex_dict(cov)
    rows, cols, signs = [], [], []
    for c, g in enumerate(cov.base.faces(i)):
        for face in fibers[g]:
            rows.append(position[face])
            cols.append(c)
            signs.append(relative_orientation_sign(face, [images[v] for v in face]))
    values = np.asarray(values)
    out = np.zeros((cov.cover.face_count(i),) + values.shape[1:], np.result_type(values.dtype, float))
    out[rows] = np.reshape(signs, (-1,) + (1,) * (values.ndim - 1)) * values[cols]
    return out


# -- spectra ---------------------------------------------------------------------


def layer_spectra(K: SimplicialComplex, i: int, scheme: WeightScheme = COMBINATORIAL, decoration=None) -> tuple:
    """Spectra of the i-up and the (i+1)-down operator from one eigensolve:
    ``(up_i, down_{i+1})``, each the multiset ``spectrum`` gives for the
    assembled operator, up to rounding.  The spectra of ``A^H A`` and
    ``A A^H`` agree except for ``|n_{i+1} - n_i|`` extra zeros, so only the
    smaller Gram side of the weighted coboundary ``A`` is solved and the
    other is padded with exact zeros; at the top dimension nothing is
    solved.  Reads the library at call time, so a fault patched into it
    reaches this too.  Valid layers: ``min_dim <= i <= top_dim``."""
    from liftlap import complexes, operators

    if not K.min_dim <= i <= K.top_dim:
        raise DimensionError(f"incidence layer needs {K.min_dim} <= i <= {K.top_dim}, got {i}")
    layer = operators._weighted_coboundary(K, i, complexes.compute_weights(K, scheme), decoration)
    n_hi, n_lo = layer[3]
    up = n_lo <= n_hi
    solved = operators.spectrum(operators._gram(layer, "up" if up else "down"))
    padded = SpectrumMultiset(solved.values + (0.0,) * abs(n_hi - n_lo), solved.clamped)
    return (solved, padded) if up else (padded, solved)


@dataclass(frozen=True)
class SpectrumComparison:
    """``witness`` is the first unmatched value (None when ``holds``)."""

    holds: bool
    max_pairing_error: float
    witness: float | None


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def compare_spectra(a: SpectrumMultiset, b: SpectrumMultiset, mode: str = "equal", tol: float = 1e-8):
    """Compare eigenvalue multisets, two values matching when ``|a - b| <=
    tol * max(1, |a|, |b|)``.  ``equal``: as many values, the sorted ones
    matching pairwise.  ``subset``: each sorted value of ``a`` takes the
    first unused value of ``b`` it matches, skipping the smaller values of
    ``b`` that it does not.  Failure is reported with the first unmatched
    value as witness, never raised."""
    if mode == "subset":
        worst, j = 0.0, 0
        for x in a.values:
            while j < len(b) and b.values[j] < x and not _close(b.values[j], x, tol):
                j += 1
            if j >= len(b) or not _close(b.values[j], x, tol):
                return SpectrumComparison(False, math.inf, x)
            worst = max(worst, abs(b.values[j] - x))
            j += 1
        return SpectrumComparison(True, worst, None)
    if len(a) != len(b):
        return SpectrumComparison(False, math.inf, max(a.values, b.values, key=len)[min(len(a), len(b))])
    for x, y in zip(a.values, b.values):
        if not _close(x, y, tol):
            return SpectrumComparison(False, abs(x - y), x)
    return SpectrumComparison(True, max((abs(x - y) for x, y in zip(a.values, b.values)), default=0.0), None)


# -- the reference fixture search ---------------------------------------------


def target_spectrum(target, zeros: int) -> SpectrumMultiset:
    """The float spectrum of an exact fixture target, its values a + b√3
    given as integer pairs (a, b), with ``zeros`` zeros added."""
    return SpectrumMultiset([a + b * math.sqrt(3) for a, b in target] + [0.0] * zeros)


def brute_force_base_matches(tol: float) -> list[tuple]:
    """The facets of every labeled 6-vertex complex with 6 triangles and
    12 edges, each edge in at most two triangles, connected, with first
    Betti number 1 and edge up-spectrum ``rf.BASE_TARGET`` and six zeros
    at ``tol``, sorted.

    Visits each labeled candidate apart: a union-find for connectivity,
    an exact rank for b₁, and the full 12 x 12 DᵀD eigensolve compared
    by :func:`compare_spectra`.
    """
    verts = range(6)
    all_edges = list(combinations(verts, 2))
    found = []
    for tris in combinations(combinations(verts, 3), 6):
        counts: dict[tuple, int] = {}
        for t in tris:
            for e in combinations(t, 2):
                counts[e] = counts.get(e, 0) + 1
        if any(c > 2 for c in counts.values()):
            continue
        used = sorted(counts)
        if len(used) > 12:
            continue
        pool = [e for e in all_edges if e not in counts]
        for free in combinations(pool, 12 - len(used)):
            edges = sorted(used + list(free))
            if len(union_find_components(verts, edges)) != 1:
                continue
            triplets = face_coboundary(tris, edges)
            if 12 - 5 - exact_rank(triplets) != 1:
                continue
            D = dense_matrix(triplets, (6, 12))
            eigs = SpectrumMultiset(np.linalg.eigvalsh(D.T @ D))
            if compare_spectra(eigs, target_spectrum(rf.BASE_TARGET, 6), tol=tol).holds:
                found.append(build_complex(list(tris) + list(free)).facets())
    return sorted(found)


# -- the direct-solve route of the verify commands -----------------------------
#
# The spectral commands by the direct route: eigensolve the cover on every
# layer and compare its spectrum with the base spectra at ``TOL``; the
# Betti command by ranking the cover and lifting eigensolved harmonics.  They
# are the oracle the certified route of the CLI is checked against, and
# read every library function from its module at call time, so a fault
# patched into the library (tests/mutants.py) reaches both routes alike.

TOL = 1e-8

DIRECT_CLAIMS = {
    "union": ("two-fold spectral union", 2),
    "inclusion": ("spectral inclusion", None),
    "abelian": ("abelian character decomposition", None),
}


def _direct_layer(cov, layer, args):
    """Per scheme, the layer spectra of the cover and of the base under
    each of the claim's decorations; the error where the claim does not
    apply on this layer."""
    from liftlap import cli, covering, operators, representation

    psi = covering.induced_incidence_voltage(cov, layer)
    try:
        if args.subcommand == "union":
            decorations = as_weightings(psi, representation.integer_split(psi)[1:])
        elif args.subcommand == "abelian":
            dec = representation.abelian_decomposition(psi, seed=args.seed)
            decorations = as_weightings(psi, representation.block_values(dec, psi.perms)[1:])
        else:
            decorations = []
    except GroupStructureError as exc:
        if args.dim is not None:
            raise
        return exc
    return {
        name: [layer_spectra(cov.cover, layer, scheme)]
        + [layer_spectra(cov.base, layer, scheme, d) for d in [None] + decorations]
        for name, scheme in cli._schemes(args.scheme)
    }


def _layer_side(direction, i):
    """The incidence layer of the i-dimensional operator, and its side
    (0 up, 1 down) in that layer's :func:`layer_spectra`."""
    return (i, 0) if direction == "up" else (i - 1, 1)


def direct_verify_spectral(args, report):
    """``verify union|inclusion|abelian`` by solving the cover: per layer,
    the cover spectrum equals the union of the base spectra (inclusion:
    contains the base spectrum) within ``TOL``."""
    from liftlap import cli

    claim, degree = DIRECT_CLAIMS[args.subcommand]
    cov = cli._resolve_covering(args, report["inputs"])
    if degree is not None and cov.degree != degree:
        raise LiftlapError(f"the {claim} property needs a {degree}-fold cover, got degree {cov.degree}")
    cli._check_dim(cov, args.dim, 0)
    verdicts, solved = [], {}
    for direction in ("up", "down"):
        for i in cli._dims(cov, direction, args.dim):
            layer, side = _layer_side(direction, i)
            if layer not in solved:
                solved[layer] = _direct_layer(cov, layer, args)
            if isinstance(solved[layer], GroupStructureError):
                continue
            for name, layers in solved[layer].items():
                lifted, *parts = [pair[side] for pair in layers]
                if args.subcommand == "inclusion":
                    cmp = compare_spectra(parts[0], lifted, "subset", tol=TOL)
                else:
                    union = SpectrumMultiset([v for part in parts for v in part.values])
                    cmp = compare_spectra(lifted, union, "equal", tol=TOL)
                claimed = f"{claim} ({direction}, dim {i}, {name})"
                verdicts.append(cli._verdict(claimed, cmp.holds, TOL, cmp.max_pairing_error))
    if not verdicts:
        raise next(iter(solved.values()))
    return verdicts


def direct_decompose(args, report):
    """``decompose`` by solving the cover: the block spectra must union to
    the cover's spectrum within ``TOL``."""
    from liftlap import cli, covering, representation

    cov = cli._resolve_covering(args, report["inputs"])
    scheme = cli.SCHEMES[args.scheme]
    cli._check_dim(cov, args.dim, 0 if args.direction == "up" else 1)
    layer, side = _layer_side(args.direction, args.dim)
    psi = covering.induced_incidence_voltage(cov, layer)
    dec = representation.decompose_representation(representation.voltage_group(psi.perms), seed=args.seed)
    lifted = layer_spectra(cov.cover, layer, scheme)[side]
    weightings = [None] + as_weightings(psi, representation.block_values(dec, psi.perms)[1:])
    spectra = [layer_spectra(cov.base, layer, scheme, w)[side] for w in weightings]
    cmp = compare_spectra(lifted, SpectrumMultiset([v for s in spectra for v in s.values]), "equal", tol=TOL)
    first_err = max(abs(blocks[0][0, 0] - 1) for blocks in blocks_of(dec).values())
    tol = representation.RESIDUAL_TOL
    return [
        cli._verdict("block decomposition: off-block residual", dec.residual <= tol, tol, dec.residual),
        cli._verdict("block decomposition: first block is the base operator", first_err <= 1e-12, 1e-12, first_err),
        cli._verdict(
            "block decomposition: block spectra union to the lifted spectrum",
            cmp.holds,
            TOL,
            cmp.max_pairing_error,
        ),
    ]


def direct_verify_betti(args, report):
    """``verify betti`` by ranking the cover: per scheme and dimension, the
    cover's exact Betti number is at least the base's, the cover's
    coboundaries into and out of that dimension compose to zero (exact
    ranks count cohomology only for a cochain complex), and an
    eigensolved harmonic basis of the base lifts to harmonic cochains of
    the cover, independent, both within ``TOL``.  Reads the library at
    call time, as the spectral oracles do."""
    from liftlap import cli, homology

    cov = cli._resolve_covering(args, report["inputs"])
    cli._check_dim(cov, args.dim, cov.base.min_dim)
    base, cover = homology.exact_betti_numbers(cov.base), homology.exact_betti_numbers(cov.cover)
    K = cov.cover
    closed = {
        i: not K.min_dim < i < K.top_dim or not (coboundary_matrix(K, i) @ coboundary_matrix(K, i - 1)).any()
        for i in base
    }
    verdicts = []
    for name, scheme in cli._schemes(args.scheme):
        bases = harmonic_bases(cov.base, base, scheme)
        for i, b in base.items():
            if args.dim not in (None, i):
                continue
            residual, sigma = lifted_harmonics(cov, i, bases[i], scheme) if b else (0.0, math.inf)
            holds = cover.get(i, 0) >= b and closed[i] and residual <= TOL and sigma >= TOL
            claim = f"betti inequality via harmonic lifting (dim {i}, {name})"
            verdicts.append(cli._verdict(claim, holds, TOL, residual, betti_base=b, betti_cover=cover.get(i, 0)))
    table = {str(i): [b, cover.get(i, 0)] for i, b in base.items()}
    report["results"] = {name: table for name, _ in cli._schemes(args.scheme)}
    return verdicts
