"""JSON file formats for complexes, voltages, signings, and coverings.

Every format is read; only a complex (:func:`save_complex`, for
``cover build --out``) and the recovered reference fixture are written.
Faces are serialized as increasing vertex lists.  Permutations are
serialized as 1-based image lists of ``1..k``.  Voltage files may omit
edges, which then carry the identity; signing files list only the
flipped incidences, weighting files only the non-unit ones.  Both load
through :func:`~liftlap.operators.incidence_weighting`, which refuses a
pair that is not an incidence of the complex.  A record of the wrong
shape raises
:class:`~liftlap.errors.MalformedInputError` naming the file and record.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .complexes import (
    COMBINATORIAL,
    EXPLICIT_KIND,
    NORMALIZED,
    SimplicialComplex,
    WeightScheme,
    _ids,
    _index,
    as_face,
    build_complex,
    compute_weights,
)
from .covering import EdgeVoltages, _edge_table, _relisted, edge_voltages
from .errors import MalformedInputError, VoltageError, WeightError
from .operators import IncidenceWeighting, incidence_weighting


def _load(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise MalformedInputError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedInputError(f"{path}: expected a JSON object")
    return data


def _save(path, doc) -> None:
    """Write ``doc`` as stable JSON; a path that cannot be written is bad input."""
    _write(path, json.dumps(doc, sort_keys=True, indent=1))


def _write(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise MalformedInputError(f"{path}: {exc}") from exc


@contextmanager
def _reading(path, what):
    """Re-raise a shape error met while reading ``what`` as malformed input."""
    try:
        yield
    except (
        KeyError, TypeError, ValueError, AttributeError, MalformedInputError, VoltageError, WeightError
    ) as exc:
        raise MalformedInputError(f"{path}: malformed {what} ({type(exc).__name__}: {exc})") from exc


def _records(path, data, key) -> list:
    """The record list ``data[key]`` (empty when absent), read inside :func:`_reading`."""
    with _reading(path, f"{key!r} list"):
        return list(data.get(key, ()))


def _add(table, key, value) -> None:
    """Store ``value`` under ``key``; a key read twice is ambiguous input."""
    if key in table:
        raise MalformedInputError(f"{key!r} is listed twice, the second time as {value!r}")
    table[key] = value


def _incidence(rec) -> tuple:
    return as_face(rec["face"]), as_face(rec["cofacet"])


def load_complex(path) -> tuple[SimplicialComplex, WeightScheme]:
    data = _load(path)
    if "facets" not in data:
        raise MalformedInputError(f"{path}: missing 'facets'")
    with _reading(path, "'include_empty'"):
        include_empty = data.get("include_empty", True)
        if not isinstance(include_empty, bool):
            raise TypeError(f"expected true or false, got {include_empty!r}")
    with _reading(path, "facets"):
        K = build_complex(data["facets"], include_empty=include_empty)
    with _reading(path, "weights"):
        scheme = parse_weight_scheme(data.get("weights"))
        if scheme.kind == EXPLICIT_KIND:
            compute_weights(K, scheme)
    return K, scheme


def parse_weight_scheme(doc) -> WeightScheme:
    if doc is None:
        return COMBINATORIAL
    kind = doc.get("scheme")
    if kind == "combinatorial":
        return COMBINATORIAL
    if kind == "normalized":
        return NORMALIZED
    if kind == "explicit":
        values = {}
        for rec in doc.get("values", ()):
            _add(values, as_face(rec["face"]), float(rec["w"]))
        return WeightScheme.explicit(values)
    raise MalformedInputError(f"unknown weight scheme {kind!r}")


def save_complex(K: SimplicialComplex, path) -> None:
    """Write ``K`` as a complex file under the combinatorial scheme.

    The text is what :func:`_save` writes for the document with a
    ``facets`` list, byte for byte.  The facet rows are formatted by one
    ``%`` per dimension, since ``json.dumps`` with an indent runs its
    pure-Python encoder over every id; ``json.dumps`` writes the rest."""
    rows = []
    for a in K._facet_rows():
        if len(a):
            row = "  [\n   " + ",\n   ".join(["%d"] * a.shape[1]) + "\n  ]"
            rows.append(",\n".join([row] * len(a)) % tuple(a.ravel().tolist()))
    rest = json.dumps({"include_empty": K.include_empty, "weights": {"scheme": COMBINATORIAL.kind}}, indent=1)
    # "facets" sorts before the other keys, so it opens the document
    _write(path, '{\n "facets": [\n' + ",\n".join(rows) + "\n ],\n" + rest[2:])


def load_edge_voltages(path, M: SimplicialComplex) -> EdgeVoltages:
    """Voltages on the 1-skeleton of ``M``; absent edges get the identity.
    The ``edge`` and ``perm`` lists of all records are converted by one
    :func:`_ids` call each and checked together by the array core of
    :func:`~liftlap.covering.edge_voltages`.  When that fails, the records
    are read once in file order, to name the first bad one in the file's
    1-based terms: each checks its ids and its edge, a repeated edge, its
    images and whether they are a permutation, and the edges of the
    records before the first such fault are then located by one face
    search, to name the first non-edge among them."""
    data = _load(path)
    with _reading(path, "fold count"):
        k = _index(data.get("k", 1), "fold count")
        if k < 1:
            raise ValueError(f"k must be an integer of at least 1, got {k!r}")
    recs = _records(path, data, "edges")
    try:
        edges, perms = list(map(itemgetter("edge"), recs)), list(map(itemgetter("perm"), recs))
        if set(map(type, edges + perms)) <= {list} and set(map(len, edges)) <= {2} and set(map(len, perms)) <= {k}:
            ends = np.sort(_ids(chain.from_iterable(edges)).reshape(-1, 2), axis=1)
            images = _ids(chain.from_iterable(perms), "perm image").reshape(-1, k) - 1
            return EdgeVoltages(M, k, _edge_table(M, k, ends, images))
    except (KeyError, TypeError, MalformedInputError, VoltageError):
        pass
    table, fault = {}, None
    for j, rec in enumerate(recs):
        try:
            with _reading(path, f"record {rec!r}"):
                images = [_index(x, "perm image") for x in rec["perm"]]
                _add(table, as_face(rec["edge"]), tuple(x - 1 for x in images))
                outside = [x for x in images if not 1 <= x <= k]
                if outside:
                    raise VoltageError(f"perm image {outside[0]} is outside 1..{k}")
                if sorted(images) != list(range(1, k + 1)):
                    raise VoltageError(f"{images} is not a permutation of 1..{k}")
        except MalformedInputError as exc:
            fault = exc
            break
    read = list(table)[:j] if fault else list(table)
    # -1 is no vertex id, so a face that is no pair is no edge
    at = M._locate(np.array([e if len(e) == 2 else (-1, -1) for e in read], np.int64).reshape(-1, 2))
    if (at < 0).any():
        j = int(np.argmax(at < 0))
        with _reading(path, f"record {recs[j]!r}"):
            raise VoltageError(f"voltages given for non-edges: {[read[j]]}")
    if fault:
        raise fault
    return edge_voltages(M, k, table)


def load_signing(path, K: SimplicialComplex) -> IncidenceWeighting:
    """Signing file: listed (face, cofacet) incidences of ``K`` are -1, others +1."""
    data = _load(path)
    flips = {}
    for rec in _records(path, data, "flips"):
        with _reading(path, f"record {rec!r}"):
            _add(flips, _incidence(rec), -1.0)
    with _reading(path, "signing"):
        return incidence_weighting(K, flips)


def load_weighting(path, K: SimplicialComplex) -> IncidenceWeighting:
    """Weighting file: listed incidences of ``K`` carry the given value, others 1.

    A file whose every value has no nonzero ``im`` part holds real
    values, so it loads as a float64 weighting."""
    data = _load(path)
    values = {}
    for rec in _records(path, data, "entries"):
        with _reading(path, f"record {rec!r}"):
            val = rec["value"]
            _add(values, _incidence(rec), complex(float(val.get("re", 0.0)), float(val.get("im", 0.0))))
    if not any(v.imag for v in values.values()):
        values = {pair: v.real for pair, v in values.items()}
    with _reading(path, "weighting"):
        return incidence_weighting(K, values)


def load_vertex_map(path) -> np.ndarray:
    """The ``[vertex, image]`` records as an ``(m, 2)`` int64 array, in
    file order.  A list of pairs is converted in one :func:`_ids` call and
    searched for a repeated vertex by one sort; the records are read one
    at a time only when that fails, to name the first bad record."""
    data = _load(path)
    if "vertex_map" not in data:
        raise MalformedInputError(f"{path}: missing 'vertex_map'")
    recs = data["vertex_map"]
    if isinstance(recs, list) and set(map(type, recs)) <= {list} and set(map(len, recs)) <= {2}:
        try:
            pairs = _ids(chain.from_iterable(recs)).reshape(-1, 2)
            if _relisted(pairs[:, 0]) < 0:
                return pairs
        except MalformedInputError:
            pass
    table = {}
    with _reading(path, "vertex_map"):
        for rec in recs:
            try:
                a, b = rec
                _add(table, _index(a), _index(b))
            except (TypeError, ValueError, MalformedInputError) as exc:
                raise MalformedInputError(f"record {rec!r}: {exc}") from None
    return np.array(list(table.items()), np.int64).reshape(-1, 2)
