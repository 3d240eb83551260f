"""JSON file formats for complexes, voltages, signings, and coverings.

Every format is read; only a complex is written (:func:`save_complex`,
for ``cover build --out``).  Faces are serialized as increasing vertex
lists.  Permutations are serialized as 1-based image lists of ``1..k``.
Voltage files may omit edges, which then carry the identity; signing
files list only the flipped incidences, weighting files only the
non-unit ones.  Both load as an
:class:`~liftlap.operators.IncidenceWeighting`, a signing with values
-1.  A record of the wrong shape raises
:class:`~liftlap.errors.MalformedInputError` naming the file and record.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from . import perms
from .complexes import (
    COMBINATORIAL,
    EXPLICIT_KIND,
    NORMALIZED,
    SimplicialComplex,
    WeightScheme,
    as_face,
    build_complex,
    compute_weights,
)
from .covering import EdgeVoltages, edge_voltages
from .errors import MalformedInputError, VoltageError, WeightError
from .operators import IncidenceWeighting


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
    """Write ``K`` as a complex file under the combinatorial scheme."""
    doc = {
        "facets": [list(f) for f in K.facets()],
        "include_empty": K.include_empty,
        "weights": {"scheme": COMBINATORIAL.kind},
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1))


def load_edge_voltages(path, M: SimplicialComplex) -> EdgeVoltages:
    """Voltages on the 1-skeleton of ``M``; absent edges get the identity."""
    data = _load(path)
    with _reading(path, "fold count"):
        k = data.get("k", 1)
        # JSON true is a bool, and 2.0 is as integral as 2
        if type(k) not in (int, float) or not (k >= 1 and k % 1 == 0):
            raise ValueError(f"k must be an integer of at least 1, got {k!r}")
        k = int(k)
    table = {}
    for rec in _records(path, data, "edges"):
        with _reading(path, f"record {rec!r}"):
            edge = tuple(sorted(int(v) for v in rec["edge"]))
            _add(table, edge, perms.check_perm(perms.from_one_based(rec["perm"]), k))
    return edge_voltages(M, k, table)


def load_signing(path) -> IncidenceWeighting:
    """Signing file: listed (face, cofacet) pairs are -1, all others +1."""
    data = _load(path)
    flips = {}
    for rec in _records(path, data, "flips"):
        with _reading(path, f"record {rec!r}"):
            _add(flips, _incidence(rec), -1.0)
    return IncidenceWeighting(flips)


def load_weighting(path) -> IncidenceWeighting:
    """Weighting file: listed pairs carry the given complex value, others 1."""
    data = _load(path)
    values = {}
    for rec in _records(path, data, "entries"):
        with _reading(path, f"record {rec!r}"):
            val = rec["value"]
            _add(values, _incidence(rec), complex(float(val.get("re", 0.0)), float(val.get("im", 0.0))))
    with _reading(path, "weighting"):
        return IncidenceWeighting(values)


def load_vertex_map(path) -> dict:
    data = _load(path)
    if "vertex_map" not in data:
        raise MalformedInputError(f"{path}: missing 'vertex_map'")
    table = {}
    with _reading(path, "vertex_map"):
        for a, b in data["vertex_map"]:
            _add(table, int(a), int(b))
    return table
