import json

import pytest

from liftlap import MalformedInputError, build_complex, perms
from liftlap import io as llio


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


class TestComplexFiles:
    def test_documented_example(self, tmp_path):
        p = write(
            tmp_path,
            "m.json",
            {"facets": [[0, 1, 2], [2, 3]], "include_empty": True, "weights": {"scheme": "normalized"}},
        )
        K, scheme = llio.load_complex(p)
        assert K.top_dim == 2 and K.face_count(1) == 4
        assert scheme.kind == "normalized"

    def test_explicit_weights(self, tmp_path):
        p = write(
            tmp_path,
            "m.json",
            {
                "facets": [[0, 1]],
                "weights": {
                    "scheme": "explicit",
                    "values": [
                        {"face": [0, 1], "w": 2.5},
                        {"face": [0], "w": 1.0},
                        {"face": [1], "w": 1.0},
                        {"face": [], "w": 1.0},
                    ],
                },
            },
        )
        K, scheme = llio.load_complex(p)
        assert dict(scheme.values)[(0, 1)] == 2.5

    def test_roundtrip(self, tmp_path):
        K = build_complex([{0, 1, 2}, {2, 3}])
        p = tmp_path / "k.json"
        llio.save_complex(K, p)
        K2, _ = llio.load_complex(p)
        assert K2 == K

    def test_faces_serialized_increasing(self, tmp_path):
        K = build_complex([{2, 0, 1}])
        p = tmp_path / "k.json"
        llio.save_complex(K, p)
        doc = {"facets": [[0, 1, 2]], "include_empty": True, "weights": {"scheme": "combinatorial"}}
        assert p.read_text() == json.dumps(doc, sort_keys=True, indent=1)

    def test_bad_json_is_malformed_input(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(MalformedInputError):
            llio.load_complex(p)

    def test_missing_facets_key(self, tmp_path):
        p = write(tmp_path, "m.json", {"nope": 1})
        with pytest.raises(MalformedInputError):
            llio.load_complex(p)

    @pytest.mark.parametrize("flag", ["false", 1])
    def test_include_empty_must_be_a_boolean(self, tmp_path, flag):
        p = write(tmp_path, "m.json", {"facets": [[0, 1]], "include_empty": flag})
        with pytest.raises(MalformedInputError, match="m.json: malformed 'include_empty'"):
            llio.load_complex(p)


class TestVoltageFiles:
    def test_documented_example(self, tmp_path):
        M = build_complex([{1, 2}, {2, 3}, {1, 3}])
        p = write(tmp_path, "psi.json", {"k": 2, "edges": [{"edge": [1, 2], "perm": [2, 1]}]})
        psi = llio.load_edge_voltages(p, M)
        assert psi.voltage(1, 2) == (1, 0)
        assert psi.voltage(2, 3) == (0, 1)  # absent edges default to identity

    def test_voltage_on_non_edge_rejected(self, tmp_path):
        M = build_complex([{1, 2}])
        p = write(tmp_path, "psi.json", {"k": 2, "edges": [{"edge": [1, 3], "perm": [2, 1]}]})
        with pytest.raises(Exception):
            llio.load_edge_voltages(p, M)

    def test_fold_count_must_be_an_integer(self, tmp_path):
        M = build_complex([{1, 2}])
        p = write(tmp_path, "psi.json", {"k": "two", "edges": []})
        with pytest.raises(MalformedInputError, match="psi.json: malformed fold count"):
            llio.load_edge_voltages(p, M)

    @pytest.mark.parametrize("k", [2.5, 0, -1, True])
    def test_fold_count_must_be_a_positive_integer(self, tmp_path, k):
        M = build_complex([{1, 2}])
        p = write(tmp_path, "psi.json", {"k": k, "edges": []})
        with pytest.raises(MalformedInputError, match="psi.json: malformed fold count"):
            llio.load_edge_voltages(p, M)

    def test_roundtrip(self, tmp_path):
        M = build_complex([{1, 2}, {2, 3}, {1, 3}])
        p = write(tmp_path, "psi.json", {"k": 2, "edges": [{"edge": [1, 2], "perm": [2, 1]}]})
        psi = llio.load_edge_voltages(p, M)
        records = [
            {"edge": list(e), "perm": perms.to_one_based(q)}
            for e, q in sorted(psi.perms.items())
            if q != perms.identity(psi.k)
        ]
        assert {"k": psi.k, "edges": records} == {"k": 2, "edges": [{"edge": [1, 2], "perm": [2, 1]}]}


class TestSigningAndWeightingFiles:
    def test_signing_example(self, tmp_path):
        p = write(
            tmp_path,
            "s.json",
            {"flips": [{"face": [1, 2], "cofacet": [1, 2, 6]}]},
        )
        signing = llio.load_signing(p)
        assert signing.value((1, 2), (1, 2, 6)) == -1
        assert signing.value((1, 6), (1, 2, 6)) == 1

    def test_weighting_example(self, tmp_path):
        p = write(
            tmp_path,
            "w.json",
            {
                "entries": [
                    {"face": [1, 2], "cofacet": [1, 2, 6], "value": {"re": -0.5, "im": 0.8}}
                ],
            },
        )
        w = llio.load_weighting(p)
        assert w.value((1, 2), (1, 2, 6)) == complex(-0.5, 0.8)
        assert w.value((9,), (9, 10)) == 1.0

    def test_signing_roundtrip(self, tmp_path):
        flips = [{"face": [1, 2], "cofacet": [1, 2, 6]}]
        signing = llio.load_signing(write(tmp_path, "s.json", {"flips": flips}))
        assert [{"face": list(f), "cofacet": list(c)} for (f, c), v in signing.items() if v == -1] == flips


class TestVertexMapFiles:
    def test_roundtrip(self, tmp_path):
        vmap = {0: 0, 1: 1, 2: 2, 3: 0, 4: 1, 5: 2}
        p = write(tmp_path, "phi.json", {"vertex_map": [[a, b] for a, b in vmap.items()]})
        assert llio.load_vertex_map(p) == vmap


def _twice(face, cofacet, **extra):
    return [
        {"face": face, "cofacet": cofacet, **extra},
        {"face": face[::-1], "cofacet": cofacet, **extra},
    ]


class TestRepeatedRecords:
    """A key listed twice is ambiguous: the file is refused, naming the file
    and the record."""

    M = build_complex([{1, 2, 6}])

    @pytest.mark.parametrize(
        "doc, load, record",
        [
            (
                {"k": 2, "edges": [{"edge": [1, 2], "perm": [2, 1]}, {"edge": [2, 1], "perm": [1, 2]}]},
                lambda p: llio.load_edge_voltages(p, TestRepeatedRecords.M),
                "'edge': [2, 1]",
            ),
            ({"flips": _twice([1, 2], [1, 2, 6])}, llio.load_signing, "'face': [2, 1]"),
            (
                {"entries": _twice([1, 2], [1, 2, 6], value={"re": 2.0})},
                llio.load_weighting,
                "'face': [2, 1]",
            ),
            ({"vertex_map": [[0, 0], [1, 1], [0, 2]]}, llio.load_vertex_map, "0 is listed twice, the second time as 2"),
            (
                {
                    "facets": [[0, 1]],
                    "weights": {
                        "scheme": "explicit",
                        "values": [{"face": [0, 1], "w": 2.0}, {"face": [1, 0], "w": 3.0}],
                    },
                },
                lambda p: llio.load_complex(p),
                "(0, 1) is listed twice, the second time as 3.0",
            ),
        ],
        ids=["edge-voltages", "signing", "weighting", "vertex-map", "face-weights"],
    )
    def test_repeated_key_is_malformed(self, tmp_path, doc, load, record):
        p = write(tmp_path, "in.json", doc)
        with pytest.raises(MalformedInputError, match="listed twice") as err:
            load(p)
        assert str(p) in str(err.value) and record in str(err.value)
