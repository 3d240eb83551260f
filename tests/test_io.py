import json
import re

import numpy as np
import pytest

from oracles import edge_table, identity, pair_table, to_one_based

from liftlap import MalformedInputError, build_complex, edge_voltages
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
        cases = [
            ([{2, 0, 1}], True, [[0, 1, 2]]),
            # facets by dimension, each dimension in canonical order
            ([{4, 3, 2}, {7}, {5, 4}, {1, 0}, {0, 3}, {3, 4}], False, [[7], [0, 1], [0, 3], [4, 5], [2, 3, 4]]),
            ([(2**63 - 1, 0), (2**63 - 2, 2**63 - 1, 5)], True, [[0, 2**63 - 1], [5, 2**63 - 2, 2**63 - 1]]),
        ]
        for facets, include_empty, written in cases:
            K = build_complex(facets, include_empty=include_empty)
            p = tmp_path / "k.json"
            llio.save_complex(K, p)
            doc = {"facets": written, "include_empty": include_empty, "weights": {"scheme": "combinatorial"}}
            assert p.read_text() == json.dumps(doc, sort_keys=True, indent=1)
            assert llio.load_complex(p)[0] == K

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
        assert psi.perms.dtype == np.int64
        # absent edges default to identity
        assert edge_table(M, psi) == {(1, 2): (1, 0), (1, 3): (0, 1), (2, 3): (0, 1)}

    def test_a_passing_load_reads_no_record_alone(self, tmp_path, monkeypatch):
        # the edges and perms of all records are converted and checked together
        M = build_complex([{1, 2, 6}, {2, 6, 9}])
        edges = [{"edge": [2, 1], "perm": [2, 3, 1]}, {"edge": [6, 9.0], "perm": [3, 1, 2]}, {"edge": [1, 6], "perm": [1, 2, 3]}]
        p = write(tmp_path, "psi.json", {"k": 3, "edges": edges})

        def per_record(*args):
            raise AssertionError("a record was read alone")

        monkeypatch.setattr(llio, "as_face", per_record)
        psi = llio.load_edge_voltages(p, M)
        # an edge is listed by its vertices, in either order, with no inverse taken
        expected = edge_voltages(M, 3, {(1, 2): (1, 2, 0), (6, 9): (2, 0, 1), (1, 6): (0, 1, 2)})
        assert psi.perms.dtype == np.int64 and psi.perms.tolist() == expected.perms.tolist()

    def test_the_first_bad_permutation_is_named_by_its_record(self, tmp_path):
        M = build_complex([{1, 2}, {2, 3}, {1, 3}])
        edges = [{"edge": [1, 2], "perm": [2, 1]}, {"edge": [1, 3], "perm": [1, 1]}, {"edge": [2, 3], "perm": [2]}]
        p = write(tmp_path, "psi.json", {"k": 2, "edges": edges})
        message = f"malformed record {edges[1]!r} (VoltageError: [1, 1] is not a permutation of 1..2)"
        with pytest.raises(MalformedInputError, match=re.escape(message)):
            llio.load_edge_voltages(p, M)

    @pytest.mark.parametrize("perm, image", [([0, 1], 0), ([1, 3], 3)])
    def test_an_image_outside_the_sheets_is_named_in_file_terms(self, tmp_path, perm, image):
        # sheets are 1..k in the file, 0..k-1 in memory
        M = build_complex([{1, 2}, {2, 3}, {1, 3}])
        record = {"edge": [1, 2], "perm": perm}
        p = write(tmp_path, "psi.json", {"k": 2, "edges": [record]})
        message = f"malformed record {record!r} (VoltageError: perm image {image} is outside 1..2)"
        with pytest.raises(MalformedInputError, match=re.escape(message)):
            llio.load_edge_voltages(p, M)

    @pytest.mark.parametrize(
        "edges, fault",
        [
            (
                [{"edge": [1, 2], "perm": [1, 1]}, {"edge": [2, 3], "perm": [2, 1]}, {"edge": [1, 3], "perm": ["x", 1]}],
                "[1, 1] is not a permutation of 1..2",
            ),
            ([{"edge": [1, 4], "perm": [2, 1]}, {"edge": [1, -2], "perm": [2, 1]}], "non-edges: [(1, 4)]"),
            (
                [{"edge": [1, 4], "perm": [2, 1]}, {"edge": [1, 2], "perm": [2, 1]}, {"edge": [2, 1], "perm": [1, 2]}],
                "non-edges: [(1, 4)]",
            ),
        ],
        ids=["not-a-permutation-then-bad-image", "non-edge-then-bad-vertex", "non-edge-then-repeated-edge"],
    )
    def test_of_two_faults_the_first_record_is_named(self, tmp_path, edges, fault):
        # a fault of a later record that every record's parse would meet first is not the one named
        M = build_complex([{1, 2}, {2, 3}, {1, 3}])
        p = write(tmp_path, "psi.json", {"k": 2, "edges": edges})
        with pytest.raises(MalformedInputError, match=re.escape(f"malformed record {edges[0]!r}")) as err:
            llio.load_edge_voltages(p, M)
        assert fault in str(err.value)

    def test_voltage_on_non_edge_rejected(self, tmp_path):
        M = build_complex([{1, 2}])
        edges = [{"edge": [2, 1], "perm": [2, 1]}, {"edge": [1, 3], "perm": [2, 1]}]
        p = write(tmp_path, "psi.json", {"k": 2, "edges": edges})
        message = f"psi.json: malformed record {edges[1]!r} (VoltageError: voltages given for non-edges: [(1, 3)])"
        with pytest.raises(MalformedInputError, match=re.escape(message)):
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
            {"edge": list(e), "perm": to_one_based(q)}
            for e, q in sorted(edge_table(M, psi).items())
            if q != identity(psi.k)
        ]
        assert {"k": psi.k, "edges": records} == {"k": 2, "edges": [{"edge": [1, 2], "perm": [2, 1]}]}


class TestSigningAndWeightingFiles:
    K = build_complex([{1, 2, 6}, {6, 9}])

    def test_signing_example(self, tmp_path):
        p = write(
            tmp_path,
            "s.json",
            {"flips": [{"face": [1, 2], "cofacet": [1, 2, 6]}]},
        )
        signing = llio.load_signing(p, self.K)
        assert pair_table(self.K, 1, signing.layers[1]) == {
            ((1, 2), (1, 2, 6)): -1,
            ((1, 6), (1, 2, 6)): 1,
            ((2, 6), (1, 2, 6)): 1,
        }

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
        w = llio.load_weighting(p, self.K)
        assert w.layers[1].tolist() == [complex(-0.5, 0.8), 1, 1]
        assert list(w.layers) == [1]  # the other layers carry 1
        assert w.dtype == np.complex128

    def test_weighting_with_real_parts_only_is_real(self, tmp_path):
        entries = [
            {"face": [1, 2], "cofacet": [1, 2, 6], "value": {"re": -0.5}},
            {"face": [1, 6], "cofacet": [1, 2, 6], "value": {"re": 2.0, "im": 0.0}},
        ]
        w = llio.load_weighting(write(tmp_path, "w.json", {"entries": entries}), self.K)
        assert w.dtype == np.float64 and w.layers[1].dtype == np.float64
        assert w.layers[1].tolist() == [-0.5, 2.0, 1.0]

    def test_signing_roundtrip(self, tmp_path):
        flips = [{"face": [1, 2], "cofacet": [1, 2, 6]}]
        signing = llio.load_signing(write(tmp_path, "s.json", {"flips": flips}), self.K)
        table = pair_table(self.K, 1, signing.layers[1])
        assert [{"face": list(f), "cofacet": list(c)} for (f, c), v in table.items() if v == -1] == flips

    @pytest.mark.parametrize("load", [llio.load_signing, llio.load_weighting])
    def test_pair_off_the_complex_is_named(self, tmp_path, load):
        recs = [{"face": [1, 2], "cofacet": [1, 2, 6]}, {"face": [6, 9], "cofacet": [6, 9, 10]}]
        p = write(tmp_path, "in.json", {"flips": recs, "entries": [{**r, "value": {"re": 2.0}} for r in recs]})
        with pytest.raises(MalformedInputError, match=r"in.json: .*\(\[6, 9\], \[6, 9, 10\]\) is not a"):
            load(p, self.K)


_OFF = {"face": [1, 4], "cofacet": [1, 2, 4]}


@pytest.mark.parametrize(
    "load, doc, named",
    [
        (
            llio.load_signing,
            {"flips": [_OFF, {"face": ["x"], "cofacet": [1, 2, 3]}]},
            r"\(\[1, 4\], \[1, 2, 4\]\) is not a",
        ),
        (
            llio.load_weighting,
            {"entries": [{**_OFF, "value": {"re": 2.0}}, {"face": [1, 2], "cofacet": [1, 2, 3], "value": {"re": "y"}}]},
            r"\(\[1, 4\], \[1, 2, 4\]\) is not a",
        ),
        (
            llio.load_weighting,
            {"entries": [{"face": [1, 2], "cofacet": [1, 2, 3], "value": {"re": 0}}, {"face": [1, 3]}]},
            r"\(\[1, 2\], \[1, 2, 3\]\) must be nonzero",
        ),
    ],
    ids=["signing-non-incidence", "weighting-non-incidence", "weighting-zero"],
)
def test_the_first_bad_record_is_named(tmp_path, load, doc, named):
    # record 1 is bad for the complex and record 2 malformed: record 1 is named
    with pytest.raises(MalformedInputError, match=named):
        load(write(tmp_path, "in.json", doc), build_complex([[1, 2, 3]]))


class TestVertexMapFiles:
    def test_roundtrip(self, tmp_path):
        rows = [[3, 0], [0, 0], [1, 1], [2, 2], [4, 1], [5, 2]]
        pairs = llio.load_vertex_map(write(tmp_path, "phi.json", {"vertex_map": rows}))
        assert pairs.dtype == np.int64 and pairs.tolist() == rows


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
            (
                {"flips": _twice([1, 2], [1, 2, 6])},
                lambda p: llio.load_signing(p, TestRepeatedRecords.M),
                "'face': [2, 1]",
            ),
            (
                {"entries": _twice([1, 2], [1, 2, 6], value={"re": 2.0})},
                lambda p: llio.load_weighting(p, TestRepeatedRecords.M),
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
