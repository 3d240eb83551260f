import json

import pytest

from liftlap.cli import main

from conftest import REFERENCE_FACETS


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture()
def triangle_file(tmp_path):
    return write(tmp_path, "triangle.json", {"facets": [[0, 1, 2]]})


@pytest.fixture()
def c3_file(tmp_path):
    return write(tmp_path, "c3.json", {"facets": [[0, 1], [1, 2], [0, 2]]})


@pytest.fixture()
def c3_voltage_file(tmp_path):
    return write(tmp_path, "psi.json", {"k": 2, "edges": [{"edge": [0, 1], "perm": [2, 1]}]})


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


class TestSpectrum:
    def test_triangle_up(self, capsys, triangle_file):
        code, report, _ = run(
            capsys, ["spectrum", "--complex", triangle_file, "--dim", "1", "--kind", "up"]
        )
        assert code == 0
        assert report["results"]["values"] == [0.0, 0.0, pytest.approx(3.0)]

    def test_signed_spectrum(self, capsys, tmp_path, triangle_file):
        signing = write(
            tmp_path, "s.json", {"flips": [{"face": [0, 1], "cofacet": [0, 1, 2]}]}
        )
        code, report, _ = run(
            capsys,
            ["spectrum", "--complex", triangle_file, "--dim", "1", "--signing", signing],
        )
        assert code == 0
        assert len(report["results"]["values"]) == 3

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, report, err = run(capsys, ["spectrum", "--complex", str(bad), "--dim", "0"])
        assert code == 2 and report is None

    def test_signing_and_weighting_are_exclusive(self, capsys, tmp_path, triangle_file):
        signing = write(tmp_path, "s.json", {"flips": [{"face": [0, 1], "cofacet": [0, 1, 2]}]})
        weighting = write(tmp_path, "w.json", {"entries": []})
        argv = ["spectrum", "--complex", triangle_file, "--dim", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--signing", signing, "--weighting", weighting])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_precondition_error_exits_3(self, capsys, triangle_file):
        code, report, err = run(
            capsys, ["spectrum", "--complex", triangle_file, "--dim", "0", "--kind", "down"]
        )
        # down at the vertex level exists here (empty face present); use dim 3
        code, report, err = run(
            capsys, ["spectrum", "--complex", triangle_file, "--dim", "3", "--kind", "up"]
        )
        assert code == 3


class TestCover:
    def test_build_and_verify(self, capsys, tmp_path, c3_file, c3_voltage_file):
        out = str(tmp_path / "k.json")
        code, report, _ = run(
            capsys,
            ["cover", "build", "--base", c3_file, "--voltage", c3_voltage_file, "--out", out],
        )
        assert code == 0
        assert report["results"]["connected"] is True
        assert report["results"]["face_counts"]["0"] == 6

        phi = write(
            tmp_path,
            "phi.json",
            {"vertex_map": [[v, report["results"]["vertex_map"][i][1]] for i, (v, _) in enumerate(report["results"]["vertex_map"])]},
        )
        code, report, _ = run(
            capsys, ["cover", "verify", "--cover", out, "--base", c3_file, "--map", phi]
        )
        assert code == 0
        assert report["verdicts"][0]["holds"]

    def test_disconnected_build_fails_verdict(self, capsys, tmp_path, triangle_file):
        psi = write(tmp_path, "trivial.json", {"k": 2, "edges": []})
        code, report, _ = run(
            capsys, ["cover", "build", "--base", triangle_file, "--voltage", psi]
        )
        assert code == 1
        assert report["results"]["connected"] is False
        assert len(report["results"]["components"]) == 2

    def test_bad_map_fails_verdict(self, capsys, tmp_path, c3_file):
        path = write(tmp_path, "path.json", {"facets": [[0, 1], [1, 2]]})
        phi = write(tmp_path, "phi.json", {"vertex_map": [[0, 0], [1, 1], [2, 2]]})
        code, report, _ = run(
            capsys, ["cover", "verify", "--cover", path, "--base", c3_file, "--map", phi]
        )
        assert code == 1
        assert not report["verdicts"][0]["holds"]
        assert "strong-violation" in report["verdicts"][0]["claim"]


class TestVerify:
    def test_union_on_hexagon(self, capsys, c3_file, c3_voltage_file):
        code, report, err = run(
            capsys,
            ["verify", "union", "--base", c3_file, "--voltage", c3_voltage_file],
        )
        assert code == 0
        assert all(v["holds"] for v in report["verdicts"])
        assert any("two-fold spectral union" in v["claim"] for v in report["verdicts"])

    def test_union_dim_filter(self, capsys, c3_file, c3_voltage_file):
        code, report, _ = run(
            capsys,
            ["verify", "union", "--base", c3_file, "--voltage", c3_voltage_file, "--dim", "0", "--scheme", "combinatorial"],
        )
        assert code == 0
        assert len(report["verdicts"]) == 1

    def test_union_needs_two_fold(self, capsys, tmp_path, c3_file):
        psi3 = write(tmp_path, "k3.json", {"k": 3, "edges": [{"edge": [0, 1], "perm": [2, 3, 1]}]})
        code, report, _ = run(
            capsys, ["verify", "union", "--base", c3_file, "--voltage", psi3]
        )
        assert code == 3

    def test_inclusion(self, capsys, c3_file, c3_voltage_file):
        code, report, _ = run(
            capsys, ["verify", "inclusion", "--base", c3_file, "--voltage", c3_voltage_file]
        )
        assert code == 0
        assert all(v["holds"] for v in report["verdicts"])

    def test_abelian_cyclic_three(self, capsys, tmp_path, c3_file):
        psi3 = write(tmp_path, "k3.json", {"k": 3, "edges": [{"edge": [0, 1], "perm": [2, 3, 1]}]})
        code, report, _ = run(
            capsys, ["verify", "abelian", "--base", c3_file, "--voltage", psi3]
        )
        assert code == 0
        assert all(v["holds"] for v in report["verdicts"])

    def test_abelian_explicit_degenerate_dim_errors(self, capsys, tmp_path, c3_file):
        psi3 = write(tmp_path, "k3.json", {"k": 3, "edges": [{"edge": [0, 1], "perm": [2, 3, 1]}]})
        # the edge/triangle layer of a graph is edgeless: the transitivity
        # hypothesis fails, and asking for that dim explicitly is an error
        code, report, _ = run(
            capsys,
            ["verify", "abelian", "--base", c3_file, "--voltage", psi3, "--dim", "1"],
        )
        assert code == 3

    def test_betti(self, capsys, c3_file, c3_voltage_file):
        code, report, _ = run(
            capsys, ["verify", "betti", "--base", c3_file, "--voltage", c3_voltage_file]
        )
        assert code == 0
        assert report["results"]["combinatorial"]["1"] == [1, 1]

    def test_betti_ranks_each_complex_once_for_both_schemes(
        self, capsys, monkeypatch, c3_file, c3_voltage_file
    ):
        from liftlap.homology import integer_rank

        ranked = []

        def counting_rank(matrix):
            ranked.append(matrix.shape)
            return integer_rank(matrix)

        monkeypatch.setattr("liftlap.homology.integer_rank", counting_rank)
        code, report, _ = run(
            capsys, ["verify", "betti", "--base", c3_file, "--voltage", c3_voltage_file]
        )
        assert code == 0 and sorted(report["results"]) == ["combinatorial", "normalized"]
        # d_-1 and d_0 of the triangle, then of the hexagon
        assert ranked == [(3, 1), (3, 3), (6, 1), (6, 6)]

    @pytest.mark.parametrize("claim, lowest", [("union", 0), ("inclusion", 0), ("abelian", 0), ("betti", -1)])
    def test_dim_outside_the_base_exits_3(self, capsys, c3_file, c3_voltage_file, claim, lowest):
        code, report, err = run(
            capsys,
            ["verify", claim, "--base", c3_file, "--voltage", c3_voltage_file, "--dim", "7"],
        )
        assert code == 3 and report is None
        assert f"--dim 7 is outside {lowest}..1" in err

    def test_union_solves_each_incidence_layer_once(self, capsys, monkeypatch, tmp_path):
        import numpy as np

        from liftlap.covering import induced_incidence_voltage

        # the 4 x 4 torus; flipping every edge across the row seam gives a
        # connected 2-fold cover (each triangle crosses the seam twice or not at all)
        n = 4
        facets = []
        for i in range(n):
            for j in range(n):
                a, b = i * n + j, ((i + 1) % n) * n + j
                c, d = i * n + (j + 1) % n, ((i + 1) % n) * n + (j + 1) % n
                facets += [sorted((a, b, d)), sorted((a, c, d))]
        seam = {tuple(sorted((u, v))) for f in facets for u in f for v in f if u // n == n - 1 and v // n == 0}
        torus = write(tmp_path, "torus.json", {"facets": facets})
        psi = write(tmp_path, "psi.json", {"k": 2, "edges": [{"edge": list(e), "perm": [2, 1]} for e in sorted(seam)]})
        calls = {"eigvalsh": 0, "induced_incidence_voltage": 0}
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(*args, **kwargs):
            calls["eigvalsh"] += 1
            return eigvalsh(*args, **kwargs)

        def counting_voltage(*args, **kwargs):
            calls["induced_incidence_voltage"] += 1
            return induced_incidence_voltage(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr("liftlap.cli.induced_incidence_voltage", counting_voltage)
        code, report, _ = run(capsys, ["verify", "union", "--base", torus, "--voltage", psi])
        assert code == 0 and len(report["verdicts"]) == 10
        # layers 0 and 1 are each solved once per scheme for the cover, the
        # base and the signed base; the top layer needs no eigensolve
        assert calls == {"eigvalsh": 12, "induced_incidence_voltage": 3}

    def test_decompose(self, capsys, c3_file, c3_voltage_file):
        code, report, _ = run(
            capsys,
            ["decompose", "--base", c3_file, "--voltage", c3_voltage_file, "--dim", "0"],
        )
        assert code == 0
        assert report["results"]["block_sizes"] == [1, 1]
        assert all(v["holds"] for v in report["verdicts"])

    @pytest.mark.parametrize("direction, dim, lowest", [("down", 0, 1), ("down", 7, 1), ("up", 7, 0)])
    def test_decompose_dim_outside_the_base_exits_3(self, capsys, c3_file, c3_voltage_file, direction, dim, lowest):
        argv = ["decompose", "--base", c3_file, "--voltage", c3_voltage_file, "--dim", str(dim)]
        code, report, err = run(capsys, argv + ["--direction", direction])
        assert code == 3 and report is None
        assert f"--dim {dim} is outside {lowest}..1" in err

    def test_decompose_checks_that_the_first_block_is_trivial(
        self, capsys, monkeypatch, c3_file, c3_voltage_file
    ):
        from liftlap.representation import BlockDecomposition, decompose_representation

        def sign_block_first(group, seed=0):
            dec = decompose_representation(group, seed=seed)
            blocks = {g: bs[::-1] for g, bs in dec.blocks_of.items()}
            return BlockDecomposition(
                dec.group, dec.transform[:, ::-1], dec.block_sizes[::-1], blocks, dec.residual
            )

        monkeypatch.setattr("liftlap.cli.decompose_representation", sign_block_first)
        code, report, _ = run(
            capsys,
            ["decompose", "--base", c3_file, "--voltage", c3_voltage_file, "--dim", "0"],
        )
        assert code == 1
        (first,) = [v for v in report["verdicts"] if "first block" in v["claim"]]
        assert not first["holds"]
        assert first["max_error"] == pytest.approx(2.0)


class TestCoverMapInputs:
    def test_union_via_explicit_cover_files(self, capsys, tmp_path, c3_file):
        hexagon = write(
            tmp_path, "c6.json", {"facets": [[i, (i + 1) % 6] for i in range(6)]}
        )
        phi = write(
            tmp_path, "phi.json", {"vertex_map": [[v, v % 3] for v in range(6)]}
        )
        code, report, _ = run(
            capsys,
            ["verify", "union", "--cover", hexagon, "--base", c3_file, "--map", phi],
        )
        assert code == 0
        assert all(v["holds"] for v in report["verdicts"])

    @pytest.mark.parametrize("routes", [["--map"], ["--cover", "--map", "--voltage"]], ids=["map-alone", "both-routes"])
    def test_cover_given_by_exactly_one_route(self, capsys, tmp_path, c3_file, c3_voltage_file, routes):
        files = {
            "--cover": write(tmp_path, "c6.json", {"facets": [[i, (i + 1) % 6] for i in range(6)]}),
            "--map": write(tmp_path, "phi.json", {"vertex_map": [[v, v % 3] for v in range(6)]}),
            "--voltage": c3_voltage_file,
        }
        argv = ["verify", "union", "--base", c3_file]
        for flag in routes:
            argv += [flag, files[flag]]
        code, report, err = run(capsys, argv)
        assert code == 2 and report is None
        assert "provide either --cover/--base/--map or --base/--voltage" in err

    def test_decompose_down_direction(self, capsys, c3_file, c3_voltage_file):
        code, report, _ = run(
            capsys,
            [
                "decompose", "--base", c3_file, "--voltage", c3_voltage_file,
                "--dim", "1", "--direction", "down", "--scheme", "normalized",
            ],
        )
        assert code == 0
        assert all(v["holds"] for v in report["verdicts"])

    def test_betti_on_reference_pair(self, capsys, tmp_path, reference):
        import numpy as np

        from liftlap import io as llio
        from randgen import random_connected_cover

        M = reference.complex
        base = tmp_path / "ref.json"
        llio.save_complex(M, base)
        out = random_connected_cover(M, 2, np.random.default_rng(9))
        assert out is not None
        _, result = out
        cover = tmp_path / "ref_cover.json"
        llio.save_complex(result.complex, cover)
        phi = write(tmp_path, "ref_phi.json", {"vertex_map": sorted(result.vertex_map.items())})
        code, report, _ = run(
            capsys,
            ["verify", "betti", "--cover", str(cover), "--base", str(base), "--map", phi],
        )
        assert code == 0
        for scheme in ("combinatorial", "normalized"):
            for pair in report["results"][scheme].values():
                assert pair[0] == pair[1]  # equality at every dimension


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, c3_file, c3_voltage_file):
        argv = ["--seed", "3", "decompose", "--base", c3_file, "--voltage", c3_voltage_file, "--dim", "0"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_seed_recorded(self, capsys, c3_file, c3_voltage_file):
        code, report, _ = run(
            capsys,
            ["--seed", "11", "decompose", "--base", c3_file, "--voltage", c3_voltage_file, "--dim", "0"],
        )
        assert report["seed"] == 11


class TestFixtureSearch:
    def test_search_recovers_reference(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, report, _ = run(capsys, ["fixture", "search-fig1"])
        assert code == 0
        assert report["results"]["found"] is True
        assert [tuple(f) for f in report["results"]["facets"]] == list(REFERENCE_FACETS)
        cached = json.loads((tmp_path / "fig1_fixture.json").read_text())
        assert cached["found"] is True


class TestTolerance:
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tol_must_be_finite_and_non_negative(self, capsys, c3_file, c3_voltage_file, tol):
        with pytest.raises(SystemExit) as exc:
            main(["--tol", tol, "verify", "union", "--base", c3_file, "--voltage", c3_voltage_file])
        assert exc.value.code == 2
        assert "argument --tol: expected a finite number of at least 0" in capsys.readouterr().err

    def test_zero_tol_is_exact_comparison(self, capsys, c3_file, c3_voltage_file):
        code, report, _ = run(capsys, ["--tol", "0", "verify", "union", "--base", c3_file, "--voltage", c3_voltage_file])
        assert code in (0, 1)
        assert {v["tolerance"] for v in report["verdicts"]} == {0.0}


class TestMalformedInput:
    """Bad files exit 2 with an error naming the file and the record."""

    @pytest.mark.parametrize(
        "edge_records, message",
        [
            ([{"face": [0, 1], "w": 0}], "weight of (0, 1) must be finite and positive"),
            ([], "does not weight face (0, 1)"),
            ([{"face": [0, 1], "w": 1.0}, {"face": [7, 8], "w": 1.0}], "weights (7, 8), which is not a face"),
        ],
        ids=["zero-weight", "unweighted-face", "non-face"],
    )
    def test_explicit_weights_are_checked_on_load(self, capsys, tmp_path, edge_records, message):
        records = [{"face": f, "w": 1.0} for f in ([], [0], [1])] + edge_records
        edge = write(tmp_path, "edge.json", {"facets": [[0, 1]], "weights": {"scheme": "explicit", "values": records}})
        code, report, err = run(capsys, ["spectrum", "--complex", edge, "--dim", "0"])
        assert code == 2 and report is None
        assert "edge.json: malformed weights" in err and message in err

    def test_signing_record_without_cofacet(self, capsys, tmp_path, triangle_file):
        signing = write(tmp_path, "s.json", {"flips": [{"face": [0, 1]}]})
        code, report, err = run(
            capsys, ["spectrum", "--complex", triangle_file, "--dim", "1", "--signing", signing]
        )
        assert code == 2 and report is None
        assert "s.json" in err and "'cofacet'" in err

    def test_weighting_value_not_an_object(self, capsys, tmp_path, triangle_file):
        weighting = write(
            tmp_path, "w.json", {"entries": [{"face": [0, 1], "cofacet": [0, 1, 2], "value": 2.0}]}
        )
        code, report, err = run(
            capsys, ["spectrum", "--complex", triangle_file, "--dim", "1", "--weighting", weighting]
        )
        assert code == 2 and report is None
        assert "w.json" in err and "'value': 2.0" in err

    def test_voltage_permutation_of_the_wrong_length(self, capsys, tmp_path, c3_file):
        psi = write(tmp_path, "psi.json", {"k": 2, "edges": [{"edge": [0, 1], "perm": [2, 3, 1]}]})
        code, report, err = run(capsys, ["cover", "build", "--base", c3_file, "--voltage", psi])
        assert code == 2 and report is None
        assert "psi.json" in err and "'perm': [2, 3, 1]" in err

    def test_facet_not_a_list(self, capsys, tmp_path):
        bad = write(tmp_path, "flat.json", {"facets": [0, 1, 2]})
        code, report, err = run(capsys, ["spectrum", "--complex", bad, "--dim", "0"])
        assert code == 2 and report is None
        assert "flat.json" in err and "face 0" in err

    def test_signing_flip_off_the_complex(self, capsys, tmp_path, triangle_file):
        signing = write(tmp_path, "s.json", {"flips": [{"face": [0, 7], "cofacet": [0, 1, 7]}]})
        code, report, err = run(
            capsys, ["spectrum", "--complex", triangle_file, "--dim", "1", "--signing", signing]
        )
        assert code == 2 and report is None
        assert "s.json" in err and "[0, 7], [0, 1, 7]" in err

    def test_signing_flip_the_operator_does_not_read(self, capsys, tmp_path, triangle_file):
        # the 0-up operator reads only the (0, 1) layer, so this flip would change nothing
        signing = write(tmp_path, "s.json", {"flips": [{"face": [0, 1], "cofacet": [0, 1, 2]}]})
        code, report, err = run(
            capsys, ["spectrum", "--complex", triangle_file, "--dim", "0", "--kind", "up", "--signing", signing]
        )
        assert code == 2 and report is None
        assert "s.json" in err and "[0, 1], [0, 1, 2]" in err

    # the same flip at dim 1 up is test_signed_spectrum
    @pytest.mark.parametrize("dim, kind", [("1", "full"), ("2", "down")])
    def test_signing_flip_the_operator_reads(self, capsys, tmp_path, triangle_file, dim, kind):
        signing = write(tmp_path, "s.json", {"flips": [{"face": [0, 1], "cofacet": [0, 1, 2]}]})
        code, report, _ = run(
            capsys, ["spectrum", "--complex", triangle_file, "--dim", dim, "--kind", kind, "--signing", signing]
        )
        assert code == 0 and report["inputs"]["signing"]

    def test_zero_weighting_value(self, capsys, tmp_path, triangle_file):
        weighting = write(
            tmp_path, "w.json", {"entries": [{"face": [0, 1], "cofacet": [0, 1, 2], "value": {"re": 0, "im": 0}}]}
        )
        code, report, err = run(
            capsys, ["spectrum", "--complex", triangle_file, "--dim", "1", "--weighting", weighting]
        )
        assert code == 2 and report is None
        assert "w.json" in err and "must be nonzero" in err

    @pytest.mark.parametrize(
        "name, doc, flag",
        [
            ("psi.json", {"k": 2, "edges": 5}, "--voltage"),
            ("s.json", {"flips": 5}, "--signing"),
            ("w.json", {"entries": 5}, "--weighting"),
        ],
    )
    def test_record_list_not_a_list(self, capsys, tmp_path, c3_file, name, doc, flag):
        path = write(tmp_path, name, doc)
        if flag == "--voltage":
            argv = ["cover", "build", "--base", c3_file, "--voltage", path]
        else:
            argv = ["spectrum", "--complex", c3_file, "--dim", "0", flag, path]
        code, report, err = run(capsys, argv)
        assert code == 2 and report is None
        key = next(k for k in doc if k != "k")
        assert name in err and f"malformed '{key}' list" in err
