import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liftlap
from liftlap import cli
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


# the hexagon's covering map of the 3-cycle without vertex 3, whose image 0
# a map may not give as 0.9 or false
_HEXAGON_MAP = [[v, v % 3] for v in (0, 1, 2, 4, 5)]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_verdicts_import_numpy_only(c3_file, c3_voltage_file):
    # numpy is the one declared dependency, so a verdict run in a fresh
    # interpreter must not pull in scipy even where it is installed
    argv = ["verify", "union", "--base", c3_file, "--voltage", c3_voltage_file]
    script = (
        "import sys\n"
        "from liftlap.cli import main\n"
        f"code = main({argv!r})\n"
        "sys.exit('scipy was imported' if 'scipy' in sys.modules else code)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(liftlap.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert all(v["holds"] for v in json.loads(done.stdout)["verdicts"])


class TestParser:
    def test_the_parser_built_once_reports_what_a_fresh_one_does(
        self, capsys, monkeypatch, triangle_file, c3_file, c3_voltage_file
    ):
        calls = [
            ["spectrum", "--complex", triangle_file, "--dim", "1", "--kind", "sideways"],
            ["--seed", "5", "spectrum", "--complex", triangle_file, "--dim", "1", "--kind", "down"],
            ["verify", "betti", "--base", c3_file, "--voltage", c3_voltage_file],
        ]

        def outcomes():
            out = []
            for argv in calls:
                try:
                    out.append(run(capsys, argv))
                except SystemExit as exc:
                    out.append((exc.code, None, capsys.readouterr().err))
            return out

        once = outcomes()
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert once == outcomes()
        assert [code for code, _, _ in once] == [2, 0, 0]
        assert "invalid choice: 'sideways'" in once[0][2]
        assert [report["seed"] for _, report, _ in once[1:]] == [5, 0]

    def test_a_handler_replaced_after_the_build_is_called(self, capsys, monkeypatch, triangle_file):
        argv = ["spectrum", "--complex", triangle_file, "--dim", "1"]
        assert run(capsys, argv)[0] == 0
        monkeypatch.setattr(cli, "cmd_spectrum", lambda args, report: [])
        code, report, err = run(capsys, argv)
        assert code == 0 and report["results"] == {} and "no verdicts" in err


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

    def test_real_weighting_matches_the_signing(self, capsys, tmp_path, triangle_file):
        flips = [{"face": [0, 1], "cofacet": [0, 1, 2]}, {"face": [1, 2], "cofacet": [0, 1, 2]}]
        signing = write(tmp_path, "s.json", {"flips": flips})
        weighting = write(tmp_path, "w.json", {"entries": [{**f, "value": {"re": -1}} for f in flips]})
        argv = ["spectrum", "--complex", triangle_file, "--dim", "1", "--kind", "full"]
        code, signed, _ = run(capsys, argv + ["--signing", signing])
        assert code == 0
        code, weighted, _ = run(capsys, argv + ["--weighting", weighting])
        assert code == 0
        a, b = signed["results"]["values"], weighted["results"]["values"]
        assert len(a) == len(b) == 3
        assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-12

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


    def test_an_operator_too_large_to_allocate_exits_3(self, capsys, monkeypatch, triangle_file):
        import numpy as np

        bincount = np.bincount

        def no_room(x, weights=None, minlength=0):
            # a count into a fixed length is the dense n x n array of a Gram product
            if minlength:
                raise MemoryError
            return bincount(x, weights)

        monkeypatch.setattr(np, "bincount", no_room)
        code, report, err = run(capsys, ["spectrum", "--complex", triangle_file, "--dim", "1", "--kind", "down"])
        assert code == 3 and report is None
        assert "error: the dense down operator of 3 x 3 entries does not fit in memory" in err

    def test_running_out_of_memory_names_the_command(self, capsys, monkeypatch, c3_file, c3_voltage_file):
        def no_room(generators):
            raise MemoryError

        monkeypatch.setattr("liftlap.cli.voltage_group", no_room)
        code, report, err = run(capsys, ["decompose", "--base", c3_file, "--voltage", c3_voltage_file, "--dim", "0"])
        assert code == 3 and report is None
        assert "error: 'decompose' ran out of memory" in err and "Traceback" not in err


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

    @pytest.mark.parametrize("target", ["missing/k.json", "."], ids=["missing-directory", "a-directory"])
    def test_unwritable_out_exits_2_naming_the_path(self, capsys, tmp_path, c3_file, c3_voltage_file, target):
        out = str(tmp_path / target)
        code, report, err = run(
            capsys, ["cover", "build", "--base", c3_file, "--voltage", c3_voltage_file, "--out", out]
        )
        assert code == 2 and report is None
        assert f"error: {out}: " in err

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


_C3 = [[0, 1], [1, 2], [0, 2]]
_C6 = [[i, (i + 1) % 6] for i in range(6)]


# one cover verify input per violation kind, with the report's witness
_VIOLATIONS = [
    (_C6, _C3, [[v, v % 3] for v in range(5)], "unmapped-vertex", "5"),
    ([[0, 1, 2], [3, 4, 5]], [[0, 1, 2]], [[v, v % 3] for v in range(6)], "not-connected", "([0, 1, 2], [3, 4, 5])"),
    (_C3, [[0, 1]], [[0, 0], [1, 1], [2, 0]], "degenerate-face", "(0, 2)"),
    (_C6, _C3, [[v, v % 3] for v in range(5)] + [[5, 7]], "not-simplicial", "(5,)"),
    ([[0, 1, 2], [0, 1, 3]], [[0, 1, 2]], [[0, 0], [1, 1], [2, 2], [3, 2]], "fiber-overlap", "((0, 2), (0, 3))"),
    ([[0, 1], [1, 2]], _C3, [[0, 0], [1, 1], [2, 2]], "strong-violation", "((0,), (0, 2))"),
    (_C6, _C3 + [[9]], [[v, v % 3] for v in range(6)], "fiber-size", "(9,)"),
]


class TestCoverViolations:
    @pytest.mark.parametrize("cover, base, vertex_map, kind, witness", _VIOLATIONS, ids=[c[3] for c in _VIOLATIONS])
    def test_report_names_the_kind_and_witness(self, capsys, tmp_path, cover, base, vertex_map, kind, witness):
        argv = ["cover", "verify"]
        for flag, doc in (("--cover", {"facets": cover}), ("--base", {"facets": base}), ("--map", {"vertex_map": vertex_map})):
            argv += [flag, write(tmp_path, flag[2:] + ".json", doc)]
        code, report, _ = run(capsys, argv)
        assert code == 1
        assert report["results"] == {"violation": kind, "witness": witness}
        assert report["verdicts"][0]["claim"] == f"covering axioms hold ({kind})"

    def test_an_id_past_int64_exits_2_naming_it(self, capsys, tmp_path, c3_file):
        cover = write(tmp_path, "big.json", {"facets": _C6[:5] + [[5, 2**63]]})
        phi = write(tmp_path, "phi.json", {"vertex_map": [[v, v % 3] for v in range(6)]})
        code, report, err = run(capsys, ["cover", "verify", "--cover", cover, "--base", c3_file, "--map", phi])
        assert code == 2 and report is None
        assert f"vertex {2**63} does not fit in a 64-bit integer" in err


class TestVerify:
    def test_union_on_hexagon(self, capsys, c3_file, c3_voltage_file):
        code, report, err = run(
            capsys,
            ["verify", "union", "--base", c3_file, "--voltage", c3_voltage_file],
        )
        assert code == 0
        assert all(v["holds"] for v in report["verdicts"])
        assert any("two-fold spectral union" in v["claim"] for v in report["verdicts"])

    def test_union_on_hexagon_prints_no_note(self, capsys, c3_file, c3_voltage_file):
        # the empty top layer (1, 2) of the graph has no swapped incidence, yet the lift is connected
        code, _, err = run(capsys, ["verify", "union", "--base", c3_file, "--voltage", c3_voltage_file])
        assert code == 0
        assert "note:" not in err

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
        # the edge/triangle layer of a graph is edgeless, so its group is trivial
        assert report["results"]["skipped_layers"] == ["up/1"]

    def test_abelian_skipping_every_layer_exits_3_with_the_reason(self, capsys, tmp_path):
        # a bouquet of two 3-cycles at vertex 0 with a transposition and a
        # 3-cycle as voltages: the vertex/edge layer's group is S_3
        bouquet = write(tmp_path, "bouquet.json", {"facets": [[0, 1], [1, 2], [0, 2], [0, 3], [3, 4], [0, 4]]})
        psi = write(
            tmp_path,
            "s3.json",
            {"k": 3, "edges": [{"edge": [0, 1], "perm": [2, 1, 3]}, {"edge": [0, 3], "perm": [2, 3, 1]}]},
        )
        code, report, err = run(capsys, ["verify", "abelian", "--base", bouquet, "--voltage", psi])
        assert code == 3 and report is None
        assert "error: character weightings require an abelian voltage group" in err

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

    def test_betti_ranks_the_base_then_the_twisted_base_never_the_cover(
        self, capsys, monkeypatch, c3_file, c3_voltage_file
    ):
        from liftlap.homology import _pivots

        ranked = []

        def counting_pivots(rows, cols, values):
            ranked.append((len(set(rows.tolist())), len(set(cols.tolist())), len(rows)))
            return _pivots(rows, cols, values)

        monkeypatch.setattr("liftlap.homology._pivots", counting_pivots)
        code, report, _ = run(
            capsys, ["verify", "betti", "--base", c3_file, "--voltage", c3_voltage_file]
        )
        assert code == 0 and sorted(report["results"]) == ["combinatorial", "normalized"]
        # once for both schemes, top degree down: the triangle's d_0 (3 x 3)
        # in full and the one row of d_-1 left once the rows at d_0's 2
        # pivot columns are skipped, then the twisted d^V_0 (3 x 3, V of
        # dimension 1): rows, columns and nonzeros.  The hexagon's 6 x 6
        # coboundary is never ranked
        assert ranked == [(3, 3, 6), (1, 1, 1), (3, 3, 6)]
        assert [v["claim"] for v in report["verdicts"]] == [
            f"betti inequality via b_i(cover) = b_i(base) + b_i(base; V_psi) (dim {i})" for i in (-1, 0, 1)
        ]
        top = report["verdicts"][-1]
        assert (top["betti_base"], top["betti_twisted"], top["betti_cover"], top["tolerance"]) == (1, 0, 1, 0)
        assert top["twisted_coboundaries"] == [{"layer": 0, "shape": [3, 3], "rank": 3}]
        assert top["factorization_residual"] == top["block_identity_residual"] == top["square_residual"] == 0
        assert top["witness"] is None

    def test_betti_on_the_icosahedron_over_rp2(self, capsys, tmp_path):
        from conftest import RP2_FACETS, RP2_SWAPPED_EDGES

        base = write(tmp_path, "rp2.json", {"facets": [list(f) for f in RP2_FACETS]})
        psi = write(tmp_path, "rp2_psi.json", {"k": 2, "edges": [{"edge": list(e), "perm": [2, 1]} for e in RP2_SWAPPED_EDGES]})
        code, report, _ = run(capsys, ["verify", "betti", "--base", base, "--voltage", psi, "--scheme", "combinatorial"])
        assert code == 0
        assert report["results"] == {"combinatorial": {"-1": [0, 0], "0": [0, 0], "1": [0, 0], "2": [0, 1]}}
        assert report["verdicts"][-1]["betti_twisted"] == 1

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
        # layers 0 and 1 are each solved once per scheme for the base and
        # the signed base, and never for the cover; the top layer needs no
        # eigensolve
        assert calls == {"eigvalsh": 8, "induced_incidence_voltage": 3}

    def test_decompose(self, capsys, c3_file, c3_voltage_file):
        code, report, _ = run(
            capsys,
            ["decompose", "--base", c3_file, "--voltage", c3_voltage_file, "--dim", "0"],
        )
        assert code == 0
        assert report["results"]["block_sizes"] == [1, 1]
        assert all(v["holds"] for v in report["verdicts"])

    @pytest.mark.parametrize("perm", [[2, 3, 1], [2, 3, 4, 1]], ids=["Z3", "Z4"])
    def test_decompose_cyclic_cover_reports_every_character_block(self, capsys, tmp_path, c3_file, perm):
        # two or more blocks after the trivial one
        psi = write(tmp_path, "cyclic.json", {"k": len(perm), "edges": [{"edge": [0, 1], "perm": perm}]})
        code, report, _ = run(capsys, ["decompose", "--base", c3_file, "--voltage", psi, "--dim", "0"])
        assert code == 0
        assert report["results"]["block_sizes"] == [1] * len(perm)
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
            return BlockDecomposition(dec.group, dec.transform[:, ::-1], dec.block_sizes[::-1], dec.residual)

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

    @pytest.mark.parametrize("target", ["missing/f.json", "."], ids=["missing-directory", "a-directory"])
    def test_unwritable_out_exits_2_naming_the_path(self, capsys, tmp_path, monkeypatch, reference, target):
        monkeypatch.setattr("liftlap.cli.search_reference_fixture", lambda tol: reference)
        out = str(tmp_path / target)
        code, report, err = run(capsys, ["fixture", "search-fig1", "--out", out])
        assert code == 2 and report is None
        assert f"error: {out}: " in err


class TestTolerance:
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tol_must_be_finite_and_non_negative(self, capsys, c3_file, c3_voltage_file, tol):
        with pytest.raises(SystemExit) as exc:
            main(["--tol", tol, "verify", "union", "--base", c3_file, "--voltage", c3_voltage_file])
        assert exc.value.code == 2
        assert "argument --tol: expected a finite number of at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["1e-6", "1e-10"])
    def test_tol_is_the_fixture_verdicts_tolerance(self, capsys, tmp_path, tol):
        # the base search is exact; --tol reaches the flip's comparisons alone
        code, report, _ = run(capsys, ["--tol", tol, "fixture", "search-fig1", "--out", str(tmp_path / "f.json")])
        assert code == 0 and report["results"]["labeled_matches"] == 420
        assert [v["tolerance"] for v in report["verdicts"]] == [float(tol)]


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
        assert "s.json" in err and "([0, 1], [0, 1, 2]) is not an incidence the dim 0 up operator reads" in err

    @pytest.mark.parametrize(
        "key, records, named",
        [
            ("signing", [{"face": [1, 2], "cofacet": [0, 1, 2]}], "([1, 2], [0, 1, 2]) is"),
            (
                "weighting",
                [
                    {"face": [0, 1], "cofacet": [0, 1, 2], "value": {"re": 1.0}},
                    {"face": [0, 2], "cofacet": [0, 1, 2], "value": {"re": 2.0}},
                ],
                "([0, 2], [0, 1, 2]) is",
            ),
            # a unit value is the identity everywhere, so only the layer is known
            ("weighting", [{"face": [1, 2], "cofacet": [0, 1, 2], "value": {"re": 1.0}}], "a (1-face, 2-face) pair is"),
        ],
        ids=["signing", "weighting", "unit-weighting"],
    )
    def test_an_unread_incidence_the_file_lists_is_named(self, capsys, tmp_path, triangle_file, key, records, named):
        path = write(tmp_path, "d.json", {"flips" if key == "signing" else "entries": records})
        code, report, err = run(
            capsys, ["spectrum", "--complex", triangle_file, "--dim", "0", "--kind", "up", f"--{key}", path]
        )
        assert code == 2 and report is None
        assert f"d.json: {named} not an incidence the dim 0 up operator reads" in err

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

    @pytest.mark.parametrize(
        "name, doc, record, message",
        [
            ("phi.json", {"vertex_map": _HEXAGON_MAP + [[3, 0.9]]}, "[3, 0.9]", "vertex 0.9 is not a non-negative integer"),
            ("phi.json", {"vertex_map": _HEXAGON_MAP + [[3, False]]}, "[3, False]", "vertex False is not"),
            ("psi.json", {"k": 2, "edges": [{"edge": [0, 1.7], "perm": [2, 1]}]}, "[0, 1.7]", "vertex 1.7 is not"),
            ("psi.json", {"k": 2, "edges": [{"edge": [0, 1], "perm": ["2", 1.9]}]}, "['2', 1.9]", "image '2' is not"),
            ("psi.json", {"k": 2, "edges": [{"edge": [0, 1], "perm": [2, 1.9]}]}, "[2, 1.9]", "image 1.9 is not"),
            ("bad.json", {"facets": [[0, 1], [2, True]]}, "[2, True]", "vertex True is not"),
        ],
        ids=["map-float", "map-bool", "edge-float", "perm-string", "perm-float", "facet-bool"],
    )
    def test_ids_are_not_coerced(self, capsys, tmp_path, c3_file, name, doc, record, message):
        path = write(tmp_path, name, doc)
        if name == "phi.json":
            hexagon = write(tmp_path, "hexagon.json", {"facets": [[v, (v + 1) % 6] for v in range(6)]})
            argv = ["cover", "verify", "--cover", hexagon, "--base", c3_file, "--map", path]
        elif name == "psi.json":
            argv = ["cover", "build", "--base", c3_file, "--voltage", path]
        else:
            argv = ["spectrum", "--complex", path, "--dim", "0"]
        code, report, err = run(capsys, argv)
        assert code == 2 and report is None
        assert name in err and record in err and message in err
