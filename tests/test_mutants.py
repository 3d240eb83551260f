"""The kill matrix: every named fault of :mod:`mutants` run through the
verify and decompose commands on four small covers, on the certified
route (the CLI) and on the direct oracle: the spectral commands solve the
cover, and ``verify betti`` ranks the cover and lifts eigensolved base
harmonics.

A cell is ``x`` when the command exits 1 (a verdict fails) and ``.`` when
every verdict holds; a command whose claim does not apply to a cover
(exit 3 without a fault) has no cell.  Each entry is the direct route's
outcome, then the certified route's.  An outcome is ``-`` when the
route never calls the function the fault replaces, so there is nothing
for it to catch: the certified routes read no spectrum, and a cell
``--`` is a fault that does not apply to the command at all.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

import mutants
from mutants import COMMANDS, COVERS, MUTANTS, write_cover
from oracles import direct_decompose, direct_verify_betti, direct_verify_spectral

from liftlap import cli

# the claims that apply: union needs two sheets, abelian an abelian voltage group
APPLIES = {
    "C3-double": ("union", "abelian", "inclusion", "decompose", "betti"),
    "Z3-triangle": ("abelian", "inclusion", "decompose", "betti"),
    "S3-punctured-torus": ("inclusion", "decompose", "betti"),
    "RP2-double": ("union", "abelian", "inclusion", "decompose", "betti"),
}

# mutant -> cover -> command -> direct outcome, certified outcome
ALL_CAUGHT = {
    "C3-double": {"union": "xx", "abelian": "xx", "inclusion": "xx", "decompose": "xx", "betti": "xx"},
    "Z3-triangle": {"abelian": "xx", "inclusion": "xx", "decompose": "xx", "betti": "xx"},
    "S3-punctured-torus": {"inclusion": "xx", "decompose": "xx", "betti": "xx"},
    "RP2-double": {"union": "xx", "abelian": "xx", "inclusion": "xx", "decompose": "xx", "betti": "xx"},
}
NONE_CAUGHT = {cover: {command: ".." for command in row} for cover, row in ALL_CAUGHT.items()}
NONE_REACHED = {cover: {command: "--" for command in row} for cover, row in ALL_CAUGHT.items()}


def _with(table, **cells):
    """``table`` with the cells named ``cover__command`` (dashes as underscores) replaced."""
    out = {cover: dict(row) for cover, row in table.items()}
    for key, cell in cells.items():
        cover, command = key.split("__")
        out[cover.replace("_", "-")][command] = cell
    return out


BETTI = tuple(cover.replace("-", "_") + "__betti" for cover in APPLIES)
INCLUSION = tuple(cover.replace("-", "_") + "__inclusion" for cover in APPLIES)
# Betti numbers read no weight
BETTI_SURVIVES = dict.fromkeys(BETTI, "..")
# betti reads no block value or spectrum, and inclusion no block value;
# only the certified betti route reads the integer split
BETTI_UNREACHED = dict.fromkeys(BETTI, "--")
BETTI_CERTIFIED = dict.fromkeys(BETTI, "-x")
INCLUSION_UNREACHED = dict.fromkeys(INCLUSION, "--")

KILL_MATRIX = {
    # every rational Betti number of RP^2 is 0, so the Betti oracle's
    # inequality holds on any cover of it and it lifts no harmonic; what it
    # catches there is a cover coboundary squared that is not zero
    "cover-sign-flip": ALL_CAUGHT,
    # the swapped hexagon and the swapped 9-cycle still hold the base spectrum
    "cover-sheet-swap": _with(ALL_CAUGHT, C3_double__inclusion=".x", Z3_triangle__inclusion=".x"),
    # the direct routes compare no voltage with the cover (the Betti oracle
    # reads none), and on the Z_3 cover the faulty character blocks keep the
    # union of their spectra
    "voltage-inverted": _with(
        NONE_CAUGHT,
        C3_double__betti="-.",
        Z3_triangle__abelian=".x",
        Z3_triangle__inclusion=".x",
        Z3_triangle__decompose=".x",
        Z3_triangle__betti="-x",
        S3_punctured_torus__inclusion=".x",
        S3_punctured_torus__decompose="xx",
        S3_punctured_torus__betti="-x",
        RP2_double__betti="-.",
    ),
    # the union and the certified betti route read the integer split; its
    # identity catches an R(p) that is not p's
    "signing-misses-swap": _with(NONE_REACHED, C3_double__union="xx", RP2_double__union="xx", **BETTI_CERTIFIED),
    "block-transposed": _with(
        NONE_CAUGHT,
        S3_punctured_torus__decompose="xx",
        C3_double__union="--",
        RP2_double__union="--",
        **INCLUSION_UNREACHED,
        **BETTI_UNREACHED,
    ),
    "weight-scaled": _with(ALL_CAUGHT, **INCLUSION_UNREACHED, **BETTI_CERTIFIED),
    "cover-weight-off-by-one": _with(ALL_CAUGHT, **BETTI_SURVIVES),
    # only the direct routes solve spectra; a graph cover has as many edges
    # as vertices, so nothing is padded below the top layer, which abelian
    # skips, and inclusion compares the base inside the cover, both short
    # by one zero; the icosahedron pads its vertex/edge layer
    "padding-short": _with(
        {cover: {command: ".-" for command in row} for cover, row in ALL_CAUGHT.items()},
        C3_double__union="x-",
        S3_punctured_torus__decompose="x-",
        RP2_double__union="x-",
        RP2_double__abelian="x-",
        RP2_double__decompose="x-",
        **BETTI_UNREACHED,
    ),
    # only the certified routes factor the cover's coboundary
    "factor-first-column": {cover: {command: "-x" for command in row} for cover, row in ALL_CAUGHT.items()},
    # only betti ranks exactly; at dims -1 and 0 the certified route checks the
    # ranks against the components of the connected base and cover
    "pivots-drop-last": _with(NONE_REACHED, **dict.fromkeys(BETTI, "xx")),
    # the union and the certified betti route read the integer split, and
    # on two sheets R(p) is 1 x 1
    "reduced-blocks-transposed": _with(
        NONE_REACHED,
        C3_double__union="..",
        RP2_double__union="..",
        C3_double__betti="-.",
        Z3_triangle__betti="-x",
        S3_punctured_torus__betti="-x",
        RP2_double__betti="-.",
    ),
    # the direct routes assemble every operator through the shared builder,
    # but only the S_3 blocks of decompose are asymmetric; of the certified
    # routes only betti builds the twist, where a transposed 2 x 2 R(p) fails
    # a square on the S_3 torus.  The Z_3 triangle has no 2-faces, so no square is
    # checked there, and the transposed R(p) leaves the twisted rank as it was.
    # Over RP^2 the Betti oracle has no harmonic to lift, so it builds nothing
    "decorated-block-transposed": _with(
        {cover: {command: ".-" for command in row} for cover, row in ALL_CAUGHT.items()},
        C3_double__betti="..",
        Z3_triangle__betti="..",
        S3_punctured_torus__decompose="x-",
        S3_punctured_torus__betti=".x",
        RP2_double__betti="-.",
    ),
}

# why a fault survives a cell on every route that reaches it: it makes no fault there
SURVIVORS = {
    "voltage-inverted": "every voltage of a 2-fold cover is its own inverse",
    "block-transposed": "a 1 x 1 block is its own transpose",
    "reduced-blocks-transposed": "a 1 x 1 block is its own transpose: on 2 sheets R(p) is 1 x 1",
    "decorated-block-transposed": (
        "a 1 x 1 block is its own transpose: on 2 sheets R(p) is 1 x 1; on the Z_3 triangle the fault is real "
        "but the Betti certificate checks the assembled d^V against R only through squares, and there are none"
    ),
    "cover-weight-off-by-one": (
        "Betti numbers read no weight: the certificate factors the cover under the combinatorial scheme, "
        "and a vertex weight leaves the harmonic cochains of dimension 1 and up where they were"
    ),
}


def run(argv, monkeypatch, mutant=None, direct=False):
    """Exit code and report of ``liftlap argv`` under ``mutant``, on the
    direct-solve oracle when ``direct``; ``mutants.REACHED`` is left
    holding the replaced functions the run called."""
    mutants.REACHED.clear()
    with monkeypatch.context() as m:
        if mutant is not None:
            mutant.apply(m)
        if direct:
            m.setattr(cli, "cmd_verify_spectral", direct_verify_spectral)
            m.setattr(cli, "cmd_decompose", direct_decompose)
            m.setattr(cli, "cmd_verify_betti", direct_verify_betti)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    return code, json.loads(out.getvalue()) if out.getvalue().strip() else None


@pytest.fixture(scope="module")
def cover_args(tmp_path_factory):
    folder = tmp_path_factory.mktemp("covers")
    return {name: write_cover(folder, name) for name in COVERS}


@pytest.mark.parametrize("cover", list(COVERS))
@pytest.mark.parametrize("command", list(COMMANDS))
def test_claims_apply_where_listed_and_hold_without_a_fault(monkeypatch, cover_args, cover, command):
    argv = COMMANDS[command] + cover_args[cover]
    codes = [run(argv, monkeypatch, direct=direct)[0] for direct in (True, False)]
    assert codes == ([0, 0] if command in APPLIES[cover] else [3, 3])


def _outcome(code):
    """A route's outcome, read right after its run: ``-`` when it never
    reached the fault, which must leave every verdict holding."""
    assert code in (0, 1), f"exit {code}"
    if not mutants.REACHED:
        assert code == 0, "a fault that is never reached changed a verdict"
        return "-"
    return "x" if code == 1 else "."


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_kill_matrix(monkeypatch, cover_args, mutant):
    matrix = {}
    for cover, commands in APPLIES.items():
        for command in commands:
            argv = COMMANDS[command] + cover_args[cover]
            cell = _outcome(run(argv, monkeypatch, mutant, True)[0])
            certified, report = run(argv, monkeypatch, mutant, False)
            matrix.setdefault(cover, {})[command] = cell + _outcome(certified)
            if certified == 1:
                # every failing certificate names where it fails
                for v in report["verdicts"]:
                    if not v["holds"] and "witness" in v:
                        assert v["witness"]["kind"] and v["witness"].get("face"), v
    assert matrix == KILL_MATRIX[mutant.name]
    cells = [cell for row in matrix.values() for cell in row.values()]
    assert "x." not in cells, "the certified route misses a fault the oracle catches"
    assert ".." not in cells or mutant.name in SURVIVORS

