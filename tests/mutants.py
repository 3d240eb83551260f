"""Named faults for the verify and decompose commands, each a
``monkeypatch`` of one library function (``padding-short`` one of the
direct-solve oracle's), and the small covers they are run on.

A fault replaces its function in every ``liftlap`` module that binds it,
so the CLI's certified route and the direct-solve oracle of
:mod:`oracles` meet the same fault.  The covers are written as files and
each command runs through ``liftlap.cli.main``, as it does from the shell.
Each replacement adds its function's name to ``REACHED`` when called, so
a run shows whether the fault was reached at all.
"""

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from liftlap import complexes, covering, homology, representation
from liftlap.complexes import NORMALIZED_KIND, coboundary
from liftlap.covering import IncidenceVoltages
from liftlap.operators import SpectrumMultiset

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import inputs  # noqa: E402


# the names of the replaced functions called since the set was last cleared
REACHED = set()


def patch_everywhere(monkeypatch, module, name, make):
    """Replace ``module.name`` by ``make(original)`` in ``module`` and in
    every liftlap module that binds the original; a call adds ``name`` to
    ``REACHED``."""
    real = getattr(module, name)
    fake = make(real)

    def reached(*args, **kwargs):
        REACHED.add(name)
        return fake(*args, **kwargs)

    for mod in list(sys.modules.values()):
        ours = mod is module or getattr(mod, "__name__", "").startswith("liftlap")
        if ours and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, reached)


def _edit_cover_layer_0(monkeypatch, edit):
    """Built covers keep ``edit(covering, rows, cols, signs)`` applied to
    copies of their vertex/edge coboundary triplets, in place of the
    triplets every later reader takes from the cover's cache."""

    def make(real):
        def derived(M, psi):
            result = real(M, psi)
            rows, cols, signs = (a.copy() for a in coboundary(result.complex, 0))
            edit(result.covering, rows, cols, signs)
            result.complex._coboundaries[0] = rows, cols, signs
            return result

        return derived

    patch_everywhere(monkeypatch, covering, "derived_complex", make)


def cover_sign_flip(monkeypatch):
    def edit(cov, rows, cols, signs):
        signs[0] = -signs[0]

    _edit_cover_layer_0(monkeypatch, edit)


def cover_sheet_swap(monkeypatch):
    # the first lifted incidence meets the vertex on the next sheet of the same base vertex
    def edit(cov, rows, cols, signs):
        g, j = np.argwhere(cov.fibers[0] == cols[0])[0]
        cols[0] = cov.fibers[0][g, (j + 1) % cov.degree]

    _edit_cover_layer_0(monkeypatch, edit)


def voltage_inverted(monkeypatch):
    # the first incidence whose voltage is not its own inverse gets the inverse
    def make(real):
        def induced(cov, i):
            psi = real(cov, i)
            perms = psi.perms.copy()
            moved = (perms[np.arange(len(perms))[:, None], perms] != np.arange(psi.k)).any(axis=1)
            if moved.any():
                e = int(np.argmax(moved))
                perms[e] = np.argsort(perms[e])
            return IncidenceVoltages(psi.base, psi.k, psi.dim, perms)

        return induced

    patch_everywhere(monkeypatch, covering, "induced_incidence_voltage", make)


def _patch_split(monkeypatch, edit):
    """``integer_split`` returns ``edit(R)`` in place of its stack R(psi_e)."""

    def make(real):
        def split(psi):
            transform, blocks = real(psi)
            return transform, edit(blocks.copy())

        return split

    patch_everywhere(monkeypatch, representation, "integer_split", make)


def _patch_block_values(monkeypatch, edit):
    """``block_values`` returns ``edit(values)`` in place of its list of value arrays."""
    patch_everywhere(monkeypatch, representation, "block_values", lambda real: lambda dec, perms: edit(real(dec, perms)))


def signing_misses_swap(monkeypatch):
    # R(p) is the identity at the first incidence whose voltage moves a
    # sheet: on two sheets, one swap is missed
    def unflip(blocks):
        unit = np.eye(blocks.shape[-1], dtype=blocks.dtype)
        moved = (blocks != unit).any(axis=(1, 2))
        if moved.any():
            blocks[np.argmax(moved)] = unit
        return blocks

    _patch_split(monkeypatch, unflip)


def block_transposed(monkeypatch):
    # rho_j(g) read transposed at the first incidence where that differs
    def transpose(v):
        asym = (v != v.transpose(0, 2, 1)).any(axis=(1, 2))
        if asym.any():
            v = v.copy()
            e = int(np.argmax(asym))
            v[e] = v[e].T.copy()
        return v

    _patch_block_values(monkeypatch, lambda values: [transpose(v) for v in values])


def weight_scaled(monkeypatch):
    # the first incidence's value of the first block after block 0 is
    # scaled: by 1 + 1e-6 among the float block values, and by 2 in the
    # integer split, whose values must stay integers for the exact ranks
    def scaled(v, factor):
        v = v.copy()
        if len(v):
            v[0] = v[0] * factor
        return v

    _patch_split(monkeypatch, lambda blocks: scaled(blocks, 2))
    _patch_block_values(monkeypatch, lambda values: [scaled(v, 1 + 1e-6) if j == 1 else v for j, v in enumerate(values)])


def cover_weight_off_by_one(monkeypatch):
    # the first vertex of every built cover weighs 1 more under the normalized scheme
    covers = []

    def derived_make(real):
        def derived(M, psi):
            result = real(M, psi)
            covers.append(result.complex)
            return result

        return derived

    def weights_make(real):
        def weights(K, scheme):
            w = real(K, scheme)
            if scheme.kind == NORMALIZED_KIND and any(K is c for c in covers):
                w[0] = w[0].copy()
                w[0][0] += 1
            return w

        return weights

    patch_everywhere(monkeypatch, covering, "derived_complex", derived_make)
    patch_everywhere(monkeypatch, complexes, "compute_weights", weights_make)


def padding_short(monkeypatch):
    # the side the direct oracle pads with zeros gets one zero too few
    def make(real):
        def layer_spectra(K, i, scheme=complexes.COMBINATORIAL, decoration=None):
            up, down = real(K, i, scheme, decoration)
            if len(up) == len(down):
                return up, down
            longer = up if len(up) > len(down) else down
            values = list(longer.values)
            values.remove(0.0)
            short = SpectrumMultiset(tuple(values), longer.clamped)
            return (short, down) if longer is up else (up, short)

        return layer_spectra

    patch_everywhere(monkeypatch, oracles, "layer_spectra", make)


def factor_first_column(monkeypatch):
    # a lifted nonzero is looked for at the first nonzero of its cover row only
    def make(real):
        def positions(cols, width, rows, at):
            return np.where(cols.reshape(-1, width)[rows, 0] == at, rows * width, -1)

        return positions

    patch_everywhere(monkeypatch, covering, "_positions", make)


def pivots_drop_last(monkeypatch):
    def make(real):
        def pivots(*args):
            owners = real(*args)
            if owners:
                owners.popitem()
            return owners

        return pivots

    patch_everywhere(monkeypatch, homology, "_pivots", make)


def reduced_blocks_transposed(monkeypatch):
    _patch_split(monkeypatch, lambda blocks: blocks.transpose(0, 2, 1))


def decorated_block_transposed(monkeypatch):
    # the shared builder places the first asymmetric d x d block transposed
    def make(real):
        def decorated(K, i, values=None):
            if values is not None and np.ndim(values) == 3:
                asym = (values != np.swapaxes(values, 1, 2)).any(axis=(1, 2))
                if asym.any():
                    values = np.array(values)
                    e = int(np.argmax(asym))
                    values[e] = values[e].T.copy()
            return real(K, i, values)

        return decorated

    patch_everywhere(monkeypatch, complexes, "decorated_coboundary", make)


@dataclass(frozen=True)
class Mutant:
    name: str
    apply: Callable
    fault: str


MUTANTS = [
    Mutant("cover-sign-flip", cover_sign_flip, "one sign of the cover's vertex/edge coboundary is flipped"),
    Mutant(
        "cover-sheet-swap",
        cover_sheet_swap,
        "one lifted vertex/edge incidence of the cover meets the other sheet of its base vertex",
    ),
    Mutant("voltage-inverted", voltage_inverted, "induced_incidence_voltage inverts one incidence's voltage"),
    Mutant(
        "signing-misses-swap",
        signing_misses_swap,
        "integer_split gives R(p) = 1 at one moved incidence: on two sheets it misses one swap",
    ),
    Mutant("block-transposed", block_transposed, "block_values reads rho_j transposed on one incidence"),
    Mutant(
        "weight-scaled",
        weight_scaled,
        "one block value is scaled: by 1 + 1e-6 in block_values, by 2 in integer_split",
    ),
    Mutant(
        "cover-weight-off-by-one",
        cover_weight_off_by_one,
        "one cover vertex weighs 1 more than its base vertex under the normalized scheme",
    ),
    Mutant("padding-short", padding_short, "the direct oracle's layer_spectra pads one zero too few"),
    Mutant(
        "factor-first-column",
        factor_first_column,
        "the factorization compares each lifted nonzero with the first nonzero of its cover row only",
    ),
    Mutant("pivots-drop-last", pivots_drop_last, "the exact elimination forgets its last pivot"),
    Mutant("reduced-blocks-transposed", reduced_blocks_transposed, "integer_split gives each R(p) transposed"),
    Mutant(
        "decorated-block-transposed",
        decorated_block_transposed,
        "decorated_coboundary places the first asymmetric d x d block transposed",
    ),
]


# -- covers ---------------------------------------------------------------------


def _torus_s3(n: int = 3) -> tuple[dict, dict]:
    facets = inputs.torus_facets(n, punctured=True)
    return inputs.complex_doc(facets), inputs.seam_voltages(n, facets, (1, 0, 2), (1, 2, 0))


TRIANGLE = {"facets": [[0, 1], [1, 2], [0, 2]]}
COVERS = {
    "C3-double": (TRIANGLE, {"k": 2, "edges": [{"edge": [0, 1], "perm": [2, 1]}]}),
    "Z3-triangle": (TRIANGLE, {"k": 3, "edges": [{"edge": [0, 1], "perm": [2, 3, 1]}]}),
    "S3-punctured-torus": _torus_s3(),
}

# each command reads the vertex/edge layer, where the cover faults sit;
# decompose uses the normalized scheme, where the weight fault shows
COMMANDS = {
    "union": ["verify", "union"],
    "abelian": ["verify", "abelian"],
    "inclusion": ["verify", "inclusion"],
    "decompose": ["decompose", "--dim", "1", "--direction", "down", "--scheme", "normalized"],
    "betti": ["verify", "betti"],
}


def write_cover(folder: Path, name: str) -> list:
    """The ``--base``/``--voltage`` arguments of cover ``name``, written under ``folder``."""
    base, voltage = COVERS[name]
    paths = [folder / f"{name}_base.json", folder / f"{name}_voltage.json"]
    for path, doc in zip(paths, (base, voltage)):
        path.write_text(json.dumps(doc))
    return ["--base", str(paths[0]), "--voltage", str(paths[1])]
