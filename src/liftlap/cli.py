"""Command-line surface: constructions, spectra, and theorem verification.

Reports are JSON on stdout (stable key order, deterministic for fixed
inputs and seed); a human summary goes to stderr.  Exit codes: 0 when
every verdict holds, 1 when a verified claim fails, 2 for parse errors,
3 for precondition errors and when a command runs out of memory.

The spectral claims (``verify union|abelian|inclusion`` and
``decompose``) solve no operator.  Each verdict is the certificate of
its incidence layer: the cover's coboundary factors exactly through the
base coboundary lifted by the induced voltages
(:func:`~liftlap.covering.factor_lifted_coboundary`), and a transform T
carries the lift into the direct sum of the blocks
(:func:`~liftlap.representation.block_identity`), so the lifted spectrum
is the union of the block spectra, and no eigenvalue is read.  The union
and ``verify betti`` read T and R off one integer split
(:func:`~liftlap.representation.integer_split`).  Each layer is factored
once, and the weight schemes asked for share that integer comparison.
The block spectra themselves are ``spectrum`` of the base, with
``--signing`` for the union's signed block.  ``verify betti`` ranks only
base-size matrices, and its verdicts are exact
(:func:`~liftlap.homology.verify_betti_inequality`).
The fixture search matches the base, signed and cover spectra exactly,
by integer power sums (:mod:`~liftlap.reference_fixture`), so its
verdicts, like those of ``verify betti``, report tolerance 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import io as llio
from .complexes import COMBINATORIAL, NORMALIZED, coboundary
from .covering import derived_complex, factor_lifted_coboundary, induced_incidence_voltage, verify_covering
from .errors import (
    CoveringViolation,
    DimensionError,
    GroupStructureError,
    LiftlapError,
    MalformedInputError,
)
from .reference_fixture import search_reference_fixture
from .homology import verify_betti_inequality
from .operators import laplacian_matrix, spectrum
from .representation import (
    RESIDUAL_TOL,
    abelian_decomposition,
    block_identity,
    block_values,
    decompose_representation,
    integer_split,
    voltage_group,
)

SCHEMES = {"combinatorial": COMBINATORIAL, "normalized": NORMALIZED}


def _hash_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _verdict(claim, holds, tolerance, max_error, **extra):
    out = {
        "claim": claim,
        "holds": bool(holds),
        "tolerance": tolerance,
        "max_error": None if max_error is None else float(max_error),
    }
    out.update(extra)
    return out


def _schemes(name):
    if name == "both":
        return [("combinatorial", COMBINATORIAL), ("normalized", NORMALIZED)]
    return [(name, SCHEMES[name])]


def _resolve_covering(args, inputs):
    """The cover given as files (``--cover`` with ``--map``) or as
    ``--voltage``: exactly one of the two."""
    given = (args.cover is not None, args.map is not None, args.voltage is not None)
    if given == (True, True, False):
        cover, _ = llio.load_complex(args.cover)
        base, _ = llio.load_complex(args.base)
        vmap = llio.load_vertex_map(args.map)
        inputs.update({"cover": _hash_file(args.cover), "base": _hash_file(args.base), "map": _hash_file(args.map)})
        return verify_covering(cover, base, vmap)
    if given == (False, False, True):
        base, _ = llio.load_complex(args.base)
        psi = llio.load_edge_voltages(args.voltage, base)
        inputs.update({"base": _hash_file(args.base), "voltage": _hash_file(args.voltage)})
        result = derived_complex(base, psi)
        if not result.connected:
            raise LiftlapError(
                "the derived complex is disconnected; run 'cover build' to inspect its components"
            )
        return result.covering
    raise MalformedInputError("provide either --cover/--base/--map or --base/--voltage")


def _spec_values(s):
    return [float(v) for v in s.values]


def _listed_incidence(K, i, values) -> str:
    """The first incidence of layer i whose value is not the identity, one the file lists."""
    off = (values.reshape(len(values), -1) != np.eye(math.isqrt(values[0].size)).ravel()).any(axis=1)
    if not off.any():
        return f"a ({i}-face, {i + 1}-face) pair"
    rows, cols, _ = coboundary(K, i)
    return f"({list(K.faces(i)[cols[off.argmax()]])}, {list(K.faces(i + 1)[rows[off.argmax()]])})"


# -- commands -----------------------------------------------------------------


def cmd_spectrum(args, report):
    K, file_scheme = llio.load_complex(args.complex)
    report["inputs"]["complex"] = _hash_file(args.complex)
    scheme = SCHEMES[args.scheme] if args.scheme else file_scheme
    decoration = None
    # the incidence layers the operator reads
    read = {"up": {args.dim}, "down": {args.dim - 1}, "full": {args.dim - 1, args.dim}}[args.kind]
    for key, load in (("signing", llio.load_signing), ("weighting", llio.load_weighting)):
        path = getattr(args, key)
        if path:
            decoration = load(path, K)
            report["inputs"][key] = _hash_file(path)
            i = min(set(decoration.layers) - read, default=None)
            if i is not None:
                raise MalformedInputError(
                    f"{path}: {_listed_incidence(K, i, decoration.layers[i])} is not an incidence the dim "
                    f"{args.dim} {args.kind} operator reads"
                )
    op = laplacian_matrix(K, args.dim, args.kind, scheme, decoration)
    s = spectrum(op)
    report["results"] = {
        "dim": args.dim,
        "kind": args.kind,
        "scheme": scheme.kind,
        "values": _spec_values(s),
        "clamped": s.clamped,
    }
    return []


def cmd_cover_build(args, report):
    base, _ = llio.load_complex(args.base)
    psi = llio.load_edge_voltages(args.voltage, base)
    report["inputs"]["base"] = _hash_file(args.base)
    report["inputs"]["voltage"] = _hash_file(args.voltage)
    result = derived_complex(base, psi)
    K = result.complex
    report["results"] = {
        "face_counts": {str(d): K.face_count(d) for d in K.dims()},
        "fold": psi.k,
        "connected": result.connected,
        "components": [sorted(c) for c in result.components],
        "vertex_map": result.vertex_map.tolist(),
    }
    if args.out:
        llio.save_complex(K, args.out)
        report["results"]["out"] = str(args.out)
    verdicts = [
        _verdict(
            "derived complex is a connected cover satisfying the covering axioms",
            result.connected,
            None,
            None,
            components=len(result.components),
        )
    ]
    if result.connected:
        verdicts.append(
            _verdict("constant fiber size across all dimensions", True, None, None, degree=result.covering.degree)
        )
    return verdicts


def cmd_cover_verify(args, report):
    cover, _ = llio.load_complex(args.cover)
    base, _ = llio.load_complex(args.base)
    vmap = llio.load_vertex_map(args.map)
    report["inputs"].update(
        {"cover": _hash_file(args.cover), "base": _hash_file(args.base), "map": _hash_file(args.map)}
    )
    try:
        cov = verify_covering(cover, base, vmap)
    except CoveringViolation as exc:
        report["results"] = {"violation": exc.kind, "witness": repr(exc.witness)}
        return [_verdict(f"covering axioms hold ({exc.kind})", False, None, None)]
    report["results"] = {"degree": cov.degree}
    return [_verdict("covering axioms hold", True, None, None, degree=cov.degree)]


def cmd_decompose(args, report):
    cov = _resolve_covering(args, report["inputs"])
    scheme = SCHEMES[args.scheme]
    _check_dim(cov, args.dim, 0 if args.direction == "up" else 1)
    layer = _layer(args.direction, args.dim)
    psi = induced_incidence_voltage(cov, layer)
    group = voltage_group(psi.perms)
    dec = decompose_representation(group, seed=args.seed)
    values = block_values(dec, psi.perms)
    # block 0 is the base operator exactly when rho_0 is the trivial representation,
    # which holds on G when it holds at the generators, the distinct voltages
    first_err = float(np.abs(values[0] - 1).max(initial=0.0))
    report["results"] = {
        "group_order": group.order,
        "block_sizes": list(dec.block_sizes),
        "residual": dec.residual,
    }
    return [
        _verdict("block decomposition: off-block residual", dec.residual <= RESIDUAL_TOL, RESIDUAL_TOL, dec.residual),
        _verdict("block decomposition: first block is the base operator", first_err <= 1e-12, 1e-12, first_err),
        _certificate_verdict(
            "block decomposition: block spectra union to the lifted spectrum",
            cov,
            psi,
            factor_lifted_coboundary(cov, layer, psi, [scheme])[0],
            block_identity(psi, dec.transform, values[1:]),
            RESIDUAL_TOL,
        ),
    ]


def _certificate_verdict(claim, cov, psi, factorization, identity, tolerance):
    """The verdict that the cover's operators on ``psi``'s layer are
    similar to the direct sum of the blocks: the factorization of the
    cover's coboundary holds exactly, with the cover's face weights the
    base's, and the block identity within ``tolerance``.  Then the lifted
    spectrum is the union of the block spectra (for a one-column
    transform, it contains block 0's).  The witness names the first
    failing part (:func:`_witness`), or the transform."""
    witness = _witness(cov, psi.dim, factorization, identity, tolerance)
    if witness is None and not identity.defect <= tolerance:
        witness = {"kind": "transform"}
    return _verdict(
        claim,
        witness is None,
        tolerance,
        max(float(factorization.residual), identity.residual, identity.defect),
        factorization_residual=factorization.residual,
        block_identity_residual=identity.residual,
        transform_defect=identity.defect,
        witness=witness,
    )


def _witness(cov, i, factorization, identity, tolerance):
    """Where the certificate of layer i first fails: a cover (face,
    cofacet) pair, a cover face whose weight is off, or the base
    incidence of the block identity; ``None`` when none of them does."""
    M = cov.base
    if factorization.witness is not None:
        face, cofacet = factorization.witness
        return {"kind": "cover coboundary", "face": list(face), "cofacet": list(cofacet)}
    if factorization.weight_witness is not None:
        return {"kind": "cover face weight", "face": list(factorization.weight_witness)}
    if not identity.residual <= tolerance:
        rows, cols, _ = coboundary(M, i)
        e = identity.witness
        return {"kind": "block identity", "face": list(M.faces(i)[cols[e]]), "cofacet": list(M.faces(i + 1)[rows[e]])}
    return None


def _check_dim(cov, requested, lowest):
    """Refuse a requested dimension outside ``lowest``..top of the base,
    where the claim would check nothing."""
    top = cov.base.top_dim
    if requested is not None and not lowest <= requested <= top:
        raise DimensionError(
            f"--dim {requested} is outside {lowest}..{top}, the base dimensions this claim is checked at"
        )


def _layer(direction, i):
    """The incidence layer of the i-dimensional operator: its coboundary
    (up) or the one into it (down)."""
    return i if direction == "up" else i - 1


def _dims(cov, direction, requested):
    top = cov.base.top_dim
    valid = range(0, top + 1) if direction == "up" else range(1, top + 1)
    if requested is None:
        return list(valid)
    return [requested] if requested in valid else []


def _two_fold(psi, args):
    # T = [[1, 1], [1, -1]], T^T T = 2I, and the signing: exact in integers
    transform, signing = integer_split(psi)
    return transform, [signing]


def _characters(psi, args):
    dec = abelian_decomposition(psi, seed=args.seed)
    return dec.transform, block_values(dec, psi.perms)[1:]


def _constant(psi, args):
    # T_0 = 1_k: every permutation fixes the constant sheet vector
    return np.ones((psi.k, 1)), []


# subcommand -> (claim, required cover degree, the transform T and the values
# of the blocks after the first on an incidence layer, the tolerance of
# their block identity, the results payload
SPECTRAL_CLAIMS = {
    "union": ("two-fold spectral union", 2, _two_fold, 0.0, lambda cov, skipped: {"degree": cov.degree}),
    "inclusion": ("spectral inclusion", None, _constant, 0.0, lambda cov, skipped: {"degree": cov.degree}),
    "abelian": (
        "abelian character decomposition",
        None,
        _characters,
        RESIDUAL_TOL,
        lambda cov, skipped: {"degree": cov.degree, "skipped_layers": skipped},
    ),
}


def _certify_layer(cov, layer, decorate, args):
    """The layer's voltages, block identity and, per scheme, the
    factorization of the cover's coboundary, whose integer comparison the
    schemes share; the error where the claim's hypothesis is not met
    (trivial or intransitive voltage group), so the claim does not apply
    on this layer."""
    psi = induced_incidence_voltage(cov, layer)
    try:
        transform, values = decorate(psi, args)
    except GroupStructureError as exc:
        if args.dim is not None:
            raise
        return exc
    names, schemes = zip(*_schemes(args.scheme))
    factorizations = dict(zip(names, factor_lifted_coboundary(cov, layer, psi, schemes)))
    return psi, block_identity(psi, transform, values), factorizations


def cmd_verify_spectral(args, report):
    """Each verdict is the certificate of its layer: the cover's operators
    are similar to the direct sum of the base blocks, so neither the
    cover nor any block is solved."""
    claim, degree, decorate, tolerance, results = SPECTRAL_CLAIMS[args.subcommand]
    cov = _resolve_covering(args, report["inputs"])
    if degree is not None and cov.degree != degree:
        raise LiftlapError(f"the {claim} property needs a {degree}-fold cover, got degree {cov.degree}")
    _check_dim(cov, args.dim, 0)
    verdicts = []
    skipped = []
    certified = {}
    for direction in ("up", "down"):
        for i in _dims(cov, direction, args.dim):
            layer = _layer(direction, i)
            if layer not in certified:
                certified[layer] = _certify_layer(cov, layer, decorate, args)
            if isinstance(certified[layer], GroupStructureError):
                skipped.append(f"{direction}/{i}")
                continue
            psi, identity, schemes = certified[layer]
            for name, factorization in schemes.items():
                verdicts.append(
                    _certificate_verdict(
                        f"{claim} ({direction}, dim {i}, {name})", cov, psi, factorization, identity, tolerance
                    )
                )
    if not verdicts:
        # every layer was skipped, so nothing was verified: the first skip's reason
        raise next(iter(certified.values()))
    report["results"] = results(cov, skipped)
    return verdicts


def cmd_verify_betti(args, report):
    """One verdict per dimension, and one results table per scheme asked for."""
    cov = _resolve_covering(args, report["inputs"])
    _check_dim(cov, args.dim, cov.base.min_dim)
    rep = verify_betti_inequality(cov)
    table = {str(v.dim): [v.betti_base, v.betti_cover] for v in rep.per_dim}
    report["results"] = {name: table for name, _ in _schemes(args.scheme)}
    return [_betti_verdict(cov, v) for v in rep.per_dim if args.dim in (None, v.dim)]


def _betti_verdict(cov, v):
    """The exact verdict of one dimension, with the largest residual of
    each part of its layers' certificates and the first witness: that of
    :func:`_witness`, or an entry of a twisted coboundary squared at a
    base face and (i+2)-face, with the coordinates of V at each, or the
    least base vertex when the Betti numbers at dims -1 and 0 are not
    those of a connected complex."""
    M, m = cov.base, cov.degree - 1
    witness = None
    for x in v.layers:
        witness = _witness(cov, x.dim, x.factorization, x.identity, 0)
        if witness is None and x.square_witness is not None:
            (row, a), (col, j) = (divmod(n, m) for n in x.square_witness)
            witness = {
                "kind": "twisted coboundary squared",
                "face": list(M.faces(x.dim)[col]),
                "cofacet": list(M.faces(x.dim + 2)[row]),
                "coordinates": [j, a],
            }
        if witness is not None:
            break
    if witness is None and not v.components_agree:
        witness = {"kind": "betti number of a connected complex", "face": list(M.faces(0)[0])}
    residuals = {
        "factorization_residual": max((x.factorization.residual for x in v.layers), default=0),
        "block_identity_residual": max((int(x.identity.residual) for x in v.layers), default=0),
        "square_residual": max((x.square for x in v.layers), default=0),
    }
    return _verdict(
        f"betti inequality via b_i(cover) = b_i(base) + b_i(base; V_psi) (dim {v.dim})",
        v.holds,
        0,
        max(residuals.values()),
        betti_base=v.betti_base,
        betti_cover=v.betti_cover,
        betti_twisted=v.betti_twisted,
        twisted_coboundaries=[{"layer": x.dim, "shape": list(x.shape), "rank": x.rank} for x in v.layers],
        witness=witness,
        **residuals,
    )


def cmd_fixture(args, report):
    """A miss reports ``labeled_matches``: 0 when no candidate matches the
    base spectrum, more when none of them has a matching flip."""
    fixture = search_reference_fixture()
    if fixture.flip is None:
        report["results"] = {"found": False, "labeled_matches": fixture.matches}
        return [_verdict("reference 2-complex recovered by spectrum search", False, 0, None)]
    doc = {
        "found": True,
        "facets": [list(f) for f in fixture.complex.facets()],
        "flip": {"face": list(fixture.flip[0]), "cofacet": list(fixture.flip[1])},
        "labeled_matches": fixture.matches,
    }
    llio._save(args.out, doc)
    report["results"] = {**doc, "out": args.out}
    return [_verdict("reference 2-complex recovered and companion spectra reproduced", True, 0, None)]


# -- argument parsing ----------------------------------------------------------


def _add_cover_inputs(p):
    p.add_argument("--cover", help="covering complex file")
    p.add_argument("--base", required=True, help="base complex file")
    p.add_argument("--map", help="vertex map file (with --cover)")
    p.add_argument("--voltage", help="1-skeleton voltage file (instead of --cover/--map)")


COMMANDS = ("spectrum", "cover", "decompose", "verify", "fixture")


@cache
def _global_options() -> argparse.ArgumentParser:
    """The options given before the command, which :func:`main` also
    parses on their own."""
    p = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized decomposition")
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="liftlap", description=__doc__, parents=[_global_options()])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="spectrum of a Laplace operator")
    p.add_argument("--complex", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--kind", choices=["up", "down", "full"], default="up")
    p.add_argument("--scheme", choices=sorted(SCHEMES))
    decorations = p.add_mutually_exclusive_group()
    decorations.add_argument("--signing")
    decorations.add_argument("--weighting")
    p.set_defaults(handler="cmd_spectrum")

    pc = sub.add_parser("cover", help="build or verify coverings")
    csub = pc.add_subparsers(dest="subcommand", required=True)
    p = csub.add_parser("build", help="derived complex from 1-skeleton voltages")
    p.add_argument("--base", required=True)
    p.add_argument("--voltage", required=True)
    p.add_argument("--out")
    p.set_defaults(handler="cmd_cover_build")
    p = csub.add_parser("verify", help="check the covering axioms of a vertex map")
    p.add_argument("--cover", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--map", required=True)
    p.set_defaults(handler="cmd_cover_verify")

    p = sub.add_parser("decompose", help="block decomposition of a lifted operator")
    _add_cover_inputs(p)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--direction", choices=["up", "down"], default="up")
    p.add_argument("--scheme", choices=sorted(SCHEMES), default="combinatorial")
    p.set_defaults(handler="cmd_decompose")

    pv = sub.add_parser("verify", help="verify a spectral or homological claim")
    vsub = pv.add_subparsers(dest="subcommand", required=True)
    for name in list(SPECTRAL_CLAIMS) + ["betti"]:
        p = vsub.add_parser(name)
        _add_cover_inputs(p)
        p.add_argument("--dim", type=int)
        p.add_argument("--scheme", choices=sorted(SCHEMES) + ["both"], default="both")
        p.set_defaults(handler="cmd_verify_betti" if name == "betti" else "cmd_verify_spectral")

    pf = sub.add_parser("fixture", help="fixture recovery oracles")
    fsub = pf.add_subparsers(dest="subcommand", required=True)
    p = fsub.add_parser("search-fig1", help="brute-force search for the reference 2-complex")
    p.add_argument("--out", default="fig1_fixture.json")
    p.set_defaults(handler="cmd_fixture")

    return ap


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process.  Each command
    names its handler, which :func:`main` looks up in this module when it
    runs, so a handler replaced after the build is the one called."""
    return build_parser()


def _refuse_unknown_option_with_value(argv) -> None:
    """Exit 2 naming an unknown option given before the command with a
    value, as argparse names one given alone ("unrecognized arguments"):
    argparse itself would take the value for the command."""
    try:
        _, rest = _global_options().parse_known_args(argv)
    except argparse.ArgumentError:
        return  # a bad --seed, which the full parser names
    j = next((j for j, a in enumerate(rest) if not a.startswith("-")), 0)
    if j and rest[j] not in COMMANDS and not {"-h", "--help"} & set(rest[:j]):
        _parser().error(f"unrecognized arguments: {' '.join(rest[: j + 1])}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    _refuse_unknown_option_with_value(argv)
    args = _parser().parse_args(argv)
    report = {
        "command": args.command + (f" {args.subcommand}" if getattr(args, "subcommand", None) else ""),
        "inputs": {},
        "seed": args.seed,
        "results": {},
        "verdicts": [],
    }
    try:
        verdicts = globals()[args.handler](args, report)
    except MalformedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LiftlapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"error: '{report['command']}' ran out of memory", file=sys.stderr)
        return 3
    report["verdicts"] = verdicts
    print(json.dumps(report, sort_keys=True))
    for v in verdicts:
        status = "PASS" if v["holds"] else "FAIL"
        err = "" if v["max_error"] is None else f" (max_error={v['max_error']:.3e})"
        print(f"[{status}] {v['claim']}{err}", file=sys.stderr)
    if not verdicts:
        print("done (no verdicts)", file=sys.stderr)
    return 0 if all(v["holds"] for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
