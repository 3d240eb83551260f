"""Command-line surface: constructions, spectra, and theorem verification.

Reports are JSON on stdout (stable key order, deterministic for fixed
inputs and seed); a human summary goes to stderr.  Exit codes: 0 when
every verdict holds, 1 when a verified claim fails, 2 for parse errors,
3 for precondition errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from functools import reduce
from pathlib import Path

from . import io as llio
from .complexes import COMBINATORIAL, NORMALIZED
from .covering import derived_complex, induced_incidence_voltage, verify_covering
from .errors import (
    CoveringViolation,
    DimensionError,
    GroupStructureError,
    LiftlapError,
    MalformedInputError,
)
from .reference_fixture import search_reference_fixture
from .homology import verify_betti_inequality
from .operators import SpectrumMultiset, compare_spectra, laplacian_matrix, layer_spectra, spectrum
from .representation import (
    RESIDUAL_TOL,
    abelian_weightings,
    block_weightings,
    decompose_representation,
    voltage_group,
    two_fold_signing,
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


# -- commands -----------------------------------------------------------------


def cmd_spectrum(args, report):
    K, file_scheme = llio.load_complex(args.complex)
    report["inputs"]["complex"] = _hash_file(args.complex)
    scheme = SCHEMES[args.scheme] if args.scheme else file_scheme
    decoration = None
    # the cofacet dimensions of the incidence layers the operator reads
    read = {"up": {args.dim + 1}, "down": {args.dim}, "full": {args.dim, args.dim + 1}}[args.kind]
    for key, load in (("signing", llio.load_signing), ("weighting", llio.load_weighting)):
        path = getattr(args, key)
        if path:
            decoration = load(path)
            report["inputs"][key] = _hash_file(path)
            pairs = [pair for pair, _ in decoration.items()]
            for (f, c), found in zip(pairs, K._indices([c for _, c in pairs]) >= 0):
                if not (found and len(c) == len(f) + 1 and set(f) <= set(c)):
                    raise MalformedInputError(
                        f"{path}: ({list(f)}, {list(c)}) is not a (face, cofacet) incidence of the complex"
                    )
                if len(c) - 1 not in read:
                    raise MalformedInputError(
                        f"{path}: ({list(f)}, {list(c)}) is not an incidence the dim {args.dim} "
                        f"{args.kind} operator reads"
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
        "vertex_map": [[v, result.vertex_map[v]] for v in sorted(result.vertex_map)],
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
    layer, side = _layer_side(args.direction, args.dim)
    psi = induced_incidence_voltage(cov, layer)
    group = voltage_group(psi)
    dec = decompose_representation(group, seed=args.seed)
    lifted = layer_spectra(cov.cover, layer, scheme)[side]
    spectra = [
        layer_spectra(cov.base, layer, scheme, w)[side] for w in [None] + block_weightings(psi, dec)
    ]
    cmp_union = compare_spectra(lifted, reduce(SpectrumMultiset.union, spectra), "equal", tol=args.tol)
    # block 0 is the base operator exactly when rho_0 is the trivial representation
    first_err = max(abs(complex(dec.blocks_of[g][0][0, 0]) - 1) for g in group.elements)
    report["results"] = {
        "group_order": group.order,
        "block_sizes": list(dec.block_sizes),
        "block_spectra": [_spec_values(s) for s in spectra],
        "lifted_spectrum": _spec_values(lifted),
        "residual": dec.residual,
    }
    return [
        _verdict("block decomposition: off-block residual", dec.residual <= RESIDUAL_TOL, RESIDUAL_TOL, dec.residual),
        _verdict("block decomposition: first block is the base operator", first_err <= 1e-12, 1e-12, first_err),
        _verdict(
            "block decomposition: block spectra union to the lifted spectrum",
            cmp_union.holds,
            args.tol,
            cmp_union.max_pairing_error,
        ),
    ]


def _check_dim(cov, requested, lowest):
    """Refuse a requested dimension outside ``lowest``..top of the base,
    where the claim would check nothing."""
    top = cov.base.top_dim
    if requested is not None and not lowest <= requested <= top:
        raise DimensionError(
            f"--dim {requested} is outside {lowest}..{top}, the base dimensions this claim is checked at"
        )


def _layer_side(direction, i):
    """The incidence layer of the i-dimensional operator, and its side
    (0 up, 1 down) in that layer's :func:`layer_spectra`."""
    return (i, 0) if direction == "up" else (i - 1, 1)


def _dims(cov, direction, requested):
    top = cov.base.top_dim
    valid = range(0, top + 1) if direction == "up" else range(1, top + 1)
    if requested is None:
        return list(valid)
    return [requested] if requested in valid else []


def _two_fold_signing(cov, layer, args):
    return [two_fold_signing(induced_incidence_voltage(cov, layer))]


def _characters(cov, layer, args):
    return abelian_weightings(induced_incidence_voltage(cov, layer), seed=args.seed)


def _union_results(cov, spectra, skipped):
    keys = ("lifted", "base", "signed")
    return {label: {key: _spec_values(s) for key, s in zip(keys, parts)} for label, parts in spectra.items()}


# subcommand -> (claim, required cover degree, the base decorations of an
# incidence layer whose spectra and the plain base spectrum must union to
# the cover's (None: the base spectrum must lie inside the cover's), the
# results payload)
SPECTRAL_CLAIMS = {
    "union": ("two-fold spectral union", 2, _two_fold_signing, _union_results),
    "inclusion": ("spectral inclusion", None, None, lambda cov, spectra, skipped: {"degree": cov.degree}),
    "abelian": (
        "abelian character decomposition",
        None,
        _characters,
        lambda cov, spectra, skipped: {"degree": cov.degree, "skipped_layers": skipped},
    ),
}


def _solve_layer(cov, layer, decorate, args):
    """Per scheme, the layer spectra of the cover and of the base under
    each of the layer's decorations; the error where the claim's
    hypothesis is not met (trivial or intransitive voltage group), so
    the claim does not apply on this layer."""
    try:
        decorations = decorate(cov, layer, args) if decorate else []
    except GroupStructureError as exc:
        if args.dim is not None:
            raise
        return exc
    return {
        name: [layer_spectra(cov.cover, layer, scheme)]
        + [layer_spectra(cov.base, layer, scheme, d) for d in [None] + decorations]
        for name, scheme in _schemes(args.scheme)
    }


def cmd_verify_spectral(args, report):
    claim, degree, decorate, results = SPECTRAL_CLAIMS[args.subcommand]
    cov = _resolve_covering(args, report["inputs"])
    if degree is not None and cov.degree != degree:
        raise LiftlapError(f"the {claim} property needs a {degree}-fold cover, got degree {cov.degree}")
    _check_dim(cov, args.dim, 0)
    verdicts = []
    spectra = {}
    skipped = []
    solved = {}
    for direction in ("up", "down"):
        for i in _dims(cov, direction, args.dim):
            layer, side = _layer_side(direction, i)
            if layer not in solved:
                solved[layer] = _solve_layer(cov, layer, decorate, args)
            if isinstance(solved[layer], GroupStructureError):
                skipped.append(f"{direction}/{i}")
                continue
            for name, layers in solved[layer].items():
                lifted, *parts = [pair[side] for pair in layers]
                if decorate is None:
                    cmp = compare_spectra(parts[0], lifted, "subset", tol=args.tol)
                else:
                    cmp = compare_spectra(lifted, reduce(SpectrumMultiset.union, parts), "equal", tol=args.tol)
                verdicts.append(
                    _verdict(
                        f"{claim} ({direction}, dim {i}, {name})",
                        cmp.holds,
                        args.tol,
                        cmp.max_pairing_error,
                    )
                )
                spectra[f"{direction}/{i}/{name}"] = [lifted] + parts
    if not verdicts:
        # every layer was skipped, so nothing was verified: the first skip's reason
        raise next(iter(solved.values()))
    report["results"] = results(cov, spectra, skipped)
    return verdicts


def cmd_verify_betti(args, report):
    cov = _resolve_covering(args, report["inputs"])
    _check_dim(cov, args.dim, cov.base.min_dim)
    verdicts = []
    payload = {}
    reports = verify_betti_inequality(cov, [scheme for _, scheme in _schemes(args.scheme)], args.tol)
    for rep in reports:
        for v in rep.per_dim:
            if args.dim is not None and v.dim != args.dim:
                continue
            verdicts.append(
                _verdict(
                    f"betti inequality via harmonic lifting (dim {v.dim}, {rep.scheme})",
                    v.holds,
                    args.tol,
                    v.lift_residual,
                    betti_base=v.betti_base,
                    betti_cover=v.betti_cover,
                )
            )
        payload[rep.scheme] = {str(v.dim): [v.betti_base, v.betti_cover] for v in rep.per_dim}
    report["results"] = payload
    return verdicts


def cmd_fixture(args, report):
    fixture = search_reference_fixture(args.tol)
    if fixture is None:
        report["results"] = {"found": False}
        return [_verdict("reference 2-complex recovered by spectrum search", False, args.tol, None)]
    doc = {
        "found": True,
        "facets": [list(f) for f in fixture.facets],
        "flip": {"face": list(fixture.flip[0]), "cofacet": list(fixture.flip[1])},
        "labeled_matches": fixture.matches,
    }
    llio._save(args.out, doc)
    report["results"] = {**doc, "out": args.out}
    return [
        _verdict(
            "reference 2-complex recovered and companion spectra reproduced",
            True,
            args.tol,
            None,
        )
    ]


# -- argument parsing ----------------------------------------------------------


def _tolerance(text):
    """A comparison tolerance: a finite number of at least 0 (0 is exact)."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number of at least 0, got {text!r}")
    return tol


def _add_cover_inputs(p):
    p.add_argument("--cover", help="covering complex file")
    p.add_argument("--base", required=True, help="base complex file")
    p.add_argument("--map", help="vertex map file (with --cover)")
    p.add_argument("--voltage", help="1-skeleton voltage file (instead of --cover/--map)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="liftlap", description=__doc__)
    ap.add_argument("--seed", type=int, default=0, help="seed for the randomized decomposition")
    ap.add_argument("--tol", type=_tolerance, default=1e-8, help="spectrum comparison tolerance")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="spectrum of a Laplace operator")
    p.add_argument("--complex", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--kind", choices=["up", "down", "full"], default="up")
    p.add_argument("--scheme", choices=sorted(SCHEMES))
    decorations = p.add_mutually_exclusive_group()
    decorations.add_argument("--signing")
    decorations.add_argument("--weighting")
    p.set_defaults(func=cmd_spectrum)

    pc = sub.add_parser("cover", help="build or verify coverings")
    csub = pc.add_subparsers(dest="subcommand", required=True)
    p = csub.add_parser("build", help="derived complex from 1-skeleton voltages")
    p.add_argument("--base", required=True)
    p.add_argument("--voltage", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cover_build)
    p = csub.add_parser("verify", help="check the covering axioms of a vertex map")
    p.add_argument("--cover", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--map", required=True)
    p.set_defaults(func=cmd_cover_verify)

    p = sub.add_parser("decompose", help="block decomposition of a lifted operator")
    _add_cover_inputs(p)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--direction", choices=["up", "down"], default="up")
    p.add_argument("--scheme", choices=sorted(SCHEMES), default="combinatorial")
    p.set_defaults(func=cmd_decompose)

    pv = sub.add_parser("verify", help="verify a spectral or homological claim")
    vsub = pv.add_subparsers(dest="subcommand", required=True)
    for name in list(SPECTRAL_CLAIMS) + ["betti"]:
        p = vsub.add_parser(name)
        _add_cover_inputs(p)
        p.add_argument("--dim", type=int)
        p.add_argument("--scheme", choices=sorted(SCHEMES) + ["both"], default="both")
        p.set_defaults(func=cmd_verify_betti if name == "betti" else cmd_verify_spectral)

    pf = sub.add_parser("fixture", help="fixture recovery oracles")
    fsub = pf.add_subparsers(dest="subcommand", required=True)
    p = fsub.add_parser("search-fig1", help="brute-force search for the reference 2-complex")
    p.add_argument("--out", default="fig1_fixture.json")
    p.set_defaults(func=cmd_fixture)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    report = {
        "command": args.command + (f" {args.subcommand}" if getattr(args, "subcommand", None) else ""),
        "inputs": {},
        "seed": args.seed,
        "results": {},
        "verdicts": [],
    }
    try:
        verdicts = args.func(args, report)
    except MalformedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LiftlapError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
