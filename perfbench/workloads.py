"""The benchmark's workloads: seeded case lists with their output checks.

Each workload is a list of CLI invocations on generated files.  Why each
workload exists:

* ``spectral`` - the four spectral claims.  Dense Laplacian assembly and
  the eigensolve (``operators``) plus block Laplacians
  (``representation``) do almost all the work; exact rank does none.
* ``betti`` - the Betti inequality.  ``homology.integer_rank`` dominates
  here and nowhere else.
* ``fixture`` - the reference-complex search: the same ``homology`` and
  ``operators`` code on thousands of tiny matrices, a per-call-overhead
  regime.  It has no seed-dependent input.
* ``construct`` - ``cover build`` then ``cover verify`` on large covers:
  ``covering``, ``io`` and ``complexes`` do the work, and it writes files
  as well as reading them.

A case's check returns a list of problems (empty when the output is
right); its digest keeps only the claims, the ``holds`` flags and the
integer results, never the float spectra, so two runs of one seed must
agree on it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import inputs

WORKLOADS = ("spectral", "betti", "fixture", "construct")

REFERENCE_FACETS = [[0, 1, 2], [0, 1, 3], [0, 2, 4], [0, 3, 5], [2, 3, 4], [3, 4, 5]]
REFERENCE_FLIP = {"face": [0, 2], "cofacet": [0, 1, 2]}
REFERENCE_CANDIDATES = 420


@dataclass
class Case:
    """One CLI invocation and what its report must contain."""

    label: str
    command: str
    argv: list
    inputs: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


@dataclass
class _Cover:
    """A generated base complex with the seam voltages of one cover."""

    punctured: bool
    k: int
    base: Path
    voltage: Path
    hashes: dict
    group_order: int
    face_counts: dict


def _make_cover(workdir: Path, tag: str, n: int, punctured: bool, pair) -> _Cover:
    facets = inputs.torus_facets(n, punctured)
    base = workdir / f"{tag}_base.json"
    voltage = workdir / f"{tag}_voltage.json"
    hashes = {
        base.name: inputs.write_json(base, inputs.complex_doc(facets)),
        voltage.name: inputs.write_json(voltage, inputs.seam_voltages(n, facets, *pair)),
    }
    k = len(pair[0])
    vertices = n * n
    edges = 3 * n * n - (1 if punctured else 0)
    triangles = 2 * n * n - (2 if punctured else 0)
    counts = {"-1": 1, "0": k * vertices, "1": k * edges, "2": k * triangles}
    order = len(inputs.group_closure(list(pair)))
    return _Cover(punctured, k, base, voltage, hashes, order, counts)


def _reduced_betti(cover: _Cover, lifted: bool) -> dict:
    """Reduced Betti numbers of the torus (0, 2, 1) or its k-fold covers;
    the punctured torus is a wedge of two circles, so a connected k-fold
    cover has b1 = k + 1 and b2 = 0."""
    if not cover.punctured:
        return {"-1": 0, "0": 0, "1": 2, "2": 1}
    k = cover.k if lifted else 1
    return {"-1": 0, "0": 0, "1": k + 1, "2": 0}


def _cover_case(label, command, argv, cover: _Cover, seed: int, **expect) -> Case:
    full = ["--seed", str(seed)] + argv + ["--base", str(cover.base), "--voltage", str(cover.voltage)]
    return Case(label, command, full, dict(cover.hashes), {"k": cover.k, **expect})


def build_cases(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Case]:
    """Generate the input files of ``workload`` under ``workdir``.

    ``tiny`` shrinks every torus to 4 x 4 for the self-test; the fixture
    search has no size to shrink.
    """
    rng = np.random.default_rng(seed)

    def size(n):
        return 4 if tiny else n

    if workload == "spectral":
        union = _make_cover(workdir, "union", size(10), False, inputs.cyclic_pair(rng, 2))
        abelian = _make_cover(workdir, "abelian", size(10), False, inputs.cyclic_pair(rng, 3))
        inclusion = _make_cover(workdir, "inclusion", size(10), True, inputs.full_symmetric_pair(rng, 4))
        decompose = _make_cover(workdir, "decompose", size(12), True, inputs.full_symmetric_pair(rng, 4))
        return [
            _cover_case("union Z2 torus", "union", ["verify", "union"], union, seed),
            _cover_case("abelian Z3 torus", "abelian", ["verify", "abelian"], abelian, seed, degree=3),
            _cover_case("inclusion S4 punctured", "inclusion", ["verify", "inclusion"], inclusion, seed, degree=4),
            _cover_case(
                "decompose S4 punctured",
                "decompose",
                ["decompose", "--dim", "1"],
                decompose,
                seed,
                group_order=decompose.group_order,
                block_sizes=[1, decompose.k - 1],
            ),
        ]
    if workload == "betti":
        out = []
        for tag, n, punctured, pair in (
            ("betti_torus", size(7), False, inputs.cyclic_pair(rng, 2)),
            ("betti_punctured", size(6), True, inputs.full_symmetric_pair(rng, 3)),
        ):
            cover = _make_cover(workdir, tag, n, punctured, pair)
            betti = {
                d: [_reduced_betti(cover, False)[d], _reduced_betti(cover, True)[d]]
                for d in ("-1", "0", "1", "2")
            }
            out.append(_cover_case(tag.replace("_", " "), "betti", ["verify", "betti"], cover, seed, betti=betti))
        return out
    if workload == "fixture":
        argv = ["fixture", "search-fig1", "--out", str(workdir / "fig1_fixture.json")]
        return [Case("fixture search", "fixture", argv)]
    if workload == "construct":
        out = []
        for tag, n, punctured, pair in (
            ("cyclic", size(32), False, inputs.cyclic_pair(rng, 4)),
            ("symmetric", size(24), True, inputs.full_symmetric_pair(rng, 5)),
        ):
            cover = _make_cover(workdir, tag, n, punctured, pair)
            k = cover.k
            built = workdir / f"{tag}_cover.json"
            vmap = workdir / f"{tag}_map.json"
            vertex_map = [[v * k + j, v] for v in range(n * n) for j in range(k)]
            map_hash = inputs.write_json(vmap, {"vertex_map": vertex_map})
            build_argv = ["cover", "build", "--base", str(cover.base), "--voltage", str(cover.voltage), "--out", str(built)]
            verify_argv = ["cover", "verify", "--cover", str(built), "--base", str(cover.base), "--map", str(vmap)]
            out.append(
                Case(
                    f"build {tag}",
                    "cover_build",
                    build_argv,
                    dict(cover.hashes),
                    {"k": k, "face_counts": cover.face_counts, "vertex_map": vertex_map},
                )
            )
            # the cover file is written by the build case of the same pass
            verify_inputs = {cover.base.name: cover.hashes[cover.base.name], vmap.name: map_hash}
            out.append(Case(f"verify {tag}", "cover_verify", verify_argv, verify_inputs, {"k": k, "degree": k}))
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def check(case: Case, rc: int, report: dict | None) -> list[str]:
    """Problems with one case's output; empty when it is correct."""
    if rc != 0:
        return [f"{case.label}: exit code {rc}"]
    if report is None:
        return [f"{case.label}: no JSON report on stdout"]
    problems = []
    verdicts = report.get("verdicts", [])
    if not verdicts:
        problems.append("no verdicts")
    problems += [f"verdict fails: {v['claim']}" for v in verdicts if not v["holds"]]
    read = report.get("inputs", {})
    seen = {Path(a).name: h for a, h in _hashed_args(case.argv, read)}
    for name, digest in case.inputs.items():
        if seen.get(name, digest) != digest:
            problems.append(f"input hash of {name} differs from the generated file")
    results = report.get("results", {})
    exp = case.expect
    if case.command in ("abelian", "inclusion", "cover_verify") and results.get("degree") != exp["degree"]:
        problems.append(f"degree {results.get('degree')} != {exp['degree']}")
    if case.command == "decompose":
        if results.get("group_order") != exp["group_order"]:
            problems.append(f"group order {results.get('group_order')} != {exp['group_order']}")
        if results.get("block_sizes") != exp["block_sizes"]:
            problems.append(f"block sizes {results.get('block_sizes')} != {exp['block_sizes']}")
    if case.command == "betti":
        for scheme in ("combinatorial", "normalized"):
            if results.get(scheme) != exp["betti"]:
                problems.append(f"{scheme} Betti numbers {results.get(scheme)} != {exp['betti']}")
    if case.command == "fixture":
        if results.get("facets") != REFERENCE_FACETS:
            problems.append(f"fixture facets {results.get('facets')}")
        if results.get("flip") != REFERENCE_FLIP:
            problems.append(f"fixture flip {results.get('flip')}")
        if results.get("labeled_matches") != REFERENCE_CANDIDATES:
            problems.append(f"fixture candidates {results.get('labeled_matches')}")
    if case.command == "cover_build":
        if results.get("fold") != exp["k"] or not results.get("connected"):
            problems.append("cover is not a connected cover of the generated fold")
        if results.get("face_counts") != exp["face_counts"]:
            problems.append(f"face counts {results.get('face_counts')} != {exp['face_counts']}")
        if results.get("vertex_map") != exp["vertex_map"]:
            problems.append("vertex map differs from the sheet encoding v * k + j")
    return [f"{case.label}: {p}" for p in problems]


def _hashed_args(argv, read: dict):
    """(path, hash) for each file flag whose hash the report recorded."""
    for flag in ("--base", "--voltage", "--cover", "--map"):
        if flag in argv and flag[2:] in read:
            yield argv[argv.index(flag) + 1], read[flag[2:]]


def digest_view(case: Case, report: dict | None):
    """The exact part of a report: claims, holds flags and integer results."""
    if report is None:
        return [case.label, None]
    verdicts = [
        [v["claim"], v["holds"], {key: val for key, val in v.items() if isinstance(val, int) and key != "holds"}]
        for v in report.get("verdicts", [])
    ]
    return [case.label, verdicts, _exact(report.get("results", {}))]


def _exact(obj):
    """Drop floats and output paths, recursively."""
    if isinstance(obj, dict):
        kept = {key: _exact(val) for key, val in obj.items() if key != "out"}
        return {key: val for key, val in kept.items() if val is not _DROP}
    if isinstance(obj, list):
        kept = [_exact(v) for v in obj]
        return _DROP if any(v is _DROP for v in kept) else kept
    if isinstance(obj, float):
        return _DROP
    return obj


_DROP = object()
