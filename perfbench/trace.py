"""Spans around liftlap's public functions, installed from outside the library.

:class:`Tracer` replaces every public module-level function of the
layers below at every binding that refers to it (``liftlap.cli.spectrum``,
``liftlap.homology.laplacian_matrix``, ``liftlap.reference_fixture.integer_rank``,
the package re-exports, ...), so a call through any module is recorded.
Private helpers, methods, the ``perms`` module and the per-face helpers
in :data:`PER_FACE` are not wrapped: their time lands in the self time of
the wrapped caller.

A span is ``(id, parent id, function, start, end)``.  A span's self time
is its duration minus the durations of its direct child spans; nesting is
exact because the program is single-threaded.  Counts come from the
shapes of arguments and results at the same boundaries, so they repeat
exactly from one pass to the next.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "cli",
    "io",
    "complexes",
    "covering",
    "operators",
    "representation",
    "homology",
    "reference_fixture",
)

# called once per face (hundreds of thousands of times in a pass): a span
# each would cost more than the call and bury the callers' self times
PER_FACE = {"complexes.as_face", "complexes.boundary_faces", "complexes.relative_orientation_sign"}

# metric -> the functions whose self time it sums ("cli.main_s" is inclusive)
TIME_METRICS = {
    "io.load_s": (
        "io.load_complex",
        "io.load_edge_voltages",
        "io.load_vertex_map",
        "io.load_incidence_voltages",
        "io.load_signing",
        "io.load_weighting",
        "io.parse_weight_scheme",
    ),
    "io.save_s": (
        "io.save_complex",
        "io.complex_to_dict",
        "io.edge_voltages_to_dict",
        "io.signing_to_dict",
        "io.vertex_map_to_dict",
    ),
    "complexes.build_complex_s": ("complexes.build_complex",),
    "complexes.coboundary_s": ("complexes.coboundary_matrix",),
    "complexes.weights_s": ("complexes.compute_weights", "complexes.weight_vector"),
    "covering.derived_complex_s": ("covering.derived_complex",),
    "covering.verify_covering_s": ("covering.verify_covering",),
    "covering.induced_voltage_s": ("covering.induced_incidence_voltage",),
    "operators.laplacian_s": ("operators.laplacian_matrix",),
    "operators.decorated_coboundary_s": ("operators.decorated_coboundary",),
    "operators.spectrum_s": ("operators.spectrum",),
    "operators.compare_s": ("operators.compare_spectra",),
    "representation.voltage_group_s": ("representation.voltage_group",),
    "representation.decompose_s": ("representation.decompose_representation",),
    "representation.block_laplacians_s": ("representation.block_laplacians",),
    "representation.abelian_weightings_s": ("representation.abelian_weightings",),
    "homology.betti_s": ("homology.betti_numbers",),
    "homology.integer_rank_s": ("homology.integer_rank",),
    "homology.lift_s": ("homology.lift_cochain",),
    "reference_fixture.search_s": ("reference_fixture.search_base_complexes",),
    "reference_fixture.locate_flip_s": ("reference_fixture.locate_flip",),
}

COUNT_METRICS = (
    "complexes.build_complex_calls",
    "complexes.coboundary_calls",
    "complexes.coboundary_entries",
    "covering.induced_voltage_calls",
    "covering.cover_faces",
    "operators.laplacian_calls",
    "operators.spectrum_calls",
    "operators.eig_n_max",
    "operators.eig_flops_computed",
    "representation.block_count",
    "representation.block_n_max",
    "representation.group_order_max",
    "homology.integer_rank_calls",
    "homology.integer_rank_entries",
    "reference_fixture.candidates",
    "io.bytes_read",
    "io.bytes_written",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# functions whose calls update a count (besides every io.load_*)
_COUNTED = {
    "complexes.build_complex",
    "complexes.coboundary_matrix",
    "covering.induced_incidence_voltage",
    "covering.derived_complex",
    "operators.laplacian_matrix",
    "operators.spectrum",
    "representation.block_laplacians",
    "representation.voltage_group",
    "homology.integer_rank",
    "reference_fixture.search_base_complexes",
    "io.save_complex",
}


def _count(counts, name, args, kwargs, result):
    """Update the counts recorded at the boundary of ``name``."""
    if name == "complexes.build_complex":
        counts["complexes.build_complex_calls"] += 1
    elif name == "complexes.coboundary_matrix":
        counts["complexes.coboundary_calls"] += 1
        counts["complexes.coboundary_entries"] += int(result.size)
    elif name == "covering.induced_incidence_voltage":
        counts["covering.induced_voltage_calls"] += 1
    elif name == "covering.derived_complex":
        K = result.complex
        counts["covering.cover_faces"] += sum(K.face_count(d) for d in range(K.top_dim + 1))
    elif name == "operators.laplacian_matrix":
        counts["operators.laplacian_calls"] += 1
    elif name == "operators.spectrum":
        n = _arg(args, kwargs, 0, "op").size
        counts["operators.spectrum_calls"] += 1
        counts["operators.eig_n_max"] = max(counts["operators.eig_n_max"], n)
        counts["operators.eig_flops_computed"] += n**3
    elif name == "representation.block_laplacians":
        counts["representation.block_count"] += len(result)
        top = max(b.size for b in result)
        counts["representation.block_n_max"] = max(counts["representation.block_n_max"], top)
    elif name == "representation.voltage_group":
        top = max(counts["representation.group_order_max"], result.order)
        counts["representation.group_order_max"] = top
    elif name == "homology.integer_rank":
        counts["homology.integer_rank_calls"] += 1
        counts["homology.integer_rank_entries"] += int(np.size(_arg(args, kwargs, 0, "matrix")))
    elif name == "reference_fixture.search_base_complexes":
        counts["reference_fixture.candidates"] += len(result)
    elif name.startswith("io.load_"):
        counts["io.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
    elif name == "io.save_complex":
        counts["io.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


class Tracer:
    """Records spans while installed; :meth:`pass_metrics` summarizes them."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.counts = defaultdict(int)
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"liftlap.{layer}")
            for attr, obj in vars(module).items():
                public = not attr.startswith("_") and f"{layer}.{attr}" not in PER_FACE
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and public:
                    self.names.append(f"{layer}.{attr}")
                    wrappers[obj] = self._wrap(len(self.names) - 1, obj)
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "liftlap"]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def remove(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _wrap(self, fid: int, fn):
        name = self.names[fid]
        stack, spans, counts, clock = self._stack, self.spans, self.counts, time.perf_counter
        counted = name in _COUNTED or name.startswith("io.load_")

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans.append((sid, parent[0] if parent else -1, fid, start, end, end - start - frame[1]))
            if counted:
                _count(counts, name, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def pass_metrics(self, first_span: int) -> tuple[dict, dict]:
        """Times and counts of the spans recorded since ``first_span``.

        Call between passes, then :meth:`reset_counts`.
        """
        self_by_fn = defaultdict(float)
        main_total = 0.0
        main_fid = self.names.index("cli.main")
        for _, parent, fid, start, end, own in self.spans[first_span:]:
            self_by_fn[self.names[fid]] += own
            if fid == main_fid and parent == -1:
                main_total += end - start
        times = {"cli.main_s": main_total}
        for metric, fns in TIME_METRICS.items():
            times[metric] = sum(self_by_fn[f] for f in fns)
        for layer in LAYERS:
            times[f"{layer}.self_s"] = sum(t for f, t in self_by_fn.items() if f.split(".")[0] == layer)
        counts = {metric: self.counts[metric] for metric in COUNT_METRICS}
        counts["trace.spans"] = len(self.spans) - first_span
        return times, counts

    def reset_counts(self) -> None:
        self.counts.clear()

    def write(self, path) -> None:
        """All spans as JSON lines, with the function name resolved."""
        with open(path, "w") as fh:
            for sid, parent, fid, start, end, own in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "fn": self.names[fid], "start": start, "end": end, "self": own}
                    )
                    + "\n"
                )
