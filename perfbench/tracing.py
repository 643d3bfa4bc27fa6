"""Spans around the calls into each layer of toralrank, from outside the library.

A layer is a module of the package.  `traced(tracer)` wraps the public
functions listed in LAYERS and rebinds every module attribute that holds
one of them, so calls through a name imported with `from ... import` are
recorded too; on exit every binding is restored.  Each span records its
name, start, end, parent span and the operation it belongs to.  Spans stay
in memory; the caller writes them out once, at the end of the run.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager

from speed import clock

# Public functions wrapped per layer.  Methods are given as "Class.method".
LAYERS = {
    "cli": ("run_pipeline",),
    "sullivan": ("parse_extension",),
    "hirschbrown": (
        "split_Z",
        "seeded_retract",
        "perturb",
        "hb_cohomology_finite",
        "projection_presentations",
        "verify_transfer",
        "hb_homology_dims_by_degree",
    ),
    "groebner": ("finite_length_and_hilbert", "syzygies_of_columns"),
    "resolutions": ("minimal_free_resolution", "check_generator_ratio", "betti_via_koszul"),
    "linalg": ("rref", "rank", "kernel_basis"),
    "diagrams": ("bs_decompose", "BSDecomposition.recompose"),
    "bounds": ("render_table", "trc_audit", "betti_tradeoff_bound"),
}


def _count_cells(counts, args, result):
    rows = args[0]
    counts["linalg.cells"] += len(rows) * (len(rows[0]) if rows else 0)
    counts["linalg.nonzero_cells"] += sum(1 for row in rows for x in row if x)


def _count_betti(counts, args, result):
    counts["resolutions.betti_total"] += sum(m.rank for m in result.free_modules())


def _count_pure_terms(counts, args, result):
    counts["diagrams.pure_terms"] += len(result)


# Counts derived from a call's arguments or result, keyed by span name.
COUNTERS = {
    "linalg.rref": _count_cells,
    "resolutions.minimal_free_resolution": _count_betti,
    "diagrams.bs_decompose": _count_pure_terms,
}


class Tracer:
    """In-memory span recorder for one thread.

    A span is (name, start, end, parent index or -1, op id).
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = 0
        self._stack = []

    def begin_op(self):
        self.op += 1

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Route every call into the LAYERS functions through `tracer` spans."""
    modules = [m for name, m in sys.modules.items() if name == "toralrank" or name.startswith("toralrank.")]
    restore = []
    try:
        for layer, names in LAYERS.items():
            home = sys.modules[f"toralrank.{layer}"]
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(home, owner_name)
                    original = vars(owner)[attr]
                    restore.append((owner, attr, original))
                    setattr(owner, attr, tracer.wrap(f"{layer}.{attr}", original))
                    continue
                original = getattr(home, attr)
                wrapper = tracer.wrap(f"{layer}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            restore.append((module, key, original))
                            setattr(module, key, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def span_metrics(spans, counts, wall):
    """Per-layer numbers of one traced pass that took `wall` seconds.

    `<layer>.self_s` sums the self time (duration minus direct children) of
    the layer's spans; `<span>` totals and call counts only count spans
    with no ancestor of the same name.
    """
    durations = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[i]
    self_by_layer = Counter({layer: 0.0 for layer in LAYERS})
    self_by_name = Counter()
    total_by_name = Counter()
    calls_by_name = Counter()
    covered = 0.0
    for i, (name, _, _, parent, _) in enumerate(spans):
        own = durations[i] - child_time[i]
        self_by_layer[name.partition(".")[0]] += own
        self_by_name[name] += own
        if parent < 0:
            covered += durations[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total_by_name[name] += durations[i]
            calls_by_name[name] += 1

    out = {f"{layer}.self_s": self_by_layer[layer] for layer in LAYERS}
    out.update(
        {
            "sullivan.parse_s": total_by_name["sullivan.parse_extension"],
            "hirschbrown.retract_s": total_by_name["hirschbrown.seeded_retract"],
            "hirschbrown.perturb_s": total_by_name["hirschbrown.perturb"],
            "hirschbrown.finite_s": total_by_name["hirschbrown.hb_cohomology_finite"],
            "hirschbrown.finite_self_s": self_by_name["hirschbrown.hb_cohomology_finite"],
            "hirschbrown.projections_s": total_by_name["hirschbrown.projection_presentations"],
            "hirschbrown.verify_s": total_by_name["hirschbrown.verify_transfer"],
            "hirschbrown.dims_s": total_by_name["hirschbrown.hb_homology_dims_by_degree"],
            "hirschbrown.dims_self_s": self_by_name["hirschbrown.hb_homology_dims_by_degree"],
            "groebner.finite_length_s": total_by_name["groebner.finite_length_and_hilbert"],
            "groebner.finite_length_calls": calls_by_name["groebner.finite_length_and_hilbert"],
            "groebner.syzygies_s": total_by_name["groebner.syzygies_of_columns"],
            "groebner.syzygies_calls": calls_by_name["groebner.syzygies_of_columns"],
            "resolutions.resolve_s": total_by_name["resolutions.minimal_free_resolution"],
            "resolutions.resolve_calls": calls_by_name["resolutions.minimal_free_resolution"],
            "resolutions.ratio_check_s": total_by_name["resolutions.check_generator_ratio"],
            "resolutions.koszul_self_s": self_by_name["resolutions.betti_via_koszul"],
            "resolutions.betti_total": counts["resolutions.betti_total"],
            "linalg.rank_s": total_by_name["linalg.rank"],
            "linalg.rank_calls": calls_by_name["linalg.rank"],
            "linalg.rref_s": total_by_name["linalg.rref"],
            "linalg.rref_calls": calls_by_name["linalg.rref"],
            "linalg.kernel_basis_s": total_by_name["linalg.kernel_basis"],
            "linalg.cells": counts["linalg.cells"],
            "linalg.nonzero_cells": counts["linalg.nonzero_cells"],
            "diagrams.decompose_s": total_by_name["diagrams.bs_decompose"]
            + total_by_name["diagrams.recompose"],
            "diagrams.pure_terms": counts["diagrams.pure_terms"],
            "trace.coverage": covered / wall,
        }
    )
    return {name: float(v) if name.endswith("_s") else v for name, v in out.items()}
