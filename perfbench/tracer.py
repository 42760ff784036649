"""Outside-in tracer for the bergman package.

The package has no tracing of its own, so this module wraps its public
functions from outside.  Each wrapped call records a span (name, start,
end, parent span) and, where the layer has a natural unit of work, a count
computed from the call's arguments or result.  Spans stay in memory until
``write`` saves them.

A function is replaced at every place it is looked up, not only where it is
defined: ``bergman.cli`` binds names with ``from .x import y`` and keeps the
stage functions in a dict, and class attributes such as ``__rmul__`` alias
other methods.  ``install`` therefore scans every loaded ``bergman`` module
for the original object, in module globals, in dicts held by module
globals, and in the attributes of classes those modules define.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np


def _mul_terms(args, kwargs, out):
    return len(out.coeffs)


def _bilinear_pairs(args, kwargs, out):
    return int(np.size(args[1]) * np.size(args[2]))


def _grid_points(args, kwargs, out):
    pts = np.asarray(args[1])
    return int(pts.shape[0]) if pts.ndim else 1


def _kernel_evals(args, kwargs, out):
    # apply_projection(K, u, w, dom, eval_pts, tol=None): one kernel value per
    # (evaluation point, quadrature node); with tol the doubled grid (2x radial
    # and 2x angular nodes per dimension) is evaluated as well.
    K, dom = args[0], args[3]
    eval_pts = args[4] if len(args) > 4 else kwargs["eval_pts"]
    tol = args[5] if len(args) > 5 else kwargs.get("tol")
    points = np.size(eval_pts) // K.n
    nodes = dom.nodes.shape[0]
    if tol is not None:
        nodes += nodes * 4 ** K.n
    return int(points * nodes)


def _basis_size(args, kwargs, out):
    return len(out.basis)


# (span name, module, attribute path, (count name, counter) or None)
TARGETS = (
    ("series.mul", "bergman.series", "TruncatedSeries.__mul__",
     ("terms_out", _mul_terms)),
    ("series.substitute", "bergman.series", "TruncatedSeries.substitute", None),
    ("series.filter", "bergman.series", "TruncatedSeries.filter", None),
    ("series.eval_bilinear", "bergman.series", "TruncatedSeries.eval_bilinear",
     ("pairs", _bilinear_pairs)),
    ("series.eval_grid", "bergman.series", "TruncatedSeries.eval_grid",
     ("points", _grid_points)),
    ("amplitude.solve_amplitude", "bergman.amplitude", "solve_amplitude", None),
    ("amplitude.term_apply", "bergman.amplitude", "ExpansionTermOps.apply", None),
    ("amplitude.formal_expansion", "bergman.amplitude", "formal_expansion", None),
    ("amplitude.estimate_growth", "bergman.amplitude", "estimate_growth", None),
    ("amplitude.realize", "bergman.amplitude", "realize", None),
    ("projector.apply_projection", "bergman.projector", "apply_projection",
     ("kernel_evals", _kernel_evals)),
    ("projector.reproducing_error", "bergman.projector", "reproducing_error", None),
    ("projector.assemble_kernel", "bergman.projector", "assemble_kernel", None),
    ("oracle.sp_quadrature_check", "bergman.oracle", "sp_quadrature_check", None),
    ("oracle.gram_bergman", "bergman.oracle", "gram_bergman",
     ("basis_size", _basis_size)),
    ("oracle.fourier_inversion_check", "bergman.oracle", "fourier_inversion_check",
     None),
    ("oracle.compare_kernels", "bergman.oracle", "compare_kernels", None),
    ("oracle.inequality_suite", "bergman.oracle", "inequality_suite", None),
    ("oracle.localized_element", "bergman.oracle", "localized_element", None),
    ("oracle.pointwise_bound_check", "bergman.oracle", "pointwise_bound_check", None),
    ("weight.validate_weight", "bergman.weight", "validate_weight", None),
    ("weight.polarize", "bergman.weight", "polarize", None),
    ("weight.quadratic_gap_estimate", "bergman.weight", "quadratic_gap_estimate",
     None),
    ("phase.build_phase", "bergman.phase", "build_phase", None),
    ("phase.verify_contour", "bergman.phase", "verify_contour", None),
    ("cli.stage.validate", "bergman.cli", "stage_validate", None),
    ("cli.stage.amplitude", "bergman.cli", "stage_amplitude", None),
    ("cli.stage.kernel", "bergman.cli", "stage_kernel", None),
    ("cli.stage.verify", "bergman.cli", "stage_verify", None),
    ("cli.report_json", "bergman.cli", "report_json", None),
)


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _bergman_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bergman" or name.startswith("bergman."))]


class Tracer:
    """Span recorder; ``install`` wraps TARGETS, ``uninstall`` restores them."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []     # [name index, start, end, parent span or -1]
        self.counts: dict = {}    # span name -> {count name: total}
        self._stack: list = []
        self._undo: list = []     # (setter, key, original)
        self.missing: list = []

    def _register(self, name: str, count) -> int:
        self.names.append(name)
        self.counts[name] = {} if count is None else {count[0]: 0}
        return len(self.names) - 1

    def _wrap(self, name: str, fn, count):
        idx = self._register(name, count)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts[name]
        if count is not None:
            key, counter = count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [idx, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                counts[key] += counter(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target wherever it is bound.

        A target the package no longer has is listed in ``missing`` and
        reports zero calls, so that a refactor does not stop the traced run.
        """
        for name, module, path, count in TARGETS:
            try:
                orig = _resolve(module, path)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{path}")
                self._register(name, count)
                continue
            wrapped = self._wrap(name, orig, count)
            for mod in _bergman_modules():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapped, orig)
                    elif isinstance(val, dict):
                        for dkey, dval in list(val.items()):
                            if dval is orig:
                                val[dkey] = wrapped
                                self._undo.append((val.__setitem__, dkey, orig))
                    elif isinstance(val, type) and val.__module__ == mod.__name__:
                        for ckey, cval in list(vars(val).items()):
                            if cval is orig:
                                self._patch(val, ckey, wrapped, orig)

    def _patch(self, owner, key, wrapped, orig):
        setattr(owner, key, wrapped)
        self._undo.append((functools.partial(setattr, owner), key, orig))

    def uninstall(self) -> None:
        while self._undo:
            setter, key, orig = self._undo.pop()
            setter(key, orig)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, counts.

        Inclusive time counts only spans with no ancestor of the same name;
        self time is a span's duration minus the durations of its children.
        """
        child = [0.0] * len(self.spans)
        for name_idx, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, **self.counts[name]}
               for name in self.names}
        for i, (name_idx, start, end, parent) in enumerate(self.spans):
            row = out[self.names[name_idx]]
            row["calls"] += 1
            row["self_s"] += end - start - child[i]
            while parent >= 0 and self.spans[parent][0] != name_idx:
                parent = self.spans[parent][3]
            if parent < 0:
                row["s"] += end - start
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": self.counts}, fh)
