"""Correctness checks on reports, independent of the engine's internals.

Each check reads only the serialized report and the generated config, and
compares against closed forms or against properties the paper guarantees.
``check_report`` returns a list of problems; an empty list means correct.
``operations`` counts report sections and rows, and the ones carrying an
``error`` object, so known failures are counted rather than hidden.
"""

from __future__ import annotations

import math

from workloads import a0_closed_form

SCHEMA_TAG = "bergman-report/1"
A0_RTOL = 1e-12
UNIT_DEFECT_MAX = 1e-10
MARGIN_MIN = 1e-3
# Sampled contour, inequality and localization margins (acceptance criterion 6).
MARGINS = ("validate.phase_margins.amplitude", "validate.phase_margins.inversion",
           "verify.inequalities.theta_margin", "verify.inequalities.gz_margin",
           "verify.localized.margin")


def _is_error(node) -> bool:
    return isinstance(node, dict) and isinstance(node.get("error"), dict)


def _non_finite(node, path="report"):
    if isinstance(node, float) and not math.isfinite(node):
        yield path
    elif isinstance(node, dict):
        for key, val in node.items():
            yield from _non_finite(val, f"{path}.{key}")
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _non_finite(val, f"{path}[{i}]")


def operations(report: dict) -> tuple:
    """(attempted, error types of the failed): every stage, verify section, row."""
    attempted, failed = 0, []

    def count(node):
        nonlocal attempted
        attempted += 1
        if _is_error(node):
            failed.append(node["error"]["type"])

    def rows(node):
        if isinstance(node, dict):
            for val in node.values():
                rows(val)
        elif isinstance(node, list):
            for val in node:
                if isinstance(val, dict):
                    count(val)
                rows(val)

    for name, stage in report.get("stages", {}).items():
        count(stage)
        if name == "verify" and not _is_error(stage):
            for section in stage.values():
                count(section)
        rows(stage)
    return attempted, failed


def check_report(report: dict, cfg: dict) -> list:
    name = cfg["name"]
    problems = []
    if report.get("schema") != SCHEMA_TAG:
        problems.append(f"{name}: schema tag {report.get('schema')!r}")
    stages = report.get("stages", {})
    for suite in cfg["suites"]:
        if suite not in stages:
            problems.append(f"{name}: stage {suite} missing")
        elif _is_error(stages[suite]):
            problems.append(f"{name}: stage {suite} failed: {stages[suite]['error']}")
    problems += [f"{name}: non-finite value at {p}" for p in _non_finite(report)]
    if problems:
        return problems

    amp = stages.get("amplitude")
    if amp is not None:
        want = a0_closed_form(cfg)
        re, im = amp["a0_constant"]
        if abs(re - want) > A0_RTOL * abs(want) or abs(im) > A0_RTOL * abs(want):
            problems.append(f"{name}: a0(0) = {re}+{im}i, closed form {want}")
        if not amp["feedback_unit_defect"] < UNIT_DEFECT_MAX:
            problems.append(f"{name}: feedback_unit_defect "
                            f"{amp['feedback_unit_defect']} >= {UNIT_DEFECT_MAX}")

    kernel = stages.get("kernel")
    if kernel is not None:
        by_order: dict = {}
        for row in kernel["rows"]:
            by_order.setdefault(row["N"], []).append((row["h"], row["err_U"]))
        for order, pairs in sorted(by_order.items()):
            errs = [e for _, e in sorted(pairs, reverse=True)]
            if not all(a > b for a, b in zip(errs, errs[1:])):
                problems.append(f"{name}: err_U for N = {order} does not decrease "
                                f"as h shrinks: {errs}")

    if "verify" in stages:
        for path in MARGINS:
            node = stages
            for key in path.split("."):
                node = node.get(key) if isinstance(node, dict) else None
            if not (isinstance(node, float) and node > MARGIN_MIN):
                problems.append(f"{name}: margin {path} = {node}, need > {MARGIN_MIN}")
    return problems
