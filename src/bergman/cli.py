"""Configuration-driven pipeline and report emission.

A single JSON config names the weight, truncation orders, h-grid, domains,
and oracle settings.  ``config_from_dict`` reads each field through the
reader of its JSON type (integer, finite number, list or string), checks
the bounds, and builds a ``RunConfig``, the one home of the fields and
their defaults.  ``run`` executes the selected suites in dependency
order, recording per-suite failures without aborting the rest; the
stages share one ``RunState``, which builds the weight, phase, order-N
amplitude and sampled gap once, on first read.  ``emit`` writes the report
as JSON (``report_json``: plain ``json.dumps``, numpy scalars as Python
values, a non-finite value an ``IoError`` naming its path) or CSV tables.
All randomness is seeded from the config, so reports are byte-deterministic.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass

import numpy as np

from .amplitude import Amplitude, estimate_growth, solve_amplitude
from .errors import BergmanError, ConfigInvalid, DegenerateFit, IoError
from .oracle import (QuadratureCase, compare_kernels, fourier_inversion_check,
                     gram_bergman, inequality_suite, localized_element,
                     near_diagonal_pairs, pointwise_bound_check,
                     sp_quadrature_check)
from .phase import PhaseData, build_phase, inversion_margin, verify_contour
from .projector import (FIT_FLOOR, DomainSpec, assemble_kernel, decay_fit, make_domain,
                        projection_table, reproducing_error)
from .quadrature import SOBOL_DIMS
from .series import MAX_DEGREE, TruncatedSeries
from .weight import Weight, quadratic_gap_estimate, validate_weight

SCHEMA_TAG = "bergman-report/1"
SUITES = ("validate", "amplitude", "kernel", "verify")
DEFAULT_H_GRID = (0.2, 0.15, 0.1, 0.07, 0.05)


@dataclass(frozen=True)
class RunConfig:
    name: str
    dimension: int
    coefficients: tuple          # ((exponents, re, im), ...)
    trust_radius: float
    maxdeg: int
    order: int
    radius_u: float
    radius_v: float
    hmax: int = 4
    h_grid: tuple = DEFAULT_H_GRID
    gram_degree: int = 25
    n_radial: int = 64
    n_angular: int = 128
    err_n_radial: int = 24
    err_n_angular: int = 48
    seed: int = 0
    suites: tuple = SUITES
    test_functions: tuple = ((0,), (1,), (2,))

    def to_jsonable(self) -> dict:
        """The config echo: every field as is, coefficients as records."""
        out = asdict(self)
        out["coefficients"] = [{"exponents": list(e), "re": re, "im": im}
                               for e, re, im in self.coefficients]
        return out


_FIELDS = RunConfig.__dataclass_fields__
_DEFAULTS = {k: f.default for k, f in _FIELDS.items()}
_REQUIRED = [k for k, v in _DEFAULTS.items() if v is MISSING]
# The least value of each bounded integer field; maxdeg is bounded by the
# degree budget and the series ring, below.  A grid has at least 4 radial
# nodes (quadrature.radial_nodes), so a smaller count would not be the one run.
_LEAST = {"dimension": 1, "order": 0, "hmax": 1, "n_radial": 4, "n_angular": 1,
          "err_n_radial": 4, "err_n_angular": 1, "seed": 0}
# The most nodes either grid may have, (radial x angular nodes)^dimension.
# Canonical grids have at most 8192; a count far above this bound would
# end in a MemoryError while the grid is built, not in an exit 2.
MAX_GRID_NODES = 2 ** 20


def _typed(value, types, kind: str):
    """value if it is a JSON ``kind``; int() or float() would round 4.7, parse
    "26" and read true as 1, and tuple() would read an object's keys."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(f"not a JSON {kind}")
    return value


def _integer(value) -> int:
    return _typed(value, int, "integer")


def _number(value) -> float:
    x = float(_typed(value, (int, float), "number"))
    if not math.isfinite(x):  # json parses NaN and Infinity; no stage can use them
        raise ValueError("not a finite number")
    return x


def _list(value) -> tuple:
    return tuple(_typed(value, (list, tuple), "list"))


def _string(value) -> str:
    return _typed(value, str, "string")


# The reader of each scalar field, by its annotation in RunConfig (a string,
# as every annotation of this module is).
_SCALAR = {"int": _integer, "float": _number, "str": _string}


def config_from_dict(raw: dict, overrides: dict | None = None) -> RunConfig:
    """Validate a raw config dictionary (plus CLI overrides) into a RunConfig."""
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a JSON object")
    data = {**raw, **{k: v for k, v in (overrides or {}).items() if v is not None}}
    unknown = set(data) - _FIELDS.keys()
    if unknown:
        raise ConfigInvalid(f"unknown config fields: {sorted(unknown)}")
    missing = [k for k in _REQUIRED if k not in data]
    if missing:
        raise ConfigInvalid(f"missing config fields: {missing}")

    def read(key: str, convert):
        """convert(value of key, else of RunConfig's default); a value of the
        wrong type names its field."""
        value = data.get(key, _DEFAULTS[key])
        try:
            return convert(value)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigInvalid(
                f"{key}: cannot read {value!r} ({type(exc).__name__}: {exc})") from exc

    fields = {k: read(k, _SCALAR[f.type]) for k, f in _FIELDS.items() if f.type in _SCALAR}
    for key, least in _LEAST.items():
        if fields[key] < least:
            raise ConfigInvalid(f"{key} must be at least {least}, got {fields[key]}")
    n, maxdeg, order = fields["dimension"], fields["maxdeg"], fields["order"]
    if 4 * n > SOBOL_DIMS:
        raise ConfigInvalid(
            f"dimension {n}: the sampled gap draws 4n = {4 * n} Sobol' dimensions, "
            f"the embedded table has {SOBOL_DIMS}, so dimension <= {SOBOL_DIMS // 4}")
    for pre in ("", "err_"):
        nodes = (fields[pre + "n_radial"] * fields[pre + "n_angular"]) ** n
        if nodes > MAX_GRID_NODES:
            raise ConfigInvalid(f"{pre}n_radial x {pre}n_angular gives a grid of {nodes} "
                                f"nodes in dimension {n}, above {MAX_GRID_NODES}")
    if maxdeg > MAX_DEGREE:
        raise ConfigInvalid(
            f"maxdeg ({maxdeg}) must be at most {MAX_DEGREE}, the series ring's degree bound")
    if maxdeg < 6 * order + 2:
        raise ConfigInvalid(
            f"degree budget violated: maxdeg ({maxdeg}) must be at least "
            f"6N+2 = {6 * order + 2} for amplitude order N = {order}")
    ru, rv, trust = fields["radius_u"], fields["radius_v"], fields["trust_radius"]
    if not (0.0 < ru < rv < trust):
        raise ConfigInvalid(
            f"need 0 < radius_u ({ru}) < radius_v ({rv}) < trust_radius ({trust})")

    def exponents(e, k: int, top=math.inf) -> tuple:
        """k nonnegative integers of total degree at most top."""
        e = _list(e)
        if len(e) != k or any(_integer(i) < 0 for i in e):
            raise ValueError(f"exponents {e} must be {k} nonnegative integers")
        if sum(e) > top:
            raise ValueError(f"{e} has degree {sum(e)}, above the series ring's {top}")
        return e

    def coefficient(c):
        return exponents(c["exponents"], 2 * n), _number(c["re"]), _number(c.get("im", 0.0))

    if n > 1:
        data.setdefault("test_functions", [[0] * n])
    for key, item in (("coefficients", coefficient), ("h_grid", _number), ("suites", _string),
                      ("test_functions", lambda t: exponents(t, n, MAX_DEGREE))):
        fields[key] = read(key, lambda v: tuple(map(item, _list(v))))
    if not fields["h_grid"] or min(fields["h_grid"]) <= 0:
        raise ConfigInvalid("h_grid must be a nonempty list of positive values")
    bad = [s for s in fields["suites"] if s not in SUITES]
    if bad or not fields["suites"]:
        raise ConfigInvalid(f"suites must be a nonempty subset of {SUITES}, got {bad}")
    if not fields["test_functions"]:
        raise ConfigInvalid("test_functions must be a nonempty list")
    return RunConfig(**fields)


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw, overrides)


# ---------------------------------------------------------------------------
# Shared pipeline state


class _shared:
    """A RunState piece built on first read and kept, or the BergmanError its
    build raised, kept and raised again at every later read."""

    def __init__(self, build):
        self.build, self.key = build, f"_built_{build.__name__}"
        self.__doc__ = build.__doc__

    def __get__(self, state, owner=None):
        if state is None:
            return self
        if self.key not in state.__dict__:
            try:
                state.__dict__[self.key] = self.build(state)
            except BergmanError as exc:
                state.__dict__[self.key] = exc
        value = state.__dict__[self.key]
        if isinstance(value, BergmanError):
            raise value
        return value


@dataclass
class RunState:
    """The pieces a run's stages share, each built once on first read: the
    weight, its phase, the order-N amplitude, the sampled gap, the grids and
    the test functions.  A build that raises is kept too, so each stage
    reading it records the error without building again."""

    cfg: RunConfig

    @_shared
    def w(self) -> Weight:
        cfg = self.cfg
        series = TruncatedSeries.from_triples(
            list(cfg.coefficients), 2 * cfg.dimension, cfg.maxdeg)
        return validate_weight(series, cfg.trust_radius)

    @_shared
    def pd(self) -> PhaseData:
        return build_phase(self.w)

    @_shared
    def amp(self) -> Amplitude:
        amp = solve_amplitude(self.pd, self.cfg.order)
        estimate_growth(amp, self.cfg.radius_u, seed=self.cfg.seed)
        return amp

    @_shared
    def gap(self) -> tuple[float, float]:
        """Sampled (cmin, cmax) of the quadratic gap out to half the trust radius."""
        return quadratic_gap_estimate(self.w, 0.5 * self.cfg.trust_radius,
                                      seed=self.cfg.seed)

    @property
    def delta(self) -> float:
        """delta = cmin / 2 of the sampled gap: the one rule every stage uses."""
        return 0.5 * self.gap[0]

    @property
    def margin_radius(self) -> float:
        """Sampling radius of the contour and inequality margins: 0.3 x trust."""
        return 0.3 * self.cfg.trust_radius

    @_shared
    def outer(self) -> DomainSpec:
        cfg = self.cfg
        return make_domain((cfg.radius_v,) * cfg.dimension, cfg.n_radial, cfg.n_angular)

    @_shared
    def inner(self) -> DomainSpec:
        cfg = self.cfg
        return make_domain((cfg.radius_u,) * cfg.dimension, cfg.err_n_radial, cfg.err_n_angular)

    @_shared
    def monomials(self) -> list:
        """The test functions y^t, in config order."""
        return [TruncatedSeries.from_triples([(t, 1.0, 0.0)], self.cfg.dimension, sum(t))
                for t in self.cfg.test_functions]


def _fit_or_floor(pairs) -> dict:
    errs = [e for _, e in pairs]
    if max(errs) < FIT_FLOOR:
        return {"floor": True, "max_error": max(errs)}
    try:
        fit = decay_fit(pairs)
    except DegenerateFit as exc:
        return {"skipped": str(exc)}
    return {"floor": False, "beta": fit.beta, "r2": fit.r2,
            "alpha": fit.alpha, "r2_loglog": fit.r2_loglog}


# ---------------------------------------------------------------------------
# Stages


def stage_validate(state: RunState) -> dict:
    cfg, w, pd = state.cfg, state.w, state.pd
    eigs = [float(v) for v in np.linalg.eigvalsh(w.levi)]
    cmin, cmax = state.gap
    checksum = hashlib.sha256(
        json.dumps(w.series.to_triples(), sort_keys=True).encode()).hexdigest()[:16]
    radius = state.margin_radius
    amp_margin = verify_contour(pd, radius, seed=cfg.seed)
    inv_margin = inversion_margin(w, radius, seed=cfg.seed)
    return {
        "dimension": w.n,
        "levi_eigenvalues": eigs,
        "gap": {"cmin": cmin, "cmax": cmax},
        "delta": state.delta,
        "polarization_checksum": checksum,
        "hessian_determinant": [pd.hess_det.real, pd.hess_det.imag],
        "phase_margins": {"amplitude": amp_margin,
                          "inversion": inv_margin,
                          "radius": radius},
    }


def stage_amplitude(state: RunState) -> dict:
    amp = state.amp
    a0 = amp.coeffs[0].constant_term
    # Orders >= 1 of the expansion vanish by construction of a_1..a_N; the
    # order-zero product c0 * a0 = 1 is the one that can drift.
    unit_defect = (amp.c0 * amp.coeffs[0] - 1).max_abs()
    return {
        "order": amp.order,
        "a0_constant": [a0.real, a0.imag],
        "degrees": [c.maxdeg for c in amp.coeffs],
        "coefficient_sup": [c.max_abs() for c in amp.coeffs],
        "growth_C": amp.growth_C,
        "growth_profile": list(amp.growth_profile),
        "feedback_unit_defect": unit_defect,
    }


def stage_kernel(state: RunState) -> dict:
    amp = state.amp
    cfg, w, pd = state.cfg, state.w, state.pd
    orders = [cfg.order] + ([cfg.order - 1] if cfg.order >= 1 else [])
    amps = {cfg.order: amp}
    for N in orders[1:]:
        amps[N] = solve_amplitude(pd, N)
    degree = max(sum(t) for t in cfg.test_functions)
    measured = {N: [] for N in orders}
    for h in cfg.h_grid:
        # The orders' kernels at one h differ only in the amplitude, so one
        # table build serves all of them and the projections below only
        # read their tables.
        kernels = [assemble_kernel(w, amps[N], h) for N in orders]
        projection_table(kernels, state.outer, state.inner.nodes, degree)
        for N, K in zip(orders, kernels):
            err = max(reproducing_error(K, u, state.inner, state.outer)
                      for u in state.monomials)
            measured[N].append((K.symbol.cutoff, err))
    rows = []
    fits = {}
    for N in orders:
        errs = []
        for h, (cutoff, err) in zip(cfg.h_grid, measured[N]):
            errs.append((h, err))
            beta_running = None
            if len(errs) >= 3:
                try:
                    beta_running = decay_fit(errs).beta
                except BergmanError:
                    beta_running = None
            rows.append({"h": h, "N": N, "cutoff": cutoff, "err_U": err,
                         "beta_running": beta_running})
        fits[str(N)] = _fit_or_floor(errs)
    return {"rows": rows, "fits": fits,
            "test_functions": [list(t) for t in cfg.test_functions]}


def _sp_cases(pd: PhaseData) -> list:
    # each symbol at the phase's slow degree, the most the expansion can use
    deg = pd.slow_deg
    return [QuadratureCase(f"x^{a}yt^{b}",
                           TruncatedSeries.from_triples([((a, b), 1.0, 0.0)], 2, deg))
            for a, b in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2),
                         (2, 2), (3, 2), (3, 3), (4, 4))]


# Verify sections whose oracles exist for n = 1 only.
_N1_ONLY = {
    "gram": "Gram-matrix comparison samples n = 1 near-diagonal pairs only",
    "fourier": "Fourier inversion oracle is n = 1 only",
    "sp_quadrature": "contour quadrature oracle is n = 1 only",
}


def _error_record(exc: BergmanError) -> dict:
    """How a report records a failure: a stage, a verify section or an sp row."""
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def stage_verify(state: RunState) -> dict:
    amp = state.amp
    cfg, w, pd = state.cfg, state.w, state.pd
    out: dict = {}
    n = cfg.dimension

    def gram_section():
        x, y = near_diagonal_pairs(0.3 * cfg.radius_u)
        per_h = []
        for h in cfg.h_grid:
            gk = gram_bergman(w, state.outer, h, cfg.gram_degree)
            st = compare_kernels(assemble_kernel(w, amp, h), gk, x, y)
            per_h.append({"h": h, "max_rel": st.max_rel,
                          "median_rel": st.median_rel, "cond": gk.cond})
        fit = _fit_or_floor([(r["h"], r["max_rel"]) for r in per_h])
        return {"points": len(x), "per_h": per_h, "fit": fit}

    def fourier_section():
        res = {}
        per_u = fourier_inversion_check(w, state.monomials, cfg.radius_v, cfg.h_grid)
        for t, checks in zip(cfg.test_functions, per_u):
            pairs = [(chk.h, chk.residual) for chk in checks]
            res[str(list(t))] = {"residuals": [[h, r] for h, r in pairs],
                                 "fit": _fit_or_floor(pairs)}
        return res

    def pointwise_section():
        res = {}
        for t, u in zip(cfg.test_functions, state.monomials):
            pb = pointwise_bound_check(w, u, state.inner, state.outer, cfg.h_grid)
            res[str(list(t))] = {"ratios": list(pb.ratios), "max": pb.max_ratio}
        return res

    def inequality_section():
        return asdict(inequality_suite(w, state.delta, state.margin_radius, seed=cfg.seed))

    def localized_section():
        h = cfg.h_grid[len(cfg.h_grid) // 2]
        elem = localized_element(w, h, delta=state.delta, seed=cfg.seed)
        return {"h": h, "margin": elem.margin, "delta": elem.delta,
                "domination_C": elem.domination_C}

    def sp_row(case, h):
        try:
            r = sp_quadrature_check(pd, case, h, hmax=cfg.hmax)
        except BergmanError as exc:
            return {"name": case.name, "h": h, **_error_record(exc)}
        return {"name": r.name, "h": r.h, "error": r.error, "next_term": r.next_term,
                "order_used": r.order_used, "terminating": r.terminating, "ok": r.ok}

    def sp_section():
        # h outer, so that each h's contour is built once; rows stay case by case
        cases = _sp_cases(pd)
        by_h = [[sp_row(case, h) for case in cases] for h in cfg.h_grid]
        rows = [row for per_case in zip(*by_h) for row in per_case]
        # a row that records an error has no "ok" and counts as failed
        return {"cases": rows, "all_ok": all(row.get("ok", False) for row in rows)}

    sections = (("gram", gram_section), ("fourier", fourier_section),
                ("pointwise", pointwise_section), ("inequalities", inequality_section),
                ("localized", localized_section), ("sp_quadrature", sp_section))
    for key, fn in sections:
        if n > 1 and key in _N1_ONLY:
            out[key] = {"skipped": _N1_ONLY[key]}
            continue
        try:
            out[key] = fn()
        except BergmanError as exc:
            out[key] = _error_record(exc)
    return out


_STAGES = {
    "validate": stage_validate,
    "amplitude": stage_amplitude,
    "kernel": stage_kernel,
    "verify": stage_verify,
}


def run(cfg: RunConfig) -> dict:
    """Execute the selected suites; per-suite failures land in the report."""
    report = {"schema": SCHEMA_TAG, "config": cfg.to_jsonable(), "stages": {}}
    state = RunState(cfg)
    for suite in SUITES:
        if suite not in cfg.suites:
            continue
        try:
            report["stages"][suite] = _STAGES[suite](state)
        except BergmanError as exc:
            report["stages"][suite] = _error_record(exc)
    return report


# ---------------------------------------------------------------------------
# Emission


def _plain(obj):
    """The Python value of a numpy scalar; json.dumps calls it for any type it lacks."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise IoError(f"cannot serialize {type(obj).__name__} in a report")


def _nonfinite(obj, path="report"):
    """The path of the first NaN or infinity in obj, or None."""
    if isinstance(obj, dict):
        return next(filter(None, (_nonfinite(v, f"{path}.{k}") for k, v in obj.items())), None)
    if isinstance(obj, (list, tuple)):
        return next(filter(None, (_nonfinite(v, f"{path}[{i}]") for i, v in enumerate(obj))), None)
    return path if isinstance(obj, (float, np.floating)) and not math.isfinite(obj) else None


def report_json(report: dict) -> str:
    try:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False, default=_plain) + "\n"
    except ValueError as exc:  # allow_nan=False does not say where the value sits
        raise IoError(f"non-finite value at {_nonfinite(report)}") from exc


def report_csv(report: dict) -> str:
    rows = report.get("stages", {}).get("kernel", {}).get("rows", [])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["h", "N", "err_U", "beta_running"])
    for r in rows:
        beta = "" if r.get("beta_running") is None else repr(float(r["beta_running"]))
        writer.writerow([repr(float(r["h"])), int(r["N"]),
                         repr(float(r["err_U"])), beta])
    return buf.getvalue()


def render(report: dict, fmt: str = "json") -> tuple[str, str]:
    """(file name, text) of the report: the JSON report, or the CSV error table."""
    if fmt == "json":
        return "report.json", report_json(report)
    if fmt == "csv":
        return "errors.csv", report_csv(report)
    raise ConfigInvalid(f"unknown format {fmt!r}; use json or csv")


def emit(report: dict, out_dir: str, fmt: str = "json") -> list:
    """Write the report under out_dir; returns the paths written."""
    import os
    name, text = render(report, fmt)
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write report under {out_dir}: {exc}") from exc
    return [path]


# ---------------------------------------------------------------------------
# Entry point


def _reported_errors(report: dict) -> list:
    """Names of the stages, and of the verify sections, that hold an error.

    Per-row errors inside a section (sp_quadrature cases) stay in the body.
    """
    stages = report["stages"]
    names = [name for name, stage in stages.items() if "error" in stage]
    verify = stages.get("verify", {})
    if "error" not in verify:
        names += [f"verify.{key}" for key, sec in verify.items() if "error" in sec]
    return names


def _parse_args(argv):
    ap = argparse.ArgumentParser(
        prog="bergman",
        description="Asymptotic Bergman kernels in weighted spaces: "
                    "pipeline runner and oracle suites.")
    ap.add_argument("command", choices=[*SUITES, "report"])
    ap.add_argument("--config", required=True, help="path to a JSON run config")
    ap.add_argument("--h-grid", help="comma-separated override, e.g. 0.2,0.1,0.05")
    ap.add_argument("--order", type=int, help="amplitude truncation order override")
    ap.add_argument("--out", help="output directory; prints to stdout if omitted")
    ap.add_argument("--format", choices=["json", "csv"], default="json")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    suites = SUITES if args.command == "report" else (args.command,)
    overrides: dict = {"suites": list(suites), "order": args.order}
    try:
        if args.h_grid:
            try:  # config_from_dict checks each value like any h_grid entry
                overrides["h_grid"] = [float(tok) for tok in args.h_grid.split(",") if tok]
            except ValueError as exc:
                raise ConfigInvalid(f"h_grid: cannot read {args.h_grid!r} ({exc})") from exc
        cfg = load_config(args.config, overrides)
        report = run(cfg)
        if args.out:
            for p in emit(report, args.out, args.format):
                print(p)
        else:
            sys.stdout.write(render(report, args.format)[1])
    except BergmanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = _reported_errors(report)
    if failed:
        print(f"error: the report records errors in {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
