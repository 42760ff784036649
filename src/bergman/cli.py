"""Configuration-driven pipeline and report emission.

A single JSON config names the weight, truncation orders, h-grid, domains,
and oracle settings.  ``run`` executes the selected suites in dependency
order, recording per-suite failures without aborting the rest; ``emit``
writes the report as JSON or CSV tables.  All randomness is seeded from the
config, so reports are byte-deterministic.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .amplitude import estimate_growth, solve_amplitude
from .errors import BergmanError, ConfigInvalid, IoError
from .oracle import (QuadratureCase, compare_kernels, fourier_inversion_check,
                     gram_bergman, inequality_suite, localized_element,
                     near_diagonal_pairs, pointwise_bound_check,
                     sp_quadrature_check)
from .phase import build_good_contour, build_phase, inversion_margin, verify_contour
from .projector import (FIT_FLOOR, assemble_kernel, decay_fit, make_domain,
                        reproducing_error)
from .series import TruncatedSeries
from .weight import levi_form, quadratic_gap_estimate, validate_weight

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
    base: tuple = ()
    hmax: int = 4
    h_grid: tuple = DEFAULT_H_GRID
    gram_degree: int = 25
    n_radial: int = 64
    n_angular: int = 128
    err_n_radial: int = 24
    err_n_angular: int = 48
    delta: float | None = None
    seed: int = 0
    suites: tuple = SUITES
    test_functions: tuple = ((0,), (1,), (2,))

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "dimension": self.dimension,
            "base": [[z[0], z[1]] for z in self.base],
            "coefficients": [{"exponents": list(e), "re": re, "im": im}
                             for e, re, im in self.coefficients],
            "trust_radius": self.trust_radius,
            "maxdeg": self.maxdeg,
            "order": self.order,
            "hmax": self.hmax,
            "h_grid": list(self.h_grid),
            "radius_u": self.radius_u,
            "radius_v": self.radius_v,
            "gram_degree": self.gram_degree,
            "n_radial": self.n_radial,
            "n_angular": self.n_angular,
            "err_n_radial": self.err_n_radial,
            "err_n_angular": self.err_n_angular,
            "delta": self.delta,
            "seed": self.seed,
            "suites": list(self.suites),
            "test_functions": [list(t) for t in self.test_functions],
        }


_REQUIRED = ("name", "dimension", "coefficients", "trust_radius", "maxdeg",
             "order", "radius_u", "radius_v")
_KNOWN = set(RunConfig.__dataclass_fields__)


def config_from_dict(raw: dict, overrides: dict | None = None) -> RunConfig:
    """Validate a raw config dictionary (plus CLI overrides) into a RunConfig."""
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a JSON object")
    data = dict(raw)
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(data) - _KNOWN
    if unknown:
        raise ConfigInvalid(f"unknown config fields: {sorted(unknown)}")
    missing = [k for k in _REQUIRED if k not in data]
    if missing:
        raise ConfigInvalid(f"missing config fields: {missing}")

    n = data["dimension"]
    if not isinstance(n, int) or n < 1:
        raise ConfigInvalid("dimension must be a positive integer")

    def read(key: str, convert, default=None):
        """convert(value of key); a value of the wrong type names its field."""
        value = data.get(key, default)
        try:
            return convert(value)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigInvalid(
                f"{key}: cannot read {value!r} ({type(exc).__name__}: {exc})") from exc

    def finite(value) -> float:
        x = float(value)  # json parses NaN and Infinity; no stage can use them
        if not math.isfinite(x):
            raise ValueError("not a finite number")
        return x

    def base_pairs(base):
        base = base or [[0.0, 0.0]] * n
        if len(base) != n or any(len(z) != 2 for z in base):
            raise ConfigInvalid("base must list [re, im] pairs, one per dimension")
        return tuple((finite(z[0]), finite(z[1])) for z in base)

    def coefficient(entry):
        e = entry["exponents"]
        if len(e) != 2 * n or any(not isinstance(k, int) or k < 0 for k in e):
            raise ConfigInvalid(
                f"coefficient exponents {e!r} must be {2 * n} nonnegative integers")
        return tuple(e), finite(entry["re"]), finite(entry.get("im", 0.0))

    def exponents(t):
        if len(t) != n or any(not isinstance(k, int) or k < 0 for k in t):
            raise ConfigInvalid(f"test function exponents {t!r} must be {n} nonnegative ints")
        return tuple(t)

    base = read("base", base_pairs)
    coeffs = read("coefficients", lambda cs: tuple(coefficient(c) for c in cs))

    maxdeg, order = read("maxdeg", int), read("order", int)
    if order < 0:
        raise ConfigInvalid("order must be nonnegative")
    if maxdeg < 6 * order + 2:
        raise ConfigInvalid(
            f"degree budget violated: maxdeg ({maxdeg}) must be at least "
            f"6N+2 = {6 * order + 2} for amplitude order N = {order}")

    trust = read("trust_radius", finite)
    ru, rv = read("radius_u", finite), read("radius_v", finite)
    if not (0.0 < ru < rv < trust):
        raise ConfigInvalid(
            f"need 0 < radius_u ({ru}) < radius_v ({rv}) < trust_radius ({trust})")

    h_grid = read("h_grid", lambda g: tuple(finite(h) for h in g), DEFAULT_H_GRID)
    if not h_grid or any(h <= 0 for h in h_grid):
        raise ConfigInvalid("h_grid must be a nonempty list of positive values")

    suites = read("suites", tuple, SUITES)
    bad = [s for s in suites if s not in SUITES]
    if bad or not suites:
        raise ConfigInvalid(f"suites must be a nonempty subset of {SUITES}, got {bad}")

    tfs = read("test_functions", lambda ts: tuple(exponents(t) for t in ts),
               [[0], [1], [2]] if n == 1 else [[0] * n])
    if not tfs:
        raise ConfigInvalid("test_functions must be a nonempty list")

    nodes = {k: read(k, int, RunConfig.__dataclass_fields__[k].default)
             for k in ("n_radial", "n_angular", "err_n_radial", "err_n_angular")}
    small = {k: v for k, v in nodes.items() if v < 1}
    if small:
        raise ConfigInvalid(f"quadrature node counts must be at least 1, got {small}")
    hmax, seed = read("hmax", int, 4), read("seed", int, 0)
    if hmax < 0 or seed < 0:
        raise ConfigInvalid(f"hmax ({hmax}) and seed ({seed}) must be nonnegative")
    delta = read("delta", lambda d: None if d is None else finite(d))
    if delta is not None and delta <= 0.0:
        raise ConfigInvalid(f"delta must be positive, got {delta}")

    return RunConfig(
        name=str(data["name"]), dimension=n,
        coefficients=coeffs, trust_radius=trust, maxdeg=maxdeg,
        order=order, radius_u=ru, radius_v=rv, base=base,
        hmax=hmax, h_grid=h_grid,
        gram_degree=read("gram_degree", int, 25),
        delta=delta,
        seed=seed, suites=suites, test_functions=tfs, **nodes)


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


def _monomial(exponents, n: int) -> TruncatedSeries:
    deg = max(sum(exponents), 0)
    return TruncatedSeries.from_triples([(tuple(exponents), 1.0, 0.0)], n, deg)


def _core(cfg: RunConfig, ctx: dict) -> dict:
    if "w" not in ctx:
        series = TruncatedSeries.from_triples(
            list(cfg.coefficients), 2 * cfg.dimension, cfg.maxdeg)
        base = [complex(re_, im_) for re_, im_ in cfg.base]
        ctx["w"] = validate_weight(series, base, cfg.trust_radius)
        ctx["pd"] = build_phase(ctx["w"])
    return ctx


def _amplitude(cfg: RunConfig, ctx: dict) -> dict:
    _core(cfg, ctx)
    if "amp" not in ctx:
        amp = solve_amplitude(ctx["pd"], cfg.order)
        estimate_growth(amp, cfg.radius_u, seed=cfg.seed)
        ctx["amp"] = amp
    return ctx


def _gap(cfg: RunConfig, ctx: dict) -> tuple[float, float]:
    """Sampled (cmin, cmax) of the quadratic gap, computed once per run."""
    if "gap" not in ctx:
        _core(cfg, ctx)
        ctx["gap"] = quadratic_gap_estimate(
            ctx["w"], 0.5 * cfg.trust_radius, n_samples=4096, seed=cfg.seed)
    return ctx["gap"]


def _delta(cfg: RunConfig, ctx: dict) -> float:
    if cfg.delta is not None:
        return cfg.delta
    return 0.5 * _gap(cfg, ctx)[0]


def _fit_or_floor(pairs) -> dict:
    errs = [e for _, e in pairs]
    if max(errs) < FIT_FLOOR:
        return {"floor": True, "max_error": max(errs)}
    fit = decay_fit(pairs)
    return {"floor": False, "beta": fit.beta, "r2": fit.r2,
            "alpha": fit.alpha, "r2_loglog": fit.r2_loglog}


# ---------------------------------------------------------------------------
# Stages


def stage_validate(cfg: RunConfig, ctx: dict) -> dict:
    _core(cfg, ctx)
    w, pd = ctx["w"], ctx["pd"]
    levi = levi_form(w, w.base)
    eigs = [float(v) for v in np.linalg.eigvalsh(levi)]
    cmin, cmax = _gap(cfg, ctx)
    delta = _delta(cfg, ctx)
    checksum = hashlib.sha256(
        json.dumps(w.series.to_triples(), sort_keys=True).encode()).hexdigest()[:16]
    radius = 0.3 * cfg.trust_radius
    amp_margin = verify_contour(pd, build_good_contour(pd), radius,
                                n_samples=10_000, seed=cfg.seed)
    inv_margin = inversion_margin(w, w.base, radius, n_samples=10_000, seed=cfg.seed)
    return {
        "dimension": w.n,
        "levi_eigenvalues": eigs,
        "gap": {"cmin": cmin, "cmax": cmax},
        "delta": delta,
        "polarization_checksum": checksum,
        "hessian_determinant": [pd.hess_det.real, pd.hess_det.imag],
        "phase_margins": {"amplitude": amp_margin,
                          "inversion": inv_margin,
                          "radius": radius},
    }


def stage_amplitude(cfg: RunConfig, ctx: dict) -> dict:
    _amplitude(cfg, ctx)
    amp = ctx["amp"]
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


def stage_kernel(cfg: RunConfig, ctx: dict) -> dict:
    _amplitude(cfg, ctx)
    w, pd = ctx["w"], ctx["pd"]
    dictionary = [(list(t), _monomial(t, cfg.dimension)) for t in cfg.test_functions]
    orders = [cfg.order] + ([cfg.order - 1] if cfg.order >= 1 else [])
    amps = {cfg.order: ctx["amp"]}
    for N in orders[1:]:
        amps[N] = solve_amplitude(pd, N)
    outer = make_domain((cfg.radius_v,) * w.n, cfg.n_radial, cfg.n_angular)
    inner = make_domain((cfg.radius_u,) * w.n, cfg.err_n_radial, cfg.err_n_angular)
    rows = []
    fits = {}
    for N in orders:
        errs = []
        for h in cfg.h_grid:
            K = assemble_kernel(w, amps[N], h)
            err = max(reproducing_error(K, u, w, inner, outer)
                      for _, u in dictionary)
            errs.append((h, err))
            beta_running = None
            if len(errs) >= 3:
                try:
                    beta_running = decay_fit(errs).beta
                except BergmanError:
                    beta_running = None
            rows.append({"h": h, "N": N, "cutoff": K.symbol.cutoff, "err_U": err,
                         "beta_running": beta_running})
        fits[str(N)] = _fit_or_floor(errs)
    return {"rows": rows, "fits": fits,
            "test_functions": [t for t, _ in dictionary]}


def _sp_cases(cfg: RunConfig, ctx: dict) -> list:
    terminating = ctx["pd"].remainder.is_zero()
    pairs = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2),
             (2, 2), (3, 2), (3, 3), (4, 4)]
    cases = []
    for a, b in pairs:
        name = f"x^{a}yt^{b}"
        # at the phase's slow degree, the most the expansion can use
        sym = TruncatedSeries.from_triples([((a, b), 1.0, 0.0)], 2, ctx["pd"].maxdeg - 2)
        cases.append(QuadratureCase(name, sym, terminating))
    return cases


# Verify sections whose oracles exist for n = 1 only.
_N1_ONLY = {
    "gram": "Gram-matrix comparison samples n = 1 near-diagonal pairs only",
    "fourier": "Fourier inversion oracle is n = 1 only",
    "sp_quadrature": "contour quadrature oracle is n = 1 only",
}


def stage_verify(cfg: RunConfig, ctx: dict) -> dict:
    _amplitude(cfg, ctx)
    w, pd, amp = ctx["w"], ctx["pd"], ctx["amp"]
    out: dict = {}
    n = cfg.dimension
    outer = make_domain((cfg.radius_v,) * n, cfg.n_radial, cfg.n_angular)

    def attempt(key, fn):
        try:
            out[key] = fn()
        except BergmanError as exc:
            out[key] = {"error": {"type": type(exc).__name__, "message": str(exc)}}

    def gram_section():
        x, y = near_diagonal_pairs(0.3 * cfg.radius_u, 20)
        pairs = []
        per_h = []
        for h in cfg.h_grid:
            gk = gram_bergman(w, outer, h, cfg.gram_degree)
            st = compare_kernels(assemble_kernel(w, amp, h), gk, x, y)
            per_h.append({"h": h, "max_rel": st.max_rel,
                          "median_rel": st.median_rel, "cond": gk.cond})
            pairs.append((h, st.max_rel))
        return {"points": 20, "per_h": per_h, "fit": _fit_or_floor(pairs)}

    def fourier_section():
        res = {}
        for t in cfg.test_functions:
            checks = fourier_inversion_check(w, _monomial(t, n), w.base,
                                             cfg.radius_v, 96, 192, cfg.h_grid)
            pairs = [(chk.h, chk.residual) for chk in checks]
            res[str(list(t))] = {"residuals": [[h, r] for h, r in pairs],
                                 "fit": _fit_or_floor(pairs)}
        return res

    def pointwise_section():
        inner = make_domain((cfg.radius_u,) * n, cfg.err_n_radial, cfg.err_n_angular)
        res = {}
        for t in cfg.test_functions:
            pb = pointwise_bound_check(w, _monomial(t, n), inner, outer, cfg.h_grid)
            res[str(list(t))] = {"ratios": list(pb.ratios), "max": pb.max_ratio}
        return res

    def inequality_section():
        suite = inequality_suite(w, w.base, _delta(cfg, ctx), 0.3 * cfg.trust_radius,
                                 n_samples=10_000, seed=cfg.seed)
        return {"theta_margin": suite.theta_margin, "gz_margin": suite.gz_margin,
                "ratio_min": suite.ratio_min, "delta": suite.delta,
                "radius": suite.radius}

    def localized_section():
        h = cfg.h_grid[len(cfg.h_grid) // 2]
        one = TruncatedSeries.constant(1.0, n, 0)
        elem = localized_element(one, w.base, w, h, delta=_delta(cfg, ctx),
                                 seed=cfg.seed)
        return {"h": h, "margin": elem.margin, "delta": elem.delta,
                "domination_C": elem.domination_C}

    def sp_section():
        rows = []
        ok_flags = []
        for case in _sp_cases(cfg, ctx):
            for h in cfg.h_grid:
                try:
                    r, = sp_quadrature_check(pd, [case], [h], hmax=cfg.hmax)
                except BergmanError as exc:
                    rows.append({"name": case.name, "h": h,
                                 "error": {"type": type(exc).__name__,
                                           "message": str(exc)}})
                    ok_flags.append(False)
                    continue
                rows.append({"name": r.name, "h": r.h, "error": r.error,
                             "next_term": r.next_term,
                             "order_used": r.order_used,
                             "terminating": r.terminating, "ok": r.ok})
                ok_flags.append(r.ok)
        return {"cases": rows, "all_ok": all(ok_flags)}

    sections = (("gram", gram_section), ("fourier", fourier_section),
                ("pointwise", pointwise_section), ("inequalities", inequality_section),
                ("localized", localized_section), ("sp_quadrature", sp_section))
    for key, fn in sections:
        if n > 1 and key in _N1_ONLY:
            out[key] = {"skipped": _N1_ONLY[key]}
        else:
            attempt(key, fn)
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
    ctx: dict = {}
    for suite in SUITES:
        if suite not in cfg.suites:
            continue
        try:
            report["stages"][suite] = _STAGES[suite](cfg, ctx)
        except BergmanError as exc:
            report["stages"][suite] = {
                "error": {"type": type(exc).__name__, "message": str(exc)}}
    return report


# ---------------------------------------------------------------------------
# Emission


def _sanitize(obj, path="report"):
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): _sanitize(v, f"{path}.{k}") for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v, f"{path}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        if not math.isfinite(val):
            raise IoError(f"non-finite value at {path}")
        return val
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        z = complex(obj)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise IoError(f"non-finite value at {path}")
        return [z.real, z.imag]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist(), path)
    raise IoError(f"cannot serialize {type(obj).__name__} at {path}")


def report_json(report: dict) -> str:
    return json.dumps(_sanitize(report), sort_keys=True, indent=2) + "\n"


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


def emit(report: dict, out_dir: str, fmt: str = "json") -> list:
    """Write the report under out_dir; returns the paths written."""
    import os
    if fmt not in ("json", "csv"):
        raise ConfigInvalid(f"unknown format {fmt!r}; use json or csv")
    try:
        os.makedirs(out_dir, exist_ok=True)
        paths = []
        if fmt == "json":
            p = os.path.join(out_dir, "report.json")
            with open(p, "w", encoding="utf-8") as fh:
                fh.write(report_json(report))
            paths.append(p)
        else:
            p = os.path.join(out_dir, "errors.csv")
            with open(p, "w", encoding="utf-8") as fh:
                fh.write(report_csv(report))
            paths.append(p)
        return paths
    except OSError as exc:
        raise IoError(f"cannot write report under {out_dir}: {exc}") from exc


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
    ap.add_argument("command", choices=["validate", "amplitude", "kernel",
                                        "verify", "report"])
    ap.add_argument("--config", required=True, help="path to a JSON run config")
    ap.add_argument("--h-grid", help="comma-separated override, e.g. 0.2,0.1,0.05")
    ap.add_argument("--order", type=int, help="amplitude truncation order override")
    ap.add_argument("--out", help="output directory; prints to stdout if omitted")
    ap.add_argument("--format", choices=["json", "csv"], default="json")
    return ap.parse_args(argv)


_COMMAND_SUITES = {
    "validate": ("validate",),
    "amplitude": ("amplitude",),
    "kernel": ("kernel",),
    "verify": ("verify",),
    "report": SUITES,
}


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    overrides: dict = {"suites": list(_COMMAND_SUITES[args.command])}
    if args.h_grid:
        try:
            overrides["h_grid"] = [float(tok) for tok in args.h_grid.split(",") if tok]
        except ValueError:
            print("error: --h-grid must be comma-separated numbers", file=sys.stderr)
            return 2
    if args.order is not None:
        overrides["order"] = args.order
    try:
        cfg = load_config(args.config, overrides)
        report = run(cfg)
        if args.out:
            for p in emit(report, args.out, args.format):
                print(p)
        else:
            text = report_json(report) if args.format == "json" else report_csv(report)
            sys.stdout.write(text)
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
