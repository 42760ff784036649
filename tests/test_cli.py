import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import bergman

from bergman.amplitude import ExpansionTermOps
from bergman.cli import (RunConfig, RunState, _error_record, _sp_cases, config_from_dict,
                         emit, load_config, main, report_csv, report_json, run)
from bergman.errors import ConfigInvalid, DegenerateHessian, IoError, QuadratureUnderresolved
from bergman.oracle import sp_quadrature_check

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BASE = {
    "name": "t",
    "dimension": 1,
    "coefficients": [{"exponents": [1, 1], "re": 0.5, "im": 0.0}],
    "trust_radius": 1.2,
    "maxdeg": 20,
    "order": 3,
    "radius_u": 0.5,
    "radius_v": 1.0,
    "h_grid": [0.2, 0.1, 0.05],
    "test_functions": [[0], [1]],
}


def cfg_with(**kw):
    raw = dict(BASE)
    raw.update(kw)
    return config_from_dict(raw)


def test_defaults_filled():
    cfg = cfg_with()
    assert cfg.hmax == 4
    assert cfg.gram_degree == 25
    assert cfg.suites == ("validate", "amplitude", "kernel", "verify")


def test_budget_rule_named():
    with pytest.raises(ConfigInvalid, match="6N\\+2"):
        cfg_with(order=5)
    quartic = [{"exponents": [1, 1], "re": 0.5}, {"exponents": [2, 2], "re": 0.1}]
    with pytest.raises(ConfigInvalid, match="6N\\+2"):
        cfg_with(coefficients=quartic, order=4, maxdeg=20)


def test_maxdeg_bounded_by_the_series_ring():
    assert cfg_with(maxdeg=255).maxdeg == 255
    with pytest.raises(ConfigInvalid, match="maxdeg \\(256\\) must be at most 255"):
        cfg_with(maxdeg=256)


def test_radius_ordering_enforced():
    with pytest.raises(ConfigInvalid):
        cfg_with(radius_u=1.0, radius_v=0.5)
    with pytest.raises(ConfigInvalid):
        cfg_with(radius_v=1.3)
    with pytest.raises(ConfigInvalid):
        cfg_with(radius_u=0.0)


def test_unknown_and_missing_fields():
    with pytest.raises(ConfigInvalid, match="unknown"):
        cfg_with(mystery=1)
    with pytest.raises(ConfigInvalid, match="missing"):
        config_from_dict({"name": "t"})


def test_bad_grid_and_suites():
    with pytest.raises(ConfigInvalid):
        cfg_with(h_grid=[])
    with pytest.raises(ConfigInvalid):
        cfg_with(h_grid=[0.1, -0.2])
    with pytest.raises(ConfigInvalid):
        cfg_with(suites=["kernel", "nonsense"])


def test_dimension_capped_by_the_embedded_sobol_table(tmp_path, capsys):
    # the sampled gap draws 4n Sobol' dimensions; the package embeds 8.
    # Grids of product-2d's size: the default 64 x 128 per variable is 2^26
    # nodes in two variables, above MAX_GRID_NODES
    def gaussian(n, **grids):
        return dict(BASE, dimension=n, test_functions=[[0] * n], coefficients=[
            {"exponents": [int(k % n == j) for k in range(2 * n)], "re": 0.5}
            for j in range(n)], **grids)

    small = {"n_radial": 6, "n_angular": 12, "err_n_radial": 4, "err_n_angular": 8}
    assert config_from_dict(gaussian(2, **small)).dimension == 2
    with pytest.raises(ConfigInvalid, match="n_radial"):
        config_from_dict(gaussian(2))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(gaussian(3)))
    assert main(["validate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "dimension <= 2" in err and "Traceback" not in err


def test_exponent_arity_checked():
    with pytest.raises(ConfigInvalid):
        cfg_with(coefficients=[{"exponents": [1, 1, 1], "re": 0.5}])
    with pytest.raises(ConfigInvalid):
        cfg_with(test_functions=[[0, 0]])


@pytest.mark.parametrize("field,value", [
    ("n_radial", 0), ("n_angular", 0), ("err_n_radial", 0), ("err_n_angular", 0),
    ("test_functions", []), ("hmax", -1), ("seed", -1),
    ("trust_radius", "abc"), ("coefficients", [{"exponents": [1, 1]}]), ("h_grid", ["x"]),
    ("gram_degree", "big"), ("coefficients", [{"exponents": [1, 1], "re": "x"}]),
    # json parses NaN and Infinity; no stage can run on them
    ("coefficients", [{"exponents": [1, 1], "re": float("nan")}]),
    ("coefficients", [{"exponents": [1, 1], "re": 0.5, "im": float("inf")}]),
    ("hmax", 0), ("trust_radius", float("inf")),
    ("radius_u", float("nan")), ("radius_v", float("nan")),
    ("h_grid", [0.2, float("nan")]), ("h_grid", [float("inf")]),
    ("test_functions", [[0], [256]]),
    # integer fields and exponents take JSON integers only: no bool, string
    # or float, which int() would have rounded or parsed
    ("order", 4.7), ("maxdeg", "26"), ("seed", 1.5), ("dimension", True),
    ("dimension", 1.0), ("hmax", True), ("gram_degree", 25.0), ("n_radial", "64"),
    ("n_angular", 128.0), ("err_n_radial", False), ("err_n_angular", "48"),
    ("maxdeg", 26.0), ("order", "4"), ("seed", True),
    ("coefficients", [{"exponents": [True, True], "re": 0.5}]),
    ("coefficients", [{"exponents": [1.0, 1], "re": 0.5}]),
    ("test_functions", [[True]]), ("test_functions", [["1"]]),
    # float fields take JSON numbers only: no string or bool, which float()
    # would have parsed; list fields take JSON lists, not an object's keys
    ("radius_u", "0.5"), ("radius_v", True), ("trust_radius", "1.2"),
    ("h_grid", ["0.2"]), ("h_grid", [True]), ("h_grid", {"0.2": 1}),
    ("coefficients", [{"exponents": [1, 1], "re": "0.5"}]),
    ("coefficients", [{"exponents": [1, 1], "re": 0.5, "im": False}]),
    ("suites", {"validate": 1}), ("name", {"a": 1}),
    # a grid above MAX_GRID_NODES nodes would end in a MemoryError
    ("n_radial", 10 ** 12), ("n_angular", 2 ** 15), ("err_n_radial", 2 ** 16),
    ("err_n_angular", 10 ** 12),
    # a grid has at least 4 radial nodes: a smaller count is not the one run
    ("n_radial", 3), ("err_n_radial", 3),
])
def test_values_that_cannot_run_are_rejected(field, value):
    with pytest.raises(ConfigInvalid, match=field):
        cfg_with(**{field: value})


def test_main_rejects_zero_angular_nodes(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(BASE, n_angular=0)))
    rc = main(["kernel", "--config", str(cfg_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("field,value,message", [
    # the table's origin is the expansion point and delta is cmin / 2 of the
    # sampled gap; neither can be set
    ("base", [[0.3, 0.1]], "unknown config fields: ['base']"),
    ("delta", 0.2, "unknown config fields: ['delta']"),
    ("hmax", 0, "hmax must be at least 1"),
    ("maxdeg", 256, "maxdeg (256) must be at most 255"),
    ("n_radial", 10 ** 12, "n_radial x n_angular gives a grid of 128000000000000 nodes"),
    ("n_radial", 3, "n_radial must be at least 4, got 3"),
])
def test_main_rejects_fields_that_cannot_run(tmp_path, capsys, field, value, message):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(BASE, **{field: value})))
    rc = main(["verify", "--config", str(cfg_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err


def test_each_stage_builds_its_grids_once(monkeypatch):
    # quadrature grids do not depend on h: one per domain per stage
    built = []
    make_domain = bergman.cli.make_domain

    def counted(*args, **kwargs):
        built.append(args)
        return make_domain(*args, **kwargs)

    monkeypatch.setattr(bergman.cli, "make_domain", counted)
    path = os.path.join(ROOT, "configs", "gaussian.json")
    for suite, grids in (("kernel", 2), ("verify", 2)):
        built.clear()
        cfg = load_config(path, {"suites": [suite], "h_grid": [0.2, 0.1, 0.05],
                                 "test_functions": [[0]], "n_radial": 16,
                                 "n_angular": 32, "gram_degree": 8})
        stage = run(cfg)["stages"][suite]
        assert len(built) == grids, (suite, built)
        assert "error" not in stage
        for section in ("gram", "fourier", "pointwise"):
            assert "error" not in stage.get(section, {}), section


def test_amplitude_stage_runs_the_engine_once(monkeypatch):
    calls = []
    apply = ExpansionTermOps.apply

    def counted(self, j, f):
        calls.append(j)
        return apply(self, j, f)

    monkeypatch.setattr(ExpansionTermOps, "apply", counted)
    order = 3
    amp = run(cfg_with(suites=["amplitude"], order=order))["stages"]["amplitude"]
    assert len(calls) == order * (order + 1) // 2
    assert amp["feedback_unit_defect"] < 1e-12
    assert "feedback_residuals" not in amp


def test_kernel_stage_builds_one_projection_table_per_kernel(monkeypatch):
    # 2 orders x 3 h = 6 kernels, each projecting 4 test functions; the two
    # kernels at one h share one table build
    from bergman import cli, projector
    builds, calls = [], []
    build, apply = projector.projection_table, projector.apply_projection

    def counted_build(kernels, *args, **kwargs):
        builds.append((len(kernels), args[-1]))
        return build(kernels, *args, **kwargs)

    def counted_apply(*args, **kwargs):
        calls.append(args[1])
        return apply(*args, **kwargs)

    monkeypatch.setattr(projector, "projection_table", counted_build)
    monkeypatch.setattr(cli, "projection_table", counted_build)
    monkeypatch.setattr(projector, "apply_projection", counted_apply)
    path = os.path.join(ROOT, "configs", "perturbed-quartic.json")
    cfg = load_config(path, {"suites": ["kernel"], "h_grid": [0.2, 0.1, 0.05]})
    rows = run(cfg)["stages"]["kernel"]["rows"]
    assert len(calls) == 24
    assert builds == [(2, 3)] * 3
    # err_U before the tables, when every call integrated u on its own
    before = {4: [0.10465226490132143, 0.041848476856779324, 0.002219606863823438],
              3: [0.10387251113859242, 0.04181777949885854, 0.00221419136726629]}
    for row, (N, h) in zip(rows, [(N, h) for N in (4, 3) for h in (0.2, 0.1, 0.05)]):
        assert (row["N"], row["h"]) == (N, h)
        want = before[N][[0.2, 0.1, 0.05].index(h)]
        assert abs(row["err_U"] - want) <= 1e-12 * want, (N, h)


def test_suite_selection_shapes_report():
    cfg = cfg_with(suites=["amplitude"])
    rep = run(cfg)
    assert set(rep["stages"]) == {"amplitude"}
    assert rep["schema"] == "bergman-report/1"
    assert "a0_constant" in rep["stages"]["amplitude"]
    assert "growth_C" in rep["stages"]["amplitude"]


def test_config_echo_round_trips():
    cfg = cfg_with(suites=["validate"])
    rep = run(cfg)
    again = config_from_dict(rep["config"])
    assert again == cfg


def test_report_json_deterministic():
    cfg = cfg_with(suites=["validate", "amplitude"])
    assert report_json(run(cfg)) == report_json(run(cfg))


def test_report_json_guards(monkeypatch, capsys):
    # a NaN or an infinity is an IoError that names its path, numpy scalars
    # are written as the Python values they hold, and a type JSON lacks is
    # an IoError that names it
    for bad in (float("nan"), float("inf")):
        rep = {"stages": {"kernel": {"rows": [{"err_U": 0.1}, {"err_U": bad}]}}}
        with pytest.raises(IoError, match=re.escape(
                "non-finite value at report.stages.kernel.rows[1].err_U")):
            report_json(rep)
    text = report_json({"f": np.float32(0.5), "i": np.int64(3), "b": np.bool_(True)})
    assert '"f": 0.5,' in text and '"i": 3' in text and '"b": true,' in text
    with pytest.raises(IoError, match="complex"):
        report_json({"z": 1 + 2j})
    # main reports the writer's error like any other: exit 2, no traceback
    monkeypatch.setitem(bergman.cli._STAGES, "validate", lambda state: {"x": float("nan")})
    assert main(["validate", "--config", os.path.join(ROOT, "configs", "gaussian.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite value at report.stages.validate.x")
    assert "Traceback" not in err


def test_invalid_weight_recorded_per_suite():
    cfg = cfg_with(coefficients=[{"exponents": [1, 1], "re": -0.5, "im": 0.0}],
                   suites=["validate", "amplitude"])
    rep = run(cfg)
    assert rep["stages"]["validate"]["error"]["type"] == "Degenerate"
    assert rep["stages"]["amplitude"]["error"]["type"] == "Degenerate"


def test_main_exits_2_when_a_stage_records_an_error(tmp_path, capsys):
    # the report is still written; the exit code says that it holds an error
    with open(os.path.join(ROOT, "configs", "gaussian.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["coefficients"][0]["re"] = -0.5
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["validate", "--config", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["stages"]["validate"]["error"]["type"] == "Degenerate"
    assert "validate" in err and "Traceback" not in err
    assert main(["validate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["stages"]["validate"]["error"]["type"] == "Degenerate"


def test_degenerate_phase_is_recorded_by_every_stage(monkeypatch, capsys):
    # a build_phase that raises is recorded by every stage that needs the
    # phase, and runs once: the run keeps the error as it keeps a phase
    calls = []

    def degenerate(w):
        calls.append(w)
        raise DegenerateHessian("mixed block singular at the origin")
    monkeypatch.setattr(bergman.cli, "build_phase", degenerate)
    assert main(["report", "--config", os.path.join(ROOT, "configs", "gaussian.json")]) == 2
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    stages = json.loads(out)["stages"]
    assert set(stages) == {"validate", "amplitude", "kernel", "verify"}
    for name, stage in stages.items():
        assert stage["error"]["type"] == "DegenerateHessian", name
    assert len(calls) == 1


def test_run_computes_each_shared_piece_once(monkeypatch):
    # the stages share one phase, one gap sample, one order-N amplitude and
    # one set of expansion operators; the kernel stage's order-(N - 1) solve
    # reads the operators' T_j f memo and computes no new term
    calls, built, computed, solves = {}, [], [], []
    for name in ("build_phase", "quadratic_gap_estimate", "estimate_growth"):
        def counted(*args, _fn=getattr(bergman.cli, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(bergman.cli, name, counted)
    init, term = ExpansionTermOps.__init__, ExpansionTermOps._term
    monkeypatch.setattr(ExpansionTermOps, "__init__",
                        lambda self, pd: built.append(pd) or init(self, pd))
    monkeypatch.setattr(ExpansionTermOps, "_term",
                        lambda self, j, *args: computed.append(j) or term(self, j, *args))
    solve = bergman.cli.solve_amplitude

    def counted_solve(pd, order):
        before = len(computed)
        amp = solve(pd, order)
        solves.append((amp, len(computed) - before))
        return amp
    monkeypatch.setattr(bergman.cli, "solve_amplitude", counted_solve)
    path = os.path.join(ROOT, "configs", "gaussian.json")
    cfg = load_config(path, {"h_grid": [0.2, 0.1, 0.05], "test_functions": [[0]],
                             "n_radial": 16, "n_angular": 32, "gram_degree": 8})
    stages = run(cfg)["stages"]
    assert all("error" not in stage for stage in stages.values())
    assert calls == {"build_phase": 1, "quadratic_gap_estimate": 1, "estimate_growth": 1}
    assert len(built) == 1
    (amp, amp_terms), (lower, lower_terms) = solves
    assert (amp.order, lower.order) == (cfg.order, cfg.order - 1)
    assert amp_terms > 0 and lower_terms == 0
    assert lower.coeffs == amp.coeffs[:cfg.order]


def _verify_sp(name: str, **overrides):
    """A verify run on configs/<name>.json, with the sections other than
    sp_quadrature cut down; the sp rows do not read the changed fields."""
    cfg = load_config(os.path.join(ROOT, "configs", f"{name}.json"),
                      {"suites": ["verify"], "test_functions": [[0]], "n_radial": 16,
                       "n_angular": 32, "gram_degree": 8, **overrides})
    return cfg, run(cfg)["stages"]["verify"]["sp_quadrature"]["cases"]


def _row_fields(r) -> dict:
    return {"name": r.name, "h": r.h, "error": r.error, "next_term": r.next_term,
            "order_used": r.order_used, "terminating": r.terminating, "ok": r.ok}


@pytest.mark.parametrize("name", ["gaussian", "quadratic-lambda"])
def test_sp_rows_equal_one_uncached_check(name):
    # the run's rows come from the phase it shares with the amplitude and
    # kernel stages, one contour per h; case-major calls on a fresh phase,
    # which shares nothing and rebuilds the contour at every call, give the
    # same rows bit for bit
    cfg, rows = _verify_sp(name)
    pd = RunState(cfg).pd  # a new run state builds its own phase
    want = [sp_quadrature_check(pd, case, h, hmax=cfg.hmax)
            for case in _sp_cases(pd) for h in cfg.h_grid]
    assert rows == [_row_fields(r) for r in want]


def test_sp_rows_equal_calls_that_rebuild_every_contour(monkeypatch):
    # perturbed-quartic has underresolved rows, so one call would stop at the
    # first; calls case by case change h at every call and so rebuild the
    # contour every time.  The run builds it once per h.
    from bergman import oracle
    probes, discs = [], []
    radius, disc = oracle._contour_radius, oracle.radial_nodes
    monkeypatch.setattr(oracle, "_contour_radius",
                        lambda pd, h: probes.append(h) or radius(pd, h))

    def counted_disc(*args):
        if args[1:] == (oracle.SP_N_RADIAL,):
            discs.append(args)
        return disc(*args)
    monkeypatch.setattr(oracle, "radial_nodes", counted_disc)
    cfg, rows = _verify_sp("perturbed-quartic")
    assert probes == list(cfg.h_grid) and len(discs) == len(cfg.h_grid)

    pd = RunState(cfg).pd  # a new run state builds its own phase
    want = []
    for case in _sp_cases(pd):
        for h in cfg.h_grid:
            try:
                r = sp_quadrature_check(pd, case, h, hmax=cfg.hmax)
            except QuadratureUnderresolved as exc:
                want.append({"name": case.name, "h": h, **_error_record(exc)})
                continue
            want.append(_row_fields(r))
    assert len(probes) == len(cfg.h_grid) + len(want)
    assert rows == want
    assert sum("ok" not in row for row in rows) > 0


_ERR = {"error": {"type": "QuadratureUnderresolved", "message": ""}}


def test_kernel_table_out_of_range_is_a_recorded_error(capsys):
    # at h = 1e-4 the kernel's exponential leaves the double range on the
    # quadratic weight's grids: the kernel stage records IllConditioned, the
    # other stages still report and nothing warns on the way
    path = os.path.join(ROOT, "configs", "quadratic-lambda.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["report", "--config", path, "--h-grid", "0.2,0.1,0.0001"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert "error: the report records errors in kernel\n" in err
    assert "Traceback" not in err
    stages = json.loads(out)["stages"]
    assert stages["kernel"]["error"]["type"] == "IllConditioned"
    assert [name for name, stage in stages.items() if "error" in stage] == ["kernel"]
    assert "error" not in stages["verify"]["gram"]


@pytest.mark.parametrize("verify,code", [
    ({"gram": _ERR, "localized": {"margin": 0.2}}, 2),
    (_ERR, 2),
    ({"sp_quadrature": {"cases": [dict(_ERR, name="x", h=0.1)], "all_ok": False}}, 0),
])
def test_exit_code_counts_stage_and_section_errors_only(monkeypatch, tmp_path,
                                                         capsys, verify, code):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(BASE))
    report = {"schema": "bergman-report/1", "config": {}, "stages": {"verify": verify}}
    monkeypatch.setattr(bergman.cli, "run", lambda cfg: report)
    assert main(["verify", "--config", str(cfg_path)]) == code
    assert json.loads(capsys.readouterr().out) == report


def test_csv_shape(tmp_path):
    cfg = cfg_with(suites=["kernel"], h_grid=[0.2, 0.15, 0.1],
                   test_functions=[[0]])
    rep = run(cfg)
    text = report_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "h,N,err_U,beta_running"
    # two orders (N and N-1) by three h values
    assert len(lines) == 1 + 6
    for row in lines[1:]:
        h, N, err, beta = row.split(",")
        assert float(h) > 0 and int(N) in (2, 3) and float(err) >= 0

    paths = emit(rep, str(tmp_path), "csv")
    assert paths == [os.path.join(str(tmp_path), "errors.csv")]
    assert open(paths[0]).read() == text


def test_emit_json_and_errors(tmp_path):
    cfg = cfg_with(suites=["validate"])
    rep = run(cfg)
    paths = emit(rep, str(tmp_path), "json")
    loaded = json.load(open(paths[0]))
    assert loaded["config"]["name"] == "t"
    with pytest.raises(ConfigInvalid):
        emit(rep, str(tmp_path), "yaml")
    with pytest.raises(IoError):
        emit(rep, "/proc/definitely/not/writable", "json")


def test_load_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(IoError):
        load_config(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigInvalid):
        load_config(str(bad))


def test_main_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(BASE))
    rc = main(["validate", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith("report.json")
    rep = json.load(open(out))
    assert set(rep["stages"]) == {"validate"}
    assert rep["config"]["suites"] == ["validate"]


def test_main_overrides_revalidate(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(BASE))
    rc = main(["kernel", "--config", str(cfg_path), "--order", "9"])
    assert rc == 2
    assert "6N+2" in capsys.readouterr().err
    rc = main(["kernel", "--config", str(cfg_path), "--h-grid", "0.2,zebra"])
    assert rc == 2
    # the token is read like any h_grid entry, and the error names the field
    assert "h_grid: cannot read" in capsys.readouterr().err


def test_main_h_grid_override(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(BASE, suites=["validate"])))
    rc = main(["validate", "--config", str(cfg_path), "--h-grid", "0.3,0.2"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["config"]["h_grid"] == [0.3, 0.2]


def test_two_point_h_grid_keeps_kernel_rows(tmp_path, capsys):
    # two h values are too few for a decay fit; the rows stay and the fit is skipped
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(BASE, n_radial=16, n_angular=32,
                                        test_functions=[[0]])))
    rc = main(["kernel", "--config", str(cfg_path), "--h-grid", "0.2,0.1"])
    assert rc == 0
    kernel = json.loads(capsys.readouterr().out)["stages"]["kernel"]
    assert [(r["N"], r["h"]) for r in kernel["rows"]] == [
        (3, 0.2), (3, 0.1), (2, 0.2), (2, 0.1)]
    assert kernel["fits"] == {str(N): {"skipped": "need at least three (h, error) pairs"}
                              for N in (3, 2)}


def test_kernel_rows_report_cutoff():
    cfg = cfg_with(suites=["kernel"], h_grid=[0.2, 0.15, 0.1], n_radial=16,
                   n_angular=32, test_functions=[[0]])
    rows = json.loads(report_json(run(cfg)))["stages"]["kernel"]["rows"]
    assert rows
    for row in rows:
        assert isinstance(row["cutoff"], int) and 0 <= row["cutoff"] <= row["N"]


PRODUCT_2D = {
    "name": "product-2d",
    "dimension": 2,
    "coefficients": [{"exponents": [1, 0, 1, 0], "re": 0.5},
                     {"exponents": [0, 1, 0, 1], "re": 0.5},
                     {"exponents": [2, 0, 2, 0], "re": 0.1},
                     {"exponents": [0, 2, 0, 2], "re": 0.05}],
    "trust_radius": 1.0,
    "maxdeg": 8,
    "order": 1,
    "h_grid": [0.2, 0.1, 0.05],
    "radius_u": 0.35,
    "radius_v": 0.7,
    "n_radial": 6,
    "n_angular": 12,
    "err_n_radial": 4,
    "err_n_angular": 8,
    "test_functions": [[1, 1]],
}


def test_verify_two_dimensional_skips_n1_oracles(tmp_path, capsys):
    # gram and fourier must be skipped before building any grid: the fourier
    # polydisc alone would hold ~3.4e8 nodes at n = 2
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(PRODUCT_2D, suites=["verify"])))
    rc = main(["verify", "--config", str(cfg_path)])
    assert rc == 0
    verify = json.loads(capsys.readouterr().out)["stages"]["verify"]
    assert "error" not in verify
    skipped = {k for k, v in verify.items() if "skipped" in v}
    assert skipped == {"gram", "fourier", "sp_quadrature"}
    for key in ("pointwise", "inequalities", "localized"):
        assert "error" not in verify[key]


def test_python_dash_m_entry_point():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bergman.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bergman", "validate", "--config",
         os.path.join(ROOT, "configs", "gaussian.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert json.loads(proc.stdout)["stages"]["validate"]["dimension"] == 1
