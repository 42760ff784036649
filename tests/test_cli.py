import json
import os
import subprocess
import sys

import pytest

import bergman

from bergman.amplitude import ExpansionTermOps
from bergman.cli import (RunConfig, config_from_dict, emit, load_config, main,
                         report_csv, report_json, run)
from bergman.errors import ConfigInvalid, IoError

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
    assert cfg.base == ((0.0, 0.0),)


def test_budget_rule_named():
    with pytest.raises(ConfigInvalid, match="6N\\+2"):
        cfg_with(order=5)
    quartic = [{"exponents": [1, 1], "re": 0.5}, {"exponents": [2, 2], "re": 0.1}]
    with pytest.raises(ConfigInvalid, match="6N\\+2"):
        cfg_with(coefficients=quartic, order=4, maxdeg=20)


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


def test_exponent_arity_checked():
    with pytest.raises(ConfigInvalid):
        cfg_with(coefficients=[{"exponents": [1, 1, 1], "re": 0.5}])
    with pytest.raises(ConfigInvalid):
        cfg_with(test_functions=[[0, 0]])


@pytest.mark.parametrize("field,value", [
    ("n_radial", 0), ("n_angular", 0), ("err_n_radial", 0), ("err_n_angular", 0),
    ("test_functions", []), ("hmax", -1), ("seed", -1),
    ("trust_radius", "abc"), ("base", [["a", 0]]), ("h_grid", ["x"]),
    ("gram_degree", "big"), ("coefficients", [{"exponents": [1, 1], "re": "x"}]),
    # json parses NaN and Infinity; no stage can run on them
    ("coefficients", [{"exponents": [1, 1], "re": float("nan")}]),
    ("coefficients", [{"exponents": [1, 1], "re": 0.5, "im": float("inf")}]),
    ("base", [[float("nan"), 0.0]]), ("trust_radius", float("inf")),
    ("radius_u", float("nan")), ("radius_v", float("nan")),
    ("h_grid", [0.2, float("nan")]), ("h_grid", [float("inf")]),
    ("delta", float("nan")), ("delta", float("-inf")), ("delta", 0.0), ("delta", -0.1),
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


_ERR = {"error": {"type": "QuadratureUnderresolved", "message": ""}}


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


def test_main_h_grid_override(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(BASE, suites=["validate"])))
    rc = main(["validate", "--config", str(cfg_path), "--h-grid", "0.3,0.2"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["config"]["h_grid"] == [0.3, 0.2]


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
