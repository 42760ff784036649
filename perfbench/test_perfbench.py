"""Self-checks of the benchmark: python3 -m pytest perfbench -q

The traced-run test runs the quartic-report and oracle-verify workloads
twice each in child processes (about a minute on two cores).
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _child(cfg_paths, *flags) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *flags,
                           *cfg_paths], env=env, capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _write_configs(tmp_path, workload) -> list:
    paths = []
    for i, cfg in enumerate(workloads.configs(workload, 0)):
        path = tmp_path / f"{workload}-{i}.json"
        path.write_text(json.dumps(cfg))
        paths.append(str(path))
    return paths


def test_benchmark_json_lists_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_tracing_keeps_report_bytes_and_counts_every_call(tmp_path):
    expected = {"quartic-report": {"projector.apply_projection": 40,
                                   "amplitude.solve_amplitude": 2},
                "oracle-verify": {"oracle.sp_quadrature_check": 150,
                                  "oracle.gram_bergman": 15}}
    for workload, calls in expected.items():
        paths = _write_configs(tmp_path, workload)
        plain = _child(paths)
        traced = _child(paths, "--trace-out", str(tmp_path / f"{workload}.trace.json"))
        assert traced["reports"] == plain["reports"]
        for layer, count in calls.items():
            assert traced["layers"][layer]["calls"] == count, layer
        saved = json.loads((tmp_path / f"{workload}.trace.json").read_text())
        assert len(saved["spans"]) == sum(r["calls"] for r in traced["layers"].values())


def test_tracer_patches_every_binding_and_restores_it():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from bergman import cli, projector, series
    from tracer import Tracer

    before = (cli.solve_amplitude, cli._STAGES["kernel"], projector.apply_projection,
              series.TruncatedSeries.__mul__, series.TruncatedSeries.__rmul__)
    tracer = Tracer()
    tracer.install()
    try:
        after = (cli.solve_amplitude, cli._STAGES["kernel"], projector.apply_projection,
                 series.TruncatedSeries.__mul__, series.TruncatedSeries.__rmul__)
        assert all(a is not b and a.__wrapped__ is b for a, b in zip(after, before))
    finally:
        tracer.uninstall()
    assert (cli.solve_amplitude, cli._STAGES["kernel"], projector.apply_projection,
            series.TruncatedSeries.__mul__, series.TruncatedSeries.__rmul__) == before


def test_tracer_lists_targets_the_package_lacks(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracer

    gone = ("cli.gone", "bergman.cli", "no_such_function", None)
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (gone,))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == ["bergman.cli.no_such_function"]
    assert t.summary()["cli.gone"] == {"calls": 0, "s": 0.0, "self_s": 0.0}


def _report(cfg) -> dict:
    a0 = workloads.a0_closed_form(cfg)
    return {"schema": checks.SCHEMA_TAG, "stages": {
        "validate": {"phase_margins": {"amplitude": 0.2, "inversion": 0.5}},
        "amplitude": {"a0_constant": [a0, 0.0], "feedback_unit_defect": 1e-16},
        "kernel": {"rows": [{"h": 0.2, "N": 1, "err_U": 0.1},
                            {"h": 0.1, "N": 1, "err_U": 0.01}]},
        "verify": {"inequalities": {"theta_margin": 0.2, "gz_margin": 0.1},
                   "localized": {"margin": 0.2},
                   "sp_quadrature": {"cases": [
                       {"name": "x", "h": 0.1, "error": 1e-9},
                       {"name": "y", "h": 0.1, "error": {"type": "QuadratureUnderresolved",
                                                         "message": ""}}]}}}}


def test_checks_accept_a_good_report_and_catch_each_defect():
    cfg = workloads.configs("quartic-report", 0)[0]
    good = _report(cfg)
    assert checks.check_report(good, cfg) == []
    # 4 stages + 3 verify sections + 2 kernel rows + 2 sp rows, one failed.
    assert checks.operations(good) == (11, ["QuadratureUnderresolved"])
    defects = [
        lambda r: r.update(schema="other"),
        lambda r: r["stages"].pop("kernel"),
        lambda r: r["stages"].update(verify={"error": {"type": "X", "message": ""}}),
        lambda r: r["stages"]["amplitude"]["a0_constant"].__setitem__(0, 1.0 / 3.0),
        lambda r: r["stages"]["amplitude"].update(feedback_unit_defect=1e-9),
        lambda r: r["stages"]["kernel"]["rows"][1].update(err_U=0.2),
        lambda r: r["stages"]["verify"]["localized"].update(margin=1e-4),
        lambda r: r["stages"]["validate"]["phase_margins"].update(amplitude=float("nan")),
    ]
    for breaks in defects:
        bad = copy.deepcopy(good)
        breaks(bad)
        assert checks.check_report(bad, cfg), bad


def test_a0_closed_forms():
    pi = 3.141592653589793
    for workload, want in (("quartic-report", [1 / pi]), ("dense-amplitude", [1 / pi]),
                           ("oracle-verify", [1 / pi, 2 / pi, 1 / pi]),
                           ("product-2d", [1 / pi ** 2])):
        got = [workloads.a0_closed_form(c) for c in workloads.configs(workload, 5)]
        assert all(abs(g - w) <= 1e-15 * w for g, w in zip(got, want)), workload


def test_inputs_follow_the_seed():
    assert workloads.configs("dense-amplitude", 4) == workloads.configs("dense-amplitude", 4)
    assert workloads.configs("dense-amplitude", 4) != workloads.configs("dense-amplitude", 5)


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "dense-amplitude", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_sampler_ticks_while_running_and_rescales():
    import time

    import pytest
    from reference import NOMINAL_TICK_S, Sampler

    sampler = Sampler()
    sampler.start()
    try:
        end = time.monotonic() + 0.35
        while time.monotonic() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.ticks) >= 2

    sampler.ticks = [(1.0, 0.002), (2.0, 0.004), (5.0, 0.003)]
    spent, scale = sampler.between(0.5, 2.5)
    assert spent == pytest.approx(0.006)
    assert scale == pytest.approx(NOMINAL_TICK_S / 0.003)
    assert sampler.between(3.0, 4.0) == (0.0, pytest.approx(NOMINAL_TICK_S / 0.003))
