"""Benchmark of the bergman pipeline, driven through its public entry points.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is a fresh ``python3 perfbench/child.py`` process that imports
the package from ``src/``, validates the workload's configs with
``bergman.cli.load_config`` and times ``bergman.cli.run`` plus ``report_json``.
Repetitions run one at a time, in a closed loop, with the BLAS environment
the caller has (the thread count in effect is recorded, not set).
Repetitions start until the next one would end after ``--seconds``; at
least one always runs.

With ``--trace 0`` the run reports the end-to-end metrics, each the median
over its repetitions; ``setup_s`` is the median over at least
SETUP_SAMPLES processes, adding set-up-only processes where needed.  Every
time is rescaled by the host speed sampled in the child while it runs
(reference.py); the unscaled times are kept in the saved details.  With
``--trace 1`` it alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see tracer.py).

Every report is checked (checks.py).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` (report sections and
rows carrying an error object, see checks.operations) and ``metrics``.  The
lines before it give the spread, the sample count, the report fingerprints
and the environment; the same details are saved under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from checks import check_report, operations  # noqa: E402
from workloads import WORKLOADS, configs  # noqa: E402

DEADLINE_S = 170.0        # the whole run must end within 180 s
SETUP_SAMPLES = 5

END_TO_END = {"report_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: span name (tracer.TARGETS) -> fields of tracer.summary().
# "s" is inclusive time, "self_s" excludes time in traced callees.
LAYERS = {
    "series.mul": ("calls", "self_s", "terms_out"),
    "series.substitute": ("self_s",),
    "series.filter": ("self_s",),
    "series.eval_bilinear": ("calls", "self_s", "pairs"),
    "series.eval_grid": ("calls", "self_s", "points"),
    "amplitude.solve_amplitude": ("calls", "s"),
    "amplitude.term_apply": ("calls", "self_s"),
    "amplitude.formal_expansion": ("s",),
    "amplitude.estimate_growth": ("s",),
    "amplitude.realize": ("calls",),
    "projector.apply_projection": ("calls", "self_s", "kernel_evals"),
    "projector.reproducing_error": ("s",),
    "projector.assemble_kernel": ("calls",),
    "oracle.sp_quadrature_check": ("calls", "s"),
    "oracle.gram_bergman": ("calls", "s", "basis_size"),
    "oracle.fourier_inversion_check": ("s",),
    "oracle.compare_kernels": ("s",),
    "oracle.inequality_suite": ("s",),
    "oracle.localized_element": ("s",),
    "oracle.pointwise_bound_check": ("s",),
    "weight.validate_weight": ("s",),
    "weight.polarize": ("s",),
    "weight.quadratic_gap_estimate": ("s",),
    "phase.build_phase": ("s",),
    "phase.verify_contour": ("s",),
    "cli.stage.validate": ("s",),
    "cli.stage.amplitude": ("s",),
    "cli.stage.kernel": ("s",),
    "cli.stage.verify": ("s",),
    "cli.report_json": ("s",),
}
TRACE_TOTALS = {"trace.report_s": "s", "trace.overhead_s": "s"}


FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s", "terms_out": "count",
               "pairs": "count", "points": "count", "kernel_evals": "count",
               "basis_size": "count"}


def per_layer_units() -> dict:
    units = {f"{layer}.{field}": FIELD_UNITS[field]
             for layer, fields in LAYERS.items() for field in fields}
    units.update(TRACE_TOTALS)
    return units


class Run:
    """Spawns repetitions, checks their reports and gathers samples."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.started = time.monotonic()
        self.cfgs = configs(workload, seed)
        self.paths = []
        for i, cfg in enumerate(self.cfgs):
            path = os.path.join(OUT, f"{workload}-s{seed}-c{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, indent=1)
            self.paths.append(path)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
        self.correct = True
        self.attempted = self.failed = 0
        self.problems: list = []
        self.error_types: dict = {}
        self.setup: list = []
        self.raw: list = []       # wall and CPU times before rescaling (reference.py)
        self.last: dict = {}

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, *flags) -> dict | None:
        """One child process; returns its result, or None if it failed."""
        cmd = [sys.executable, os.path.join(HERE, "child.py"), *flags, *self.paths]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, DEADLINE_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            self._fail("repetition killed at the run deadline")
            return None
        if proc.returncode != 0:
            self._fail(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        setup_s = result["validated_at"] - t0
        self.setup.append((setup_s - result["setup_ticks_s"]) * result["setup_scale"])
        self.raw.append({"setup_s": setup_s, "setup_scale": result["setup_scale"],
                         **result.pop("raw", {})})
        return result

    def _fail(self, problem: str) -> None:
        self.correct = False
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)

    def repetition(self, *flags) -> dict | None:
        """A timed repetition whose reports are checked and counted."""
        result = self.spawn(*flags)
        if result is None:
            return None
        reports = [json.loads(text) for text in result["reports"]]
        for cfg, report in zip(self.cfgs, reports):
            problems = check_report(report, cfg)
            self.problems += problems
            self.correct = self.correct and not problems
            attempted, failed = operations(report)
            self.attempted += attempted
            self.failed += len(failed)
            for err in failed:
                self.error_types[err] = self.error_types.get(err, 0) + 1
        result["sha256"] = [hashlib.sha256(t.encode()).hexdigest() for t in result["reports"]]
        result["feedback_residuals"] = [
            r["stages"].get("amplitude", {}).get("feedback_residuals") for r in reports]
        del result["reports"]
        self.last = result
        return result

    def room_for(self, durations: list) -> bool:
        return self.elapsed() + statistics.median(durations) <= self.seconds

    def measure(self) -> dict:
        samples = {k: [] for k in END_TO_END if k != "setup_s"}
        durations: list = []
        while True:
            t0 = time.monotonic()
            result = self.repetition()
            durations.append(time.monotonic() - t0)
            if result is None:
                break
            for key in samples:
                samples[key].append(result[key])
            if not self.room_for(durations):
                break
        while (self.correct and len(self.setup) < SETUP_SAMPLES
               and self.elapsed() < DEADLINE_S - 30.0):
            self.spawn("--setup-only")
        samples["setup_s"] = self.setup
        return samples

    def measure_traced(self) -> dict:
        untraced, traced, layers = [], [], []
        durations: list = []
        while True:
            t0 = time.monotonic()
            plain = self.repetition()
            trace_path = os.path.join(
                OUT, f"trace-{self.workload}-s{self.seed}-r{len(traced)}.json")
            result = self.repetition("--trace-out", trace_path)
            durations.append(time.monotonic() - t0)
            if plain is None or result is None:
                break
            if result["sha256"] != plain["sha256"]:
                self.correct = False
                self.problems.append("traced report differs from the untraced report")
            untraced.append(plain["report_s"])
            traced.append(result["report_s"])
            layers.append(result["layers"])
            if not self.room_for(durations):
                break
        samples = {f"{layer}.{field}": [row[layer][field] for row in layers]
                   for layer, fields in LAYERS.items() for field in fields}
        samples["trace.report_s"] = traced
        samples["trace.overhead_s"] = ([statistics.median(traced) - statistics.median(untraced)]
                                       if traced else [])
        return samples


def _spread(values: list) -> str:
    if not values:
        return "no samples"
    med = statistics.median(values)
    if len(values) < 2:
        return f"median {med:.10g}  n = 1"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median {med:.10g}  q1 {q1:.10g}  q3 {q3:.10g}  n = {len(values)}"


def _steal_ticks() -> int:
    """Host steal time of this machine so far, in clock ticks (/proc/stat)."""
    with open("/proc/stat", encoding="utf-8") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "bergman", "cli.py")):
        print(f"error: no bergman package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    steal0 = _steal_ticks()
    run = Run(args.workload, args.seed, args.seconds)
    if args.trace:
        samples, units = run.measure_traced(), per_layer_units()
    else:
        samples, units = run.measure(), END_TO_END
    if not all(samples[name] for name in units):
        print("error: no repetition completed: " + "; ".join(run.problems[-3:]),
              file=sys.stderr)
        return 1

    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in units.items()}
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(),
           "numpy": run.last.get("numpy"), "scipy": run.last.get("scipy"),
           "blas": run.last.get("blas"), "process_threads": run.last.get("process_threads"),
           "blas_env": {k: v for k, v in os.environ.items()
                        if k.endswith("_NUM_THREADS")},
           "steal_s": (_steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK")}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "configs": [c["name"] for c in run.cfgs], "sha256": run.last.get("sha256"),
              "feedback_residuals": run.last.get("feedback_residuals"),
              "errors": run.error_types, "problems": run.problems, "env": env,
              "samples": samples, "raw": run.raw, "elapsed_s": run.elapsed()}
    with open(os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"elapsed {run.elapsed():.1f} s")
    for name, unit in units.items():
        print(f"  {name} [{unit}]: {_spread(samples[name])}")
    if args.trace:
        kernel = (metrics["projector.apply_projection.self_s"]["value"]
                  + metrics["series.eval_bilinear.self_s"]["value"])
        print(f"  kernel share (apply_projection + eval_bilinear self time): "
              f"{kernel / metrics['trace.report_s']['value']:.1%} of traced report_s")
        if run.last["missing"]:
            print(f"  not traced, not found in the package: {run.last['missing']}")
    for cfg_name, sha in zip(detail["configs"], detail["sha256"] or []):
        print(f"  report sha256 {cfg_name}: {sha}")
    for cfg_name, res in zip(detail["configs"], detail["feedback_residuals"] or []):
        if res is not None:
            print(f"  feedback_residuals {cfg_name}: {res}")
    print(f"  operations: {run.attempted} attempted, {run.failed} failed {run.error_types}")
    for problem in run.problems:
        print(f"  PROBLEM: {problem}")
    print(f"  env: {json.dumps(env, sort_keys=True)}")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
