"""The benchmark tracer's contract with the package, checked in one process.

perfbench/tracer.py wraps package functions from outside.  Its counters
read the arguments of apply_projection, eval_grid and eval_bilinear by
position, and the results of __mul__ and gram_bergman by attribute.  A
traced run must print the bytes an untraced run prints, every target must
resolve, and no counter may raise.  The call counts are pinned by
perfbench's own tests (python -m pytest perfbench), not here.
"""

import os
import sys

import pytest

from bergman import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def reports(cfgs):
    return [cli.report_json(cli.run(cli.config_from_dict(cfg))) for cfg in cfgs]


@pytest.mark.parametrize("workload", ["quartic-report", "dense-amplitude", "oracle-verify"])
def test_traced_run_prints_the_untraced_bytes(workload):
    cfgs = workloads.configs(workload, 0)
    plain = reports(cfgs)
    tracer = Tracer()
    tracer.install()
    try:
        # a counter that raises is not a BergmanError, so run lets it out
        traced = reports(cfgs)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert traced == plain
    # the tracer was live for the whole run
    assert tracer.summary()["cli.report_json"]["calls"] == len(cfgs)
