"""One repetition of a workload, in a fresh process.

Usage: python3 perfbench/child.py [--setup-only] [--trace-out PATH] CONFIG...

Imports the package, validates every config with ``bergman.cli.load_config``
(the end of set-up), then runs ``bergman.cli.run`` and ``report_json`` on each
config in turn (the timed interval).  A ``reference.Sampler`` times a short
fixed computation every 0.1 s throughout; the timed interval's wall, CPU and
span times are reported without the ticks' time and rescaled to the nominal
host speed.  Prints one JSON line with the timings, the reports, and, with
``--trace-out``, the per-layer summary of a traced run.
The package must be importable from the ``src`` directory next to this
benchmark; the process exits with code 3 if it is imported from anywhere else.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time

from reference import Sampler

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def blas_info() -> dict:
    """Thread count and build string of each OpenBLAS loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and ".so" in line})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None:
                    continue
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                config = None
                if get_config is not None:
                    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                    config = get_config().decode()
                out[os.path.basename(path)] = {"threads": get_threads(),
                                               "config": config}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("configs", nargs="+")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)
    sampler = Sampler()
    sampler.start()
    try:
        return _run(args, sampler)
    finally:
        sampler.stop()


def _run(args, sampler: Sampler) -> int:
    from bergman import cli

    if os.path.commonpath([os.path.abspath(cli.__file__), SRC]) != SRC:
        print(f"bergman imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    cfgs = [cli.load_config(path) for path in args.configs]
    validated_at = time.monotonic()
    setup_ticks_s, setup_scale = sampler.between(0.0, validated_at)
    setup = {"validated_at": validated_at, "setup_ticks_s": setup_ticks_s,
             "setup_scale": setup_scale}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    cpu0, wall0 = time.process_time(), time.monotonic()
    reports = [cli.report_json(cli.run(cfg)) for cfg in cfgs]
    wall1, cpu1 = time.monotonic(), time.process_time()
    ticks_s, scale = sampler.between(wall0, wall1)

    result = {
        **setup,
        "report_s": (wall1 - wall0 - ticks_s) * scale,
        "cpu_s": (cpu1 - cpu0 - ticks_s) * scale,
        "raw": {"report_s": wall1 - wall0, "cpu_s": cpu1 - cpu0, "ticks_s": ticks_s,
                "scale": scale},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "process_threads": len(os.listdir("/proc/self/task")),
        "reports": reports,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace_out)
        result["layers"] = tracer.summary()
        for row in result["layers"].values():
            row["s"] *= scale
            row["self_s"] *= scale
        result["missing"] = tracer.missing
    import numpy
    import scipy
    result.update(numpy=numpy.__version__, scipy=scipy.__version__, blas=blas_info())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
