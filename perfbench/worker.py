"""One fresh benchmark process: set up, then run passes of a workload.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR [--setup-only]

Set-up is timed from before ``import hyplab.cli`` to after ``load_config`` on
every config of the workload, so nothing here imports numpy before it.  A
pass runs the workload's commands once through ``hyplab.cli.main``, each
with its own ``--out`` directory under ``DIR/pass_K`` and its standard
output captured to ``DIR/pass_K/<label>.stdout``.  Passes repeat while one
more is expected to end within ``--seconds``, and at least twice.  Before
the first pass and after each one, a fixed reference kernel that does not
use hyplab is timed; each pass's wall time is also given over the mean of
the kernel times on either side of it, which takes out much of the host's
drift in speed.  With ``--trace 1`` untraced and traced passes alternate,
and the spans go to ``DIR/spans.json``.  The last line of standard output
is a JSON summary.

The program under test must be importable (the caller puts ``src`` on
``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

from workloads import WORKLOADS, configs

# the reference kernel runs at least this long before the first pass and
# after each one, and at least this share of the pass before it: a short
# window measures the host's momentary speed, which a long pass averages out
REF_MIN_S = 0.3
REF_SHARE = 0.1


def _setup(workload):
    start = time.perf_counter()
    cli = importlib.import_module("hyplab.cli")
    config = importlib.import_module("hyplab.config")
    for path in configs(workload):
        config.load_config(path)
    return cli, time.perf_counter() - start


def _run_pass(cli, workload, seed, passdir):
    os.makedirs(passdir)
    commands = []
    for cmd in WORKLOADS[workload]:
        buf = io.StringIO()
        argv = cmd.argv(os.path.join(passdir, cmd.label), seed)
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)  # looked up at call time, so the tracer sees it
        seconds = time.perf_counter() - start
        with open(os.path.join(passdir, cmd.label + ".stdout"), "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
        commands.append({"label": cmd.label, "rc": rc, "seconds": seconds})
    return commands


def _reference_kernel(numpy):
    """Fixed work that does not use hyplab, of the two kinds a pass runs most:
    an interpreted loop, and many small numpy calls.  Returns a function that
    runs it once."""
    small = numpy.random.default_rng(0).random((4, 4))

    def once():
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        for _ in range(300):
            numpy.linalg.eigvals(small)
        return acc

    return once


def _reference_s(kernel, min_seconds):
    """Mean seconds per run of ``kernel`` over at least ``min_seconds``."""
    runs = 0
    start = time.perf_counter()
    while True:
        kernel()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / runs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cli, setup_s = _setup(args.workload)
    result = {"setup_s": setup_s}
    if not args.setup_only:
        import numpy

        from tracer import Tracer

        tracer = Tracer() if args.trace else None
        kernel = _reference_kernel(numpy)
        kernel()  # warm-up: first calls load and cache what numpy needs
        passes = []
        start = time.perf_counter()
        ref_before = _reference_s(kernel, REF_MIN_S)
        # at least two passes, so a median never rests on one pass of the
        # slowest workload; another starts only if a typical pass still fits
        while len(passes) < 2 or (
            time.perf_counter() - start + statistics.median(p["wall_s"] for p in passes) <= args.seconds
        ):
            traced = tracer is not None and len(passes) % 2 == 1
            first_span = len(tracer.spans) if traced else 0
            if traced:
                tracer.install()
            try:
                passdir = os.path.join(args.workdir, f"pass_{len(passes)}")
                commands = _run_pass(cli, args.workload, args.seed, passdir)
            finally:
                if traced:
                    tracer.uninstall()
            wall = sum(c["seconds"] for c in commands)
            ref_after = _reference_s(kernel, max(REF_MIN_S, REF_SHARE * wall))
            ref = (ref_before + ref_after) / 2.0
            ref_before = ref_after
            passes.append(
                {
                    "dir": passdir,
                    "traced": traced,
                    "wall_s": wall,
                    "ref_s": ref,
                    "wall_rel": wall / ref,
                    "commands": commands,
                    "spans": [first_span, len(tracer.spans)] if traced else None,
                }
            )
        if tracer:
            tracer.dump(os.path.join(args.workdir, "spans.json"))
        result.update(
            passes=passes,
            # ru_maxrss is in KiB on Linux
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            python=platform.python_version(),
            numpy=numpy.__version__,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
