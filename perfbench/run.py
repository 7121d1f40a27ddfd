"""hyplab benchmark: run one workload in a fresh process and check its outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from ``src``.
Workloads, metrics and references are described in ``perfbench/NOTES.md``.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics: the median over passes of a pass's wall time relative to a fixed
reference kernel timed around it, the median set-up time of several fresh
processes, and the peak resident memory of the measuring process.  The
pass wall times themselves are on an earlier line.
With ``--trace 1`` untraced and traced passes alternate in one process and
the last line carries the per-layer metrics of the traced passes.  Either
way every output of every pass is checked, and ``attempted``/``failed``
count the checked operations.  Earlier lines record the machine, the inputs
and the check results.  Exit code 0 means a result was printed; anything
else means the run could not be measured.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SRC = os.path.join(ROOT, "src")

import checks  # noqa: E402
from tracer import self_times  # noqa: E402
from workloads import WORKLOADS, configs  # noqa: E402

# fresh processes whose set-up time is measured; the median is reported
SETUP_SAMPLES = 9
# the whole run, set-up samples included, ends within this many seconds
DEADLINE_S = 170.0

END_TO_END = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "config.load_config.busy_s": "s",
    "cli.self_s": "s",
    "energy.evolve_frequency.calls": "count",
    "energy.evolve_frequency.self_s": "s",
    "energy.evolve_frequency.s_per_call_top": "s",
    "energy.evolve_frequency.s_per_call_low": "s",
    "energy.estimate_loss.self_s": "s",
    "companion.characteristic_roots.calls": "count",
    "companion.characteristic_roots.self_s": "s",
    "companion.roots_on_times.calls": "count",
    "companion.roots_on_times.points": "count",
    "companion.roots_on_times.self_s": "s",
    "coefficients.mollify.calls": "count",
    "coefficients.mollify.points": "count",
    "coefficients.mollify.self_s": "s",
    "coefficients.mollified_derivative.calls": "count",
    "coefficients.mollified_derivative.self_s": "s",
    "coefficients.verify_reg_bounds.self_s": "s",
    "diagonalizers.m3_weights.calls": "count",
    "diagonalizers.m3_weights.busy_s": "s",
    "diagonalizers.m3_weights.self_s": "s",
    "moduli.inverse_bisect.calls": "count",
    "moduli.inverse_bisect.self_s": "s",
    "moduli.admissibility_check.self_s": "s",
    "weights.classify.calls": "count",
    "weights.classify.self_s": "s",
    "weights.estimate_order.calls": "count",
    "weights.estimate_order.self_s": "s",
    "tables.local_condition_rows.self_s": "s",
    "tables.additional_local_condition_rows.self_s": "s",
    "tables.weight_order_rows.self_s": "s",
    "tables.summary_rows.self_s": "s",
    "conjugation.theta_integral_bound.self_s": "s",
    "zygmund.norm_equivalence_report.self_s": "s",
    "trace.overhead_frac": "ratio",
    "check.result_err_max": "1",
}

EVOLVE = "energy.evolve_frequency"


class RunFailed(Exception):
    """The run could not be measured; no result is printed."""


def _worker(args, workdir, deadline, setup_only=False):
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=SRC)
    # one thread per library: the benchmark measures one client on one core,
    # and on a small shared machine extra threads measure the scheduler
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker exceeded the {DEADLINE_S:.0f} s budget") from exc
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def layer_metrics(spans, traced_passes):
    """Per-layer metrics of each traced pass, as medians over those passes."""
    selfs = self_times(spans)

    def one_pass(p):
        lo, hi = p["spans"]
        calls, busy, own, points, evolve = {}, {}, {}, {}, []
        for i in range(lo, hi):
            name, start, end, _, tag = spans[i]
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + selfs[i]
            if name == EVOLVE:
                evolve.append((tag, end - start))
            elif tag is not None:
                points[name] = points.get(name, 0) + tag
        fields = {"calls": calls, "busy_s": busy, "self_s": own, "points": points}
        values = {}
        for metric in PER_LAYER:
            span, field = metric.rsplit(".", 1)
            if span == "cli":
                values[metric] = sum(v for k, v in own.items() if k.startswith("cli."))
            elif field in fields:
                values[metric] = fields[field].get(span, 0 if PER_LAYER[metric] == "count" else 0.0)
        values[EVOLVE + ".s_per_call_top"] = _decade_mean(evolve, top=True)
        values[EVOLVE + ".s_per_call_low"] = _decade_mean(evolve, top=False)
        return values

    per_pass = [one_pass(p) for p in traced_passes]
    return {m: statistics.median(v[m] for v in per_pass) for m in per_pass[0]}


def _decade_mean(calls, top):
    """Mean seconds per call over the top or bottom decade of the frequencies called."""
    if not calls:
        return 0.0
    xis = [xi for xi, _ in calls]
    if top:
        chosen = [d for xi, d in calls if xi >= max(xis) / 10.0 * (1.0 - 1e-9)]
    else:
        chosen = [d for xi, d in calls if xi <= min(xis) * 10.0 * (1.0 + 1e-9)]
    return sum(chosen) / len(chosen)


def _machine(args, numpy_version, python_version):
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "hyplab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": python_version,
        "numpy": numpy_version,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args):
    """Run the workload; return (result line, info lines)."""
    missing = [p for p in [os.path.join("src", "hyplab", "cli.py")] + configs(args.workload)
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        raise RunFailed(f"not a hyplab checkout: missing {', '.join(missing)}")
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        # set-up samples bracket the measuring process, so their median sees
        # the machine as it was at both ends of the run
        setups = [_worker(args, workdir, deadline, setup_only=True) for _ in range(SETUP_SAMPLES // 2)]
        result = _worker(args, workdir, deadline)
        setups += [result] + [_worker(args, workdir, deadline, setup_only=True) for _ in range(SETUP_SAMPLES // 2)]
        setups = [s["setup_s"] for s in setups]
        passes = result["passes"]

        sys.path.insert(0, SRC)
        energy = next((c for c in WORKLOADS[args.workload] if c.subcommand == "energy"), None)
        oracle = checks.energy_oracle(energy.config, args.seed) if energy else None
        outcome = checks.Outcome()
        for p in passes:
            rcs = {c["label"]: c["rc"] for c in p["commands"]}
            outcome.merge(checks.check_pass(args.workload, p["dir"], rcs, oracle))

        if args.trace:
            with open(os.path.join(workdir, "spans.json"), encoding="utf-8") as fh:
                spans = json.load(fh)
            traced = [p for p in passes if p["traced"]]
            values = layer_metrics(spans, traced)
            untraced = [p for p in passes if not p["traced"]]
            values["trace.overhead_frac"] = _median(traced, "wall_rel") / _median(untraced, "wall_rel") - 1.0
            values["check.result_err_max"] = outcome.max_dev
            units = PER_LAYER
        else:
            values = {
                "wall_rel": _median(passes, "wall_rel"),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": result["peak_rss_mb"],
            }
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only succeeds once no run is using it

    info = [
        "machine " + json.dumps(_machine(args, result["numpy"], result["python"])),
        "passes " + json.dumps([
            {"traced": p["traced"], "wall_s": round(p["wall_s"], 4), "ref_s": round(p["ref_s"], 5),
             "commands": {c["label"]: [c["rc"], round(c["seconds"], 4)] for c in p["commands"]}}
            for p in passes
        ]),
        "wall " + json.dumps({
            "wall_s": _median(passes, "wall_s"), "ref_s": _median(passes, "ref_s"), "passes": len(passes)
        }),
        "setup_s " + json.dumps([round(s, 4) for s in setups]),
        "checks " + json.dumps({
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "ops_failed_frac": outcome.failed / max(outcome.attempted, 1),
            "result_err_max": outcome.max_dev,
        }),
    ] + [f"FAILED {msg}" for msg in outcome.problems[:20]]
    line = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return line, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    os.chdir(ROOT)  # workload config paths are relative to the root
    # on SIGTERM, unwind: the running worker is killed and waited for, and
    # the working directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        line, info = measure(args)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for text in info:
        print(text)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
