"""Output checks: every output of a pass against its reference or oracle.

One checked operation is one ``loss.csv`` row, one ``verify`` verdict (each
check line, plus the exit code), one table CSV, ``classification.json``, or
one energy frequency trace.  A mismatch counts the operation as failed.

A number is compared by its scaled deviation |got - want| / max(1, |want|):
absolute for values up to one (loss exponents, trace norms), relative above.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")

# the reference sweep runs at a quarter of the step factor; the seed code's
# nu0_hat differs from it by about 1e-3
LOSS_TOL = 5e-3
# tables and classification against the seed's own outputs, which carry 12
# significant digits
SEED_TOL = 1e-6
# RK4 traces against the plane-wave closed form (seed code: below 1e-7)
TRACE_TOL = 1e-6


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    max_dev: float = 0.0
    problems: list = field(default_factory=list)

    def op(self, ok, problem=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def deviation(self, got, want):
        dev = abs(got - want) / max(1.0, abs(want))
        if not math.isnan(dev):
            self.max_dev = max(self.max_dev, dev)
        return dev

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.max_dev = max(self.max_dev, other.max_dev)
        self.problems += other.problems


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def check_loss(outdir, ref_path=None, out=None):
    """One operation per reference row of loss.csv, matched by gamma."""
    out = out or Outcome()
    ref = _read_csv(ref_path or os.path.join(REFERENCE, "loss_sweep.csv"))
    header, want_rows = ref[0], ref[1:]
    try:
        got = _read_csv(os.path.join(outdir, "loss.csv"))
    except OSError:
        got = []
    got_by_gamma = {row[0]: row for row in got[1:]} if got and got[0] == header else {}
    col = {name: i for i, name in enumerate(header)}
    for want in want_rows:
        row = got_by_gamma.get(want[0])
        if row is None or len(row) != len(header):
            out.op(False, f"loss: no row for gamma={want[0]}")
            continue
        ok = True
        for name in ("xi_min", "xi_max"):
            ok &= math.isclose(float(row[col[name]]), float(want[col[name]]), rel_tol=1e-9)
        for name in ("nu0_hat", "stderr"):
            ok &= out.deviation(float(row[col[name]]), float(want[col[name]])) <= LOSS_TOL
        out.op(ok, f"loss: gamma={want[0]} got {row} want {want}")
    for gamma in sorted(set(got_by_gamma) - {want[0] for want in want_rows}):
        out.op(False, f"loss: unexpected row for gamma={gamma}")
    return out


def parse_verify(stdout):
    """Check name -> 'PASS' or 'FAIL', from the lines ``verify`` prints."""
    verdicts = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[1] in ("PASS", "FAIL"):
            verdicts[parts[0]] = parts[1]
    return verdicts


def check_verify(stdout, rc, ref_name, out=None):
    """One operation per check line of the reference, one per extra line, one for the exit code."""
    out = out or Outcome()
    with open(os.path.join(REFERENCE, ref_name), encoding="utf-8") as fh:
        ref = json.load(fh)
    got = parse_verify(stdout)
    for name, verdict in ref["verdicts"].items():
        out.op(got.get(name) == verdict, f"verify: {name} got {got.get(name)} want {verdict}")
    for name in sorted(set(got) - set(ref["verdicts"])):
        out.op(False, f"verify: unexpected check {name}")
    out.op(rc == ref["exit"], f"verify: exit {rc}, want {ref['exit']}")
    return out


def _cells_match(out, got, want):
    if got == want:
        return True
    g, w = _number(got), _number(want)
    return g is not None and w is not None and out.deviation(g, w) <= SEED_TOL


def check_table(path, ref_path, out=None):
    """One operation: every cell of a table CSV against the seed's table."""
    out = out or Outcome()
    want = _read_csv(ref_path)
    try:
        got = _read_csv(path)
    except OSError:
        got = []
    ok = len(got) == len(want) and got[:1] == want[:1]
    for grow, wrow in zip(got[1:], want[1:]):
        ok &= len(grow) == len(wrow)
        for g, w in zip(grow, wrow):
            ok &= _cells_match(out, g, w)
    out.op(ok, f"table {os.path.basename(path)} differs from the reference")
    return out


def check_classification(path, ref_path, out=None):
    """One operation: every value of classification.json against the seed's."""
    out = out or Outcome()
    with open(ref_path, encoding="utf-8") as fh:
        want = json.load(fh)
    try:
        with open(path, encoding="utf-8") as fh:
            got = json.load(fh)
    except (OSError, ValueError):
        got = {}
    ok = set(got) == set(want)
    for key in set(got) & set(want):
        ok &= out.deviation(float(got[key]), float(want[key])) <= SEED_TOL
    out.op(ok, f"classification.json {got} differs from the reference {want}")
    return out


def energy_oracle(config_path, seed):
    """Plane-wave traces, keyed by frequency, for the initial data ``energy`` uses."""
    from hyplab.config import load_config
    from hyplab.energy import FrequencyExperiment, closed_form_constant_trace

    cfg = load_config(config_path)
    exp = FrequencyExperiment(
        operator=cfg.operator,
        xi_grid=cfg.xi_grid,
        zone=cfg.zone,
        eta=cfg.eta,
        rho=cfg.rho,
        step_factor=cfg.energy_step_factor,
        n_samples=cfg.energy_samples,
        initial=cfg.energy_initial,
        seed=seed,
    )
    return [closed_form_constant_trace(exp, float(xi), u0=exp.initial_vector(i)) for i, xi in enumerate(exp.xi_grid)]


def check_energy(outdir, oracle, out=None):
    """One operation per frequency: its traces.csv rows against the closed form."""
    out = out or Outcome()
    try:
        rows = _read_csv(os.path.join(outdir, "traces.csv"))
    except OSError:
        rows = []
    by_xi = {}
    if rows and rows[0] == ["xi", "t", "norm"]:
        for xi, t, norm in rows[1:]:
            by_xi.setdefault(float(xi), []).append((float(t), float(norm)))
    for tr in oracle:
        key = next((k for k in by_xi if math.isclose(k, tr.xi, rel_tol=1e-11)), None)
        got = by_xi.pop(key, [])
        ok = len(got) == tr.times.size
        for (t, norm), t_ref, n_ref in zip(got, tr.times, tr.norms):
            ok &= abs(t - t_ref) <= 1e-11 * max(1.0, abs(t_ref))
            ok &= out.deviation(norm, float(n_ref)) <= TRACE_TOL
        out.op(ok, f"energy: trace at xi={tr.xi:g} off the closed form")
    for xi in by_xi:
        out.op(False, f"energy: unexpected trace at xi={xi:g}")
    return out


def _stdout(passdir, label):
    try:
        with open(os.path.join(passdir, label + ".stdout"), encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def check_pass(workload, passdir, rcs, oracle=None):
    """Check every output of one pass; ``rcs`` maps command label to exit code.

    ``oracle`` is ``energy_oracle(...)`` for the workloads that run ``energy``.
    """
    out = Outcome()
    if workload == "loss_sweep":
        check_loss(os.path.join(passdir, "loss"), out=out)
    elif workload == "verify_rough":
        check_verify(_stdout(passdir, "verify"), rcs.get("verify"), "verify_holder05.json", out)
    elif workload == "lab_smooth":
        ref = os.path.join(REFERENCE, "lab_smooth")
        for name in sorted(os.listdir(ref)):
            if name.endswith(".csv"):
                check_table(os.path.join(passdir, "tables", name), os.path.join(ref, name), out)
        check_classification(
            os.path.join(passdir, "classify", "classification.json"), os.path.join(ref, "classification.json"), out
        )
        check_verify(_stdout(passdir, "verify"), rcs.get("verify"), "verify_loglip.json", out)
        check_energy(os.path.join(passdir, "energy"), oracle, out)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out
