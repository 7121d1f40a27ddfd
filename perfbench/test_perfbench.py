"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

The traced-run tests run each workload once untraced and once traced
(about a minute in all, most of it the loss sweep).
"""

from __future__ import annotations

import csv
import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


# -- tracer ------------------------------------------------------------------


def _bindings():
    import hyplab.cli  # noqa: F401  (imports every traced module)
    from hyplab import cli, moduli, tables

    snap = {name: vars(mod).copy() for name, mod in sys.modules.items() if name.startswith("hyplab.")}
    snap["TABLE_BUILDERS"] = dict(tables.TABLE_BUILDERS)
    snap["COMMANDS"] = dict(cli.COMMANDS)
    snap["inverse_bisect"] = vars(moduli.AuxiliaryFunction)["inverse_bisect"]
    return snap


def test_tracer_replaces_every_binding_and_restores_it():
    from hyplab import cli, energy, moduli, tables

    before = _bindings()
    tracer = Tracer().install()
    try:
        assert tracer.escaped_bindings() == []
        assert cli.evolve_frequency is energy.evolve_frequency
        assert cli.evolve_frequency.__wrapped__ is before["hyplab.energy"]["evolve_frequency"]
        assert tables.TABLE_BUILDERS["summary"].__wrapped__ is before["TABLE_BUILDERS"]["summary"]
        assert cli.COMMANDS["verify"].__wrapped__ is before["COMMANDS"]["verify"]
        assert vars(moduli.AuxiliaryFunction)["inverse_bisect"].__wrapped__ is before["inverse_bisect"]
        moduli.log_reciprocal(1.0).inverse_bisect(0.2)
    finally:
        tracer.uninstall()
    assert [s[0] for s in tracer.spans] == ["moduli.log_reciprocal", "moduli.inverse_bisect"]
    after = _bindings()
    for key, snap in before.items():
        if isinstance(snap, dict):
            assert after[key].keys() == snap.keys(), key
            assert all(after[key][k] is v for k, v in snap.items()), key
        else:
            assert after[key] is snap


def test_self_time_subtracts_children():
    spans = [
        ("a", 0.0, 10.0, -1, None),
        ("b", 1.0, 4.0, 0, None),
        ("c", 2.0, 3.0, 1, None),
        ("d", 5.0, 9.0, 0, None),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


# -- traced runs -------------------------------------------------------------


def _traced_pair(workload, workdir):
    """One untraced and one traced pass of a workload in one worker process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", "1", "--workdir", str(workdir)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(workdir, "spans.json"), encoding="utf-8") as fh:
        spans = json.load(fh)
    return result["passes"], spans


def _same_tree(a, b):
    cmp = filecmp.dircmp(a, b)
    assert not cmp.left_only and not cmp.right_only, (cmp.left_only, cmp.right_only)
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    assert not mismatch and not errors, (mismatch, errors)
    for sub in cmp.common_dirs:
        _same_tree(os.path.join(a, sub), os.path.join(b, sub))


def _derived_counts(workload):
    """Call counts that follow from the workload's inputs (None: only nonzero)."""
    from hyplab.config import load_config

    cfg = load_config(os.path.join(ROOT, WORKLOADS[workload][0].config))
    if workload == "loss_sweep":
        return {"energy.evolve_frequency.calls": len(cfg.loss_gammas) * cfg.loss_xi_grid.size}
    if workload == "verify_rough":
        # verify evaluates m3_weights on every (size // 8)-th frequency, and
        # each call takes roots at s and at s -/+ eps/8
        n_m3 = cfg.xi_grid[:: max(1, cfg.xi_grid.size // 8)].size
        assert n_m3 == 9
        return {"diagonalizers.m3_weights.calls": n_m3, "companion.roots_on_times.calls": 3 * n_m3}
    return {"moduli.inverse_bisect.calls": None, "weights.classify.calls": None}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_pass_matches_untraced_and_derived_counts(workload, tmp_path):
    passes, spans = _traced_pair(workload, tmp_path)
    assert [p["traced"] for p in passes] == [False, True]
    _same_tree(passes[0]["dir"], passes[1]["dir"])

    oracle = None
    energy = next((c for c in WORKLOADS[workload] if c.subcommand == "energy"), None)
    if energy:
        oracle = checks.energy_oracle(os.path.join(ROOT, energy.config), 5)
    for p in passes:
        rcs = {c["label"]: c["rc"] for c in p["commands"]}
        outcome = checks.check_pass(workload, p["dir"], rcs, oracle)
        assert outcome.attempted > 0 and outcome.failed == 0, outcome.problems
        # every pass is timed against the reference kernel run around it
        assert p["ref_s"] > 0 and p["wall_rel"] == p["wall_s"] / p["ref_s"]

    metrics = run.layer_metrics(spans, [passes[1]])
    assert metrics.keys() >= set(run.PER_LAYER) - {"trace.overhead_frac", "check.result_err_max"}
    for name, want in _derived_counts(workload).items():
        if want is None:
            assert metrics[name] > 0, name
        else:
            assert metrics[name] == want, name
    if workload == "verify_rough":
        assert metrics["energy.evolve_frequency.calls"] == 0


# -- output checks fail on perturbed outputs ---------------------------------


def _rewrite_csv(path, row, col, fn):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = fn(rows[row][col])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_loss_check_fails_on_perturbed_row(tmp_path):
    shutil.copyfile(os.path.join(checks.REFERENCE, "loss_sweep.csv"), tmp_path / "loss.csv")
    assert checks.check_loss(tmp_path).failed == 0
    _rewrite_csv(tmp_path / "loss.csv", 3, 1, lambda v: repr(float(v) + 2 * checks.LOSS_TOL))
    out = checks.check_loss(tmp_path)
    assert (out.attempted, out.failed) == (4, 1)
    os.remove(tmp_path / "loss.csv")
    assert checks.check_loss(tmp_path).failed == 4


def _verify_stdout(verdicts):
    return "".join(f"{name:<28} {v}  C=1\n" for name, v in verdicts.items())


@pytest.mark.parametrize("ref_name", ["verify_holder05.json", "verify_loglip.json"])
def test_verify_check_fails_on_changed_verdict_or_exit(ref_name):
    with open(os.path.join(checks.REFERENCE, ref_name), encoding="utf-8") as fh:
        ref = json.load(fh)
    good = _verify_stdout(ref["verdicts"])
    assert checks.check_verify(good, ref["exit"], ref_name).failed == 0
    flipped = dict(ref["verdicts"], reg_bound_v="FAIL" if ref["verdicts"]["reg_bound_v"] == "PASS" else "PASS")
    assert checks.check_verify(_verify_stdout(flipped), ref["exit"], ref_name).failed == 1
    assert checks.check_verify(good, 1 - min(ref["exit"], 1), ref_name).failed == 1
    assert checks.check_verify(good + "extra_check PASS\n", ref["exit"], ref_name).failed == 1


def test_verify_rough_reference_is_the_documented_outcome():
    with open(os.path.join(checks.REFERENCE, "verify_holder05.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    assert ref["exit"] == 3
    assert sorted(n for n, v in ref["verdicts"].items() if v == "FAIL") == ["reg_bound_iii", "reg_bound_vi"]


def test_table_and_classification_checks_fail_on_perturbed_value(tmp_path):
    ref = os.path.join(checks.REFERENCE, "lab_smooth")
    for name in sorted(os.listdir(ref)):
        shutil.copyfile(os.path.join(ref, name), tmp_path / name)
        if name.endswith(".csv"):
            assert checks.check_table(tmp_path / name, os.path.join(ref, name)).failed == 0
            _rewrite_csv(tmp_path / name, 2, 3, lambda v: repr(float(v) * (1 + 1e-4) + 1e-4))
            assert checks.check_table(tmp_path / name, os.path.join(ref, name)).failed == 1, name
    path = tmp_path / "classification.json"
    assert checks.check_classification(path, os.path.join(ref, "classification.json")).failed == 0
    payload = json.loads(path.read_text())
    payload["m0"] += 1e-4
    path.write_text(json.dumps(payload))
    assert checks.check_classification(path, os.path.join(ref, "classification.json")).failed == 1


def test_energy_check_fails_on_perturbed_norm(tmp_path):
    config = next(c.config for c in WORKLOADS["lab_smooth"] if c.subcommand == "energy")
    oracle = checks.energy_oracle(os.path.join(ROOT, config), 11)
    with open(tmp_path / "traces.csv", "w", encoding="utf-8") as fh:
        fh.write("xi,t,norm\n")
        for tr in oracle:
            fh.writelines(f"{tr.xi:.12g},{t:.12g},{n:.12g}\n" for t, n in zip(tr.times, tr.norms))
    out = checks.check_energy(tmp_path, oracle)
    assert (out.attempted, out.failed) == (len(oracle), 0)
    _rewrite_csv(tmp_path / "traces.csv", 300, 2, lambda v: repr(float(v) + 1e-4))
    assert checks.check_energy(tmp_path, oracle).failed == 1
    # traces from other initial data are caught
    other = checks.energy_oracle(os.path.join(ROOT, config), 12)
    assert checks.check_energy(tmp_path, other).failed == len(oracle)
