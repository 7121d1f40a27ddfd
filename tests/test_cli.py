import concurrent.futures
import csv
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hyplab import cli
from hyplab.cli import main
from hyplab.config import ConfigError, load_config
from hyplab.diagonalizers import m3_weights
from hyplab.weights import jbracket

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
# the benchmark's reference outputs of the lab_smooth workload (read only)
LAB_SMOOTH_REF = Path(CONFIGS, "..", "perfbench", "reference", "lab_smooth")
# loglip.cfg's [moduli] section
MODULI = "[moduli]\neta_family = log_reciprocal\neta_param = 1.0\nrho_family = power_law\nrho_param = 1.0\n"
# loglip.cfg from its horizon to its oscillation exponent, and the same span
# with T = 1.2 and gamma_osc = 0.5: the phase (log 1/t)^1.5 ends at t = 1
T_TO_GAMMA = (
    "T = 0.5\n\n[operator]\nm = 2\n\n"
    "[coefficient.2]\nprofile = log_power_oscillation\nbase = 2.0\ndelta = 0.5\ngamma_osc = 0.0"
)
T_PAST_GAMMA_END = T_TO_GAMMA.replace("T = 0.5", "T = 1.2").replace("gamma_osc = 0.0", "gamma_osc = 0.5")


def cfg_path(name):
    return os.path.join(CONFIGS, name)


def test_load_config_loglip():
    cfg = load_config(cfg_path("loglip.cfg"))
    assert cfg.eta.family == "log_reciprocal"
    assert cfg.zone.M == 2.0  # auto floor for the log family
    assert cfg.operator.m == 2
    assert cfg.operator.coeffs[0].profile == "log_power_oscillation"
    assert cfg.operator.coeffs[1] is None
    assert cfg.xi_grid[0] == pytest.approx(4.0)


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[moduli]\neta_family = nope\neta_param = 1\nrho_family = power_law\nrho_param = 1\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    missing = tmp_path / "missing.cfg"
    with pytest.raises(ConfigError):
        load_config(missing)
    noc = tmp_path / "noc.cfg"
    noc.write_text(
        "[moduli]\neta_family = log_reciprocal\neta_param = 1\n"
        "rho_family = power_law\nrho_param = 1\n[zone]\nT = 0.5\n[operator]\nm = 2\n"
    )
    with pytest.raises(ConfigError, match="coefficient"):
        load_config(noc)
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"[moduli]\neta_family = \xff\xfe\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(binary)


def test_cli_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[moduli]\neta_family = nope\neta_param = 1\nrho_family = power_law\nrho_param = 1\n")
    rc = main(["classify", "--config", str(bad)])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("xi_max = 4096", "xi_max = inf", "not a finite number"),
        ("delta = 0.5", "delta = nan", "not a finite number"),
        ("[grids]", "[grid]", "unknown section"),
        ("t_min = 0.01", "t_mni = 0.01", "unknown key"),
        ("gamma_osc = 0.0", "gamma_osc = 0.0\nspatial.family = lacunary\nspatial.amplitude = 0.9", "amplitude"),
        ("t_min = 0.01", "t_min = 0.01\nt_min = 0.02", "already exists"),
        ("[moduli]", "", "no section headers"),
        ("gamma_osc = 0.0", "gamma_osc = 0.0\nspatial.amplitude = 0.9", "amplitude"),
        ("gamma_osc = 0.0", "gamma_osc = 0.0\nspatial.s = 2", r"spatial regularity index must lie in \(0, 2\)"),
        (T_TO_GAMMA, T_PAST_GAMMA_END, r"\[zone\] T=1.2 must lie below 1, the end of \[coefficient.2\]'s time domain"),
        (MODULI, "", r"missing section \[moduli\]"),
        ("eta_param = 1.0\n", "", r"\[moduli\] missing key 'eta_param'"),
        ("xi_min = 4\n", "xi_min = 4096\n", r"\[grids\] needs 0 < xi_min < xi_max"),
        ("points_per_decade = 8", "points_per_decade = 0.1", r"\[grids\] grid has fewer than 2 points"),
        ("N = 2.0", "N = 1", r"\[zone\]: zone constant N must be >= 2"),
        ("T = 0.5", "T = 0", r"\[zone\]: horizon T must be positive"),
        ("T = 0.5", "T = 2.0", r"\[zone\] T=2.0 exceeds the usable range of eta \(max 1.443\)"),
        ("M = auto", "M = -1", r"\[zone\]: frequency floor M must be positive"),
        ("M = auto", "M = abc", r"\[zone\]: could not convert string to float: 'abc'"),
        ("[coefficient.2]", "[coefficient.x]", r"\[coefficient.x\]: subscript must be an integer"),
        ("[coefficient.2]", "[coefficient.3]", r"\[coefficient.3\]: subscript must lie in 1..2"),
        ("m = 2", "m = 2\ndelta_sep = 0", r"\[operator\]: hyperbolicity margin must be positive"),
        ("M = auto", "M = 8", r"\[grids\] xi_min 4.0 below the frequency floor M=8.0"),
        ("t_min = 0.01", "t_min = 0.6", r"\[grids\] t_min must lie in \(0, T\)"),
        ("eps = 0.01", "eps = 0", r"\[fits\] eps must be positive"),
        ("[output]", "[energy]\ninitial = foo\n\n[output]", r"\[energy\] initial must be 'canonical' or 'random'"),
        ("eta_param = 1.0", "eta_param = -1", r"\[moduli\] eta: log_reciprocal power must be positive"),
        (
            "eta_family = log_reciprocal\neta_param = 1.0",
            "eta_family = iterated_log\neta_param = 1.5",
            r"\[moduli\] eta: iterated_log depth must be a positive integer",
        ),
        ("rho_param = 1.0", "rho_param = 1.5", r"\[moduli\] rho: power_law exponent must lie in \(0, 1\]"),
        ("eta_param = 1.0", "eta_param = 1.0\neta_r0 = -1", r"\[moduli\] eta: r0 must be positive"),
        ("base = 2.0", "base = 0", r"\[coefficient.2\]: base must be positive"),
        ("gamma_osc = 0.0", "gamma_osc = 0.0\nspatial.family = fourier", "only the lacunary spatial family is cataloged"),
        # the verdict thresholds are fixed in the cli, not read from a config
        ("eps = 0.01", "eps = 0.01\ngrowth_tol = 2", r"\[fits\] unknown key 'growth_tol'"),
        ("eps = 0.01", "eps = 0.01\ntheta_slope_max = 0.05", r"\[fits\] unknown key 'theta_slope_max'"),
    ],
    ids=[
        "inf", "nan", "unknown_section", "unknown_key", "spatial_amplitude", "repeated_key", "no_section_header",
        "spatial_amplitude_without_family", "spatial_s_without_family", "horizon_past_log_power_end",
        "missing_moduli", "missing_eta_param", "xi_min_not_below_xi_max", "one_point_grid", "zone_N_below_2",
        "horizon_zero", "horizon_past_eta_range", "floor_negative", "floor_not_a_number", "subscript_not_integer",
        "subscript_above_m", "delta_sep_zero", "xi_min_below_floor", "t_min_past_horizon", "eps_zero",
        "energy_initial", "eta_param_negative", "iterated_log_fractional_depth", "rho_power_above_1",
        "eta_r0_negative", "base_zero", "spatial_family", "growth_tol", "theta_slope_max",
    ],
)
def test_cli_rejects_malformed_config(tmp_path, capsys, old, new, message):
    text = Path(cfg_path("loglip.cfg")).read_text(encoding="utf-8")
    assert old in text
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace(old, new))
    with pytest.raises(ConfigError, match=message):
        load_config(bad)
    assert main(["classify", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, old, new, message",
    [
        ("energy", "xi_max = 4096", "xi_max = 100", "two decades"),
        ("loss", "xi_max = 16384", "xi_max = 1000", "two decades"),
        ("loss", "points_per_decade = 16", "points_per_decade = 2", "need at least 8 points in the top two decades"),
        ("loss", "delta = 0.95", "delta = 1.0", "base/2"),
        ("loss", "gammas = 0, 0.5, 1.0, 1.5", "gammas = 0, -0.5", "nonnegative"),
        # the configured gamma is 0, but the sweep's gamma = 0.5 ends the coefficient at t = 1
        ("loss", "T = 0.5", "T = 1.2", "horizon T=1.2 must lie below 1"),
    ],
    ids=[
        "energy_short_grid", "loss_short_grid", "loss_sparse_fit", "loss_delta", "loss_negative_gamma",
        "loss_horizon_past_log_power_end",
    ],
)
def test_cli_sweep_rejects_settings_before_integrating(tmp_path, capsys, monkeypatch, command, old, new, message):
    def integrate(*args, **kwargs):
        raise AssertionError("a frequency was integrated before the settings were checked")

    monkeypatch.setattr(cli, "evolve_sweep", integrate)  # the entry _sweep calls
    text = Path(cfg_path("loss_sweep.cfg")).read_text(encoding="utf-8")
    assert text.count(old) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace(old, new))
    assert main([command, "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {command}: ") and message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "command, name, old, new, output",
    [
        ("energy", "constant.cfg", "step_factor = 0.02", "step_factor = 1e-14", "traces.csv"),
        ("loss", "loss_sweep.cfg", "step_factor = 0.1\n\n[energy]", "step_factor = 40\n\n[energy]", "loss.csv"),
    ],
    ids=["energy_step_below_floor", "loss_unstable_steps"],
)
def test_cli_sweep_integrator_failure_exit_code(tmp_path, capsys, command, name, old, new, output):
    # a step below the floor, or steps that turn too much phase, is a
    # configuration error: no traceback, no output file, no nan rows
    text = Path(cfg_path(name)).read_text(encoding="utf-8")
    assert text.count(old) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace(old, new))
    out = tmp_path / "out"
    assert main([command, "--config", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {command}: ") and len(err.splitlines()) == 1
    assert not (out / output).exists()
    assert not out.exists()


def test_cli_loss_zero_step_factor_is_rejected_not_replaced(tmp_path, capsys):
    # [loss] step_factor = 0 is checked as given; it does not fall back to [energy]'s step
    path = Path(CONFIGS, "..", "perfbench", "configs", "loss_sweep.cfg")
    text = path.read_text(encoding="utf-8")
    old = "step_factor = 0.1\n\n[energy]"
    assert text.count(old) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace(old, "step_factor = 0\n\n[energy]"))
    out = tmp_path / "out"
    assert main(["loss", "--config", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "configuration error: loss: step factor must be positive\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, path",
    [
        ("energy", Path(CONFIGS, "..", "perfbench", "configs", "constant_random.cfg")),
        ("energy", Path(CONFIGS, "constant.cfg")),
        ("loss", Path(CONFIGS, "loss_sweep.cfg")),
    ],
    ids=["energy_random", "energy_canonical", "loss"],
)
def test_cli_negative_seed_exits_2_before_any_output(tmp_path, capsys, command, path):
    # a negative seed is rejected with the experiment, random initial data or not
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {command}: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, name, old, new, code, expected",
    [
        ("energy", "loglip.cfg", "m = 2\n", "m = 2\ndelta_sep = 10\n", 2, None),
        ("loss", "loss_sweep.cfg", "m = 2\n", "m = 2\ndelta_sep = 10\n", 2, None),
        ("verify", "loglip.cfg", "m = 2\n", "m = 2\ndelta_sep = 10\n", 3, (("m3_integral_bounded",), "root gap", 1)),
        ("verify", "loglip.cfg", "t_samples = 48", "t_samples = 0", 2, None),
        ("classify", "loglip.cfg", "t_samples = 48", "t_samples = -3", 2, None),
        ("tables", "loglip.cfg", "eps = 0.01", "eps = 0.01\ntable_alpha = 1.5", 2, None),
        ("classify", "loglip.cfg", "xi_max = 4096", "xi_max = 100", 2, None),
        ("energy", "loglip.cfg", T_TO_GAMMA, T_PAST_GAMMA_END, 2, None),
        ("verify", "loglip.cfg", T_TO_GAMMA, T_PAST_GAMMA_END, 2, None),
        # eta(r0) = 0.69^-1e9 is past the float range
        ("verify", "loglip.cfg", "eta_param = 1.0", "eta_param = 1e9", 2, None),
        # eta^-1 underflows to zero on the oscillation bound's times
        ("verify", "loglip.cfg", "eta_param = 1.0", "eta_param = 1e-9", 3, (("oscillation_bound_d1",), "underflowed", 7)),
        ("verify", "loglip.cfg", "t_min = 0.01", "t_min = 1e-300", 3, (("oscillation_bound_d1",), "underflowed", 4)),
        # eps = 1/<xi> = 1e-300 squares to zero, so neither the reg bounds nor
        # the m3 check can mollify; the theta integral saturates at loglip's
        # max, and the weights' first derivatives stay finite down to 1/<xi> = 1e-300
        (
            "verify", "loglip.cfg", "xi_max = 4096", "xi_max = 1e300", 3,
            (
                ("reg_bound", "m3_integral_bounded"), "mollification width 1e-300 is too small", 2,
                "theta_integral_flat PASS slope=-0.0000 max=3.237 at xi=948.9",
                "classification PASS m0=0.0015 s_min=1.0100",
            ),
        ),
        # inside (0, 1), but the Hoelder table's difference stencil leaves eta's range
        (
            "tables", "loglip.cfg", "eps = 0.01", "eps = 0.01\ntable_alpha = 0.999999", 2,
            "configuration error: tables: target outside the range (0, 1.0000000953101844]\n",
        ),
        # the Hoelder closed form t^(-(2-alpha)/(1-alpha)) would overflow, but the
        # roots t^(1/(1-alpha)) of its stencil fall below the smallest normal float first
        (
            "tables", "loglip.cfg", "eps = 0.01", "eps = 0.01\ntable_alpha = 0.995", 2,
            "configuration error: tables: root below the smallest normal float; target too small for this family\n",
        ),
        # not bad after all: at 1/<xi> = 1e-300 the weights read only first
        # derivatives, and W1's order is 1/log(1e300) to 3 digits
        ("classify", "loglip.cfg", "xi_max = 4096", "xi_max = 1e300", 0, (1.0 / math.log(1e300), 1.01)),
        # a % is a literal character, not the start of an interpolation
        (
            "tables", "loglip.cfg", "eta_param = 1.0", "eta_param = 1.0%", 2,
            "configuration error: [moduli] key 'eta_param': could not convert string to float: '1.0%'\n",
        ),
        # m = 3 with a_2 alone: roots 0 and +-xi sqrt(a_2), the middle root's gap sum is zero
        (
            "verify", "loglip.cfg", "m = 2\n", "m = 3\n", 3,
            (("m3_integral_bounded",), "the gap sum of root 1 vanishes at xi=4", 1),
        ),
    ],
    ids=[
        "energy_root_gap", "loss_root_gap", "verify_root_gap", "t_samples_zero", "t_samples_negative", "table_alpha",
        "classify_short_grid", "energy_horizon_past_log_power_end", "verify_horizon_past_log_power_end",
        "verify_eta_past_float_range", "verify_eta_inverse_underflow", "verify_t_min_underflow",
        "verify_xi_max_overflow", "tables_alpha_near_one", "tables_alpha_overflow", "classify_xi_max_overflow",
        "percent_in_value", "verify_m3_gap_sum_zero",
    ],
)
def test_cli_bad_inputs_exit_without_traceback(tmp_path, capsys, command, name, old, new, code, expected):
    # roots closer than delta_sep and out-of-range config values end with an
    # exit code and a message, never with an exception out of main
    text = Path(cfg_path(name)).read_text(encoding="utf-8")
    assert text.count(old) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace(old, new))
    out = tmp_path / "out"
    assert main([command, "--config", str(bad), "--out", str(out)]) == code
    captured = capsys.readouterr()
    if code == 0:  # classify's report: W1's order to 3 digits and the index bound
        got = json.loads(captured.out)
        m0_w1, s_min = expected
        assert captured.err == "" and f"{got['m0_w1']:.3g}" == f"{m0_w1:.3g}" and got["s_min"] == s_min
    elif code == 2:
        assert captured.err.startswith("configuration error: ") and len(captured.err.splitlines()) == 1
        assert expected is None or captured.err == expected  # the first failing table row names the error
        assert not out.exists()
    else:  # verify reports the check it could not evaluate as failed and goes on to the others
        checks, reason, failures, *passing = expected
        assert captured.err == ""
        for check in checks:
            lines = [ln for ln in captured.out.splitlines() if ln.startswith(f"{check} ")]
            assert len(lines) == 1 and lines[0].split()[1] == "FAIL" and reason in lines[0]
        assert captured.out.splitlines()[-1] == f"{failures} check(s) failed"
        assert all(line in [" ".join(ln.split()) for ln in captured.out.splitlines()] for line in passing)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--jobs", "0"], "argument --jobs: must be at least 1, got 0"),
        (["--jobs", "-1"], "argument --jobs: must be at least 1, got -1"),
        (["--force-m0", "1.0"], "unrecognized arguments: --force-m0 1.0"),
    ],
    ids=["jobs_zero", "jobs_negative", "force_m0"],
)
@pytest.mark.parametrize("command", ["classify", "energy"])
def test_cli_bad_flags_exit_2_before_running(tmp_path, capsys, command, flags, message):
    # the one parser rejects a flag for every command alike, before the config is read
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", cfg_path("loglip.cfg"), "--out", str(tmp_path / "out")] + flags)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: hyplab ")
    assert captured.err.splitlines()[-1] == f"hyplab: error: {message}"
    assert not (tmp_path / "out").exists()


def test_cli_config_may_come_before_the_command(tmp_path):
    assert main(["--config", cfg_path("loglip.cfg"), "classify", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "classification.json").exists()


@pytest.mark.parametrize(
    "config, code, err",
    [
        (os.path.abspath(cfg_path("loglip.cfg")), 0, ""),
        (os.path.abspath(cfg_path("holder05.cfg")), 3, ""),  # the rough coefficient fails two documented clauses
        ("missing.cfg", 2, "configuration error: cannot read config file missing.cfg\n"),
    ],
    ids=["loglip", "holder05", "missing_config"],
)
def test_console_entry_point_exit_codes(tmp_path, config, code, err):
    # the exit code the shell sees, from a real interpreter running the module
    env = dict(os.environ, PYTHONPATH=os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src")))
    argv = [sys.executable, "-m", "hyplab.cli", "verify", "--config", config]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (code, err)


@pytest.mark.parametrize("name", ["constant.cfg", "loss_sweep.cfg"])
def test_cli_classify_short_grid_exit_code(tmp_path, capsys, name):
    # these grids span under three decades, too few to fit a weight order
    assert main(["classify", "--config", cfg_path(name), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "three decades" in err
    assert len(err.splitlines()) == 1


def test_cli_verify_constant_reg_bounds_pass(capsys):
    # mollified derivatives of a constant are zero up to round-off
    main(["verify", "--config", cfg_path("constant.cfg")])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("reg_bound_")]
    assert len(lines) == 6
    assert all(ln.split()[1] == "PASS" for ln in lines), lines


def test_cli_verify_sparse_grid_reports_theta_failure(tmp_path, capsys):
    # one point per decade leaves too few in the top decade to fit the theta slope
    sparse = tmp_path / "sparse.cfg"
    text = Path(cfg_path("loglip.cfg")).read_text()
    sparse.write_text(text.replace("points_per_decade = 8", "points_per_decade = 1"))
    assert main(["verify", "--config", str(sparse), "--out", str(tmp_path)]) == 3
    out = capsys.readouterr().out.splitlines()
    theta = [ln for ln in out if ln.startswith("theta_integral_flat")]
    assert len(theta) == 1 and theta[0].split()[1] == "FAIL"
    assert "need at least 3 points in the top decade" in theta[0]
    # the growth fits of the six regularization bounds cannot be made either
    reg = [ln for ln in out if ln.startswith("reg_bound_")]
    assert len(reg) == 6
    assert all(ln.split()[1] == "FAIL" and ln.endswith("need at least 3 points in the top decade") for ln in reg), reg
    assert out[-1].endswith("check(s) failed")


def test_load_config_reads_percent_signs_literally(tmp_path):
    text = Path(cfg_path("loglip.cfg")).read_text(encoding="utf-8")
    assert text.count("directory = out") == 1
    path = tmp_path / "pct.cfg"
    path.write_text(text.replace("directory = out", "directory = out%x"))
    assert load_config(path).outdir == "out%x"
    # no %(name)s lookup either: the value is a malformed number
    path.write_text(text.replace("eta_param = 1.0", "eta_param = 1.0%(x)s"))
    with pytest.raises(ConfigError, match=r"\[moduli\] key 'eta_param'"):
        load_config(path)


@pytest.mark.parametrize("command", ["tables", "classify"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_cli_out_blocked_by_a_file_exits_2(tmp_path, capsys, command, under):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "sub" if under else blocker
    assert main([command, "--config", cfg_path("loglip.cfg"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot create output directory {out}: ") and err.count("\n") == 1
    assert blocker.read_text() == ""


def test_shipped_configs_load():
    bench = os.path.join(CONFIGS, "..", "perfbench", "configs")
    paths = [os.path.join(d, f) for d in (CONFIGS, bench) for f in sorted(os.listdir(d))]
    assert len(paths) >= 6
    for path in paths:
        load_config(path)


def test_cli_tables(tmp_path, capsys):
    rc = main(["tables", "--config", cfg_path("loglip.cfg"), "--out", str(tmp_path)])
    assert rc == 0
    names = {
        "local_condition.csv",
        "additional_local_condition.csv",
        "weight_orders.csv",
        "summary.csv",
    }
    assert names <= set(os.listdir(tmp_path))
    local = (tmp_path / "local_condition.csv").read_text().splitlines()
    assert local[0] == "family,param,closed_form,fitted,rel_err"
    assert local[1].startswith("lipschitz,1,excluded,excluded")
    summary = (tmp_path / "summary.csv").read_text()
    assert "log_lipschitz" in summary and "forced_m0" in summary


def _scaled_match(got, want):
    # the benchmark's rule: equal text, or |got - want| / max(1, |want|) <= 1e-6
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return abs(g - w) <= 1e-6 * max(1.0, abs(w))


def test_cli_tables_and_classify_match_benchmark_reference(tmp_path):
    for sub in ("x", "y"):
        assert main(["tables", "--config", cfg_path("loglip.cfg"), "--out", str(tmp_path / sub)]) == 0
    assert main(["classify", "--config", cfg_path("loglip.cfg"), "--out", str(tmp_path / "c")]) == 0
    for name in ("local_condition", "additional_local_condition", "weight_orders", "summary"):
        got = (tmp_path / "x" / f"{name}.csv").read_bytes()
        assert got == (tmp_path / "y" / f"{name}.csv").read_bytes()
        got_rows = list(csv.reader(got.decode().splitlines()))
        want_rows = list(csv.reader((LAB_SMOOTH_REF / f"{name}.csv").read_text().splitlines()))
        assert [len(r) for r in got_rows] == [len(r) for r in want_rows], name
        cells = [(g, w) for gr, wr in zip(got_rows, want_rows) for g, w in zip(gr, wr)]
        assert all(_scaled_match(g, w) for g, w in cells), name
    got = json.loads((tmp_path / "c" / "classification.json").read_text())
    want = json.loads((LAB_SMOOTH_REF / "classification.json").read_text())
    assert set(got) == set(want)
    assert all(_scaled_match(got[k], want[k]) for k in want), (got, want)


@pytest.mark.parametrize("name", ["holder05", "loglip"])
def test_cli_verify_matches_benchmark_reference_verdicts(tmp_path, capsys, name):
    # the benchmark's verify gate: the same checks, verdicts and exit code
    want = json.loads((LAB_SMOOTH_REF.parent / f"verify_{name}.json").read_text())
    rc = main(["verify", "--config", cfg_path(f"{name}.cfg"), "--out", str(tmp_path)])
    lines = [ln.split() for ln in capsys.readouterr().out.splitlines()]
    got = {p[0]: p[1] for p in lines if len(p) >= 2 and p[1] in ("PASS", "FAIL")}
    assert (got, rc) == (want["verdicts"], want["exit"])
    if name == "holder05":
        assert rc == 3 and sorted(k for k, v in got.items() if v == "FAIL") == ["reg_bound_iii", "reg_bound_vi"]


def test_cli_verify_reg_bound_lines_name_the_peak(capsys):
    cfg = load_config(cfg_path("holder05.cfg"))
    main(["verify", "--config", cfg_path("holder05.cfg")])
    lines = [ln.split() for ln in capsys.readouterr().out.splitlines() if ln.startswith("reg_bound_")]
    assert len(lines) == 6
    for parts in lines:
        assert parts[2].startswith("C=") and parts[3].startswith("growth=x")
        t = float(parts[5].removeprefix("(t=").rstrip(","))
        xi = float(parts[6].removeprefix("xi=").rstrip(")"))
        assert parts[4] == "at" and 0.0 < t <= cfg.zone.T
        assert np.min(np.abs(cfg.xi_grid / xi - 1.0)) < 1e-3


def test_cli_verify_m3_line_names_the_peak(capsys):
    # the absorption check runs on the whole grid and names the frequency of its maximum
    cfg = load_config(cfg_path("holder05.cfg"))
    main(["verify", "--config", cfg_path("holder05.cfg")])
    (parts,) = [ln.split() for ln in capsys.readouterr().out.splitlines() if ln.startswith("m3_integral_bounded")]
    m3 = np.max(np.abs(m3_weights(cfg.operator, cfg.xi_grid, cfg.zone.T)), axis=-1)
    assert parts[2] == f"max={np.max(m3):.4g}" and parts[3] == "at"
    assert float(parts[4].removeprefix("xi=")) == pytest.approx(cfg.xi_grid[np.argmax(m3)], rel=1e-3)


def test_cli_classify_holder(tmp_path, capsys):
    rc = main(["classify", "--config", cfg_path("holder05.cfg"), "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "classification.json").read_text())
    assert rep["s_min"] == pytest.approx(1.01)
    assert rep["m0"] == pytest.approx(0.5, abs=0.05)


def test_cli_energy_trace_output_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        rc = main(["energy", "--config", cfg_path("constant.cfg"), "--out", str(out)])
        assert rc == 0
    b1 = (out1 / "traces.csv").read_bytes()
    b2 = (out2 / "traces.csv").read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "xi,t,norm"
    cfg = load_config(cfg_path("constant.cfg"))
    assert len(lines) == 1 + cfg.xi_grid.size * cfg.energy_samples


def test_cli_verify_passes_on_matched_config(capsys):
    rc = main(["verify", "--config", cfg_path("loglip.cfg")])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "all checks passed" in out
    # superset runner: admissibility, classification, six bound clauses,
    # oscillation bounds, theta integral, absorption integrals, norms
    for fragment in (
        "admissible_eta",
        "admissible_rho",
        "classification",
        "reg_bound_vi",
        "oscillation_bound_d2",
        "theta_integral_flat",
        "m3_integral_bounded",
        "norm_equivalence",
    ):
        assert fragment in out
    assert out.count("PASS") >= 15


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("xi_max", ["1e300", "1e9"])
def test_cli_energy_over_the_work_budget_exits_before_integrating(tmp_path, capsys, monkeypatch, xi_max, jobs):
    # at xi_max = 1e300 the steps also fall below the floor from xi = 5e9 on;
    # the plans alone find the first frequency to fail, here on the budget
    from hyplab import energy

    def integrate(*args, **kwargs):
        raise AssertionError("a propagator was formed over the work budget")

    monkeypatch.setattr(energy, "_integrate", integrate)
    text = Path(CONFIGS, "..", "perfbench", "configs", "constant_random.cfg").read_text(encoding="utf-8")
    assert text.count("xi_max = 512") == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace("xi_max = 512", f"xi_max = {xi_max}"))
    start = time.perf_counter()
    assert main(["energy", "--config", str(bad), "--out", str(tmp_path / "out"), "--jobs", jobs]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("configuration error: energy: ") and len(err.splitlines()) == 1
    planned = int(err.split(": ")[2].split()[0])
    assert planned > energy.WORK_BUDGET and f"budget of {energy.WORK_BUDGET}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_energy_over_the_pass_budget_integrates_no_frequency(tmp_path, capsys, monkeypatch, jobs):
    # a budget of 5000 lies above each frequency's own plan (at most 1090
    # steps) but below the pass's 9708: the failed pass is re-planned one
    # frequency at a time, and none of those plans may start integrating
    from hyplab import energy

    def integrate(*args, **kwargs):
        raise AssertionError("a propagator was formed over the work budget")

    monkeypatch.setattr(energy, "_integrate", integrate)
    monkeypatch.setattr(energy, "WORK_BUDGET", 5000)
    cfg = str(Path(CONFIGS, "..", "perfbench", "configs", "constant_random.cfg"))
    assert main(["energy", "--config", cfg, "--out", str(tmp_path / "out"), "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err == (
        "configuration error: energy: 9708 planned Magnus steps and frame nodes exceed "
        "the budget of 5000 per pass (xi up to 512)\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "jobs",
    [
        "1",
        pytest.param(
            "2",
            marks=pytest.mark.skipif(
                multiprocessing.get_start_method() != "fork", reason="only forked workers inherit the patch"
            ),
        ),
    ],
)
def test_cli_energy_non_finite_norm_names_the_first_failing_frequency(tmp_path, capsys, monkeypatch, jobs):
    # NaN Magnus propagators at grid indices 9 and 5 of loglip.cfg, picked by
    # <xi>: the pass fails, and its retry integrates one frequency at a time
    # up to index 5, the first to fail in grid order
    from hyplab import energy

    cfg = load_config(cfg_path("loglip.cfg"))
    bad = jbracket(cfg.xi_grid[[9, 5]])
    magnus, integrate, calls = energy._magnus_propagators, energy._integrate, []

    def nan_rows(coeffs, scale, jb, t, h):
        P = magnus(coeffs, scale, jb, t, h)
        P[:, :, np.isin(jb.ravel(), bad)] = np.nan
        return P

    def record(exp, idx, *plan):
        calls.append(idx.tolist())
        return integrate(exp, idx, *plan)

    monkeypatch.setattr(energy, "_magnus_propagators", nan_rows)
    monkeypatch.setattr(energy, "_integrate", record)
    message = "norm not finite at t=0.00195312, xi=16.9514"
    exp = cli._energy_experiment(cfg, 0, cfg.xi_grid, cfg.operator, cfg.energy_step_factor)
    with pytest.raises(energy.StiffnessError, match=f"^{message}$"):
        energy.evolve_sweep(exp)
    assert calls == [list(range(cfg.xi_grid.size)), [0], [1], [2], [3], [4], [5]]
    assert main(["energy", "--config", cfg_path("loglip.cfg"), "--out", str(tmp_path / "out"), "--jobs", jobs]) == 2
    assert capsys.readouterr().err == f"configuration error: energy: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cli_energy_jobs_parallel_identical(tmp_path):
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    assert main(["energy", "--config", cfg_path("constant.cfg"), "--out", str(out1)]) == 0
    assert main(["energy", "--config", cfg_path("constant.cfg"), "--out", str(out2), "--jobs", "2"]) == 0
    assert (out1 / "traces.csv").read_bytes() == (out2 / "traces.csv").read_bytes()


@pytest.mark.parametrize(
    "argv, output",
    [
        (["energy", "--config", cfg_path("loglip.cfg"), "--seed", "3"], "traces.csv"),
        (["loss", "--config", os.path.join(CONFIGS, "..", "perfbench", "configs", "loss_sweep.cfg")], "loss.csv"),
    ],
    ids=["energy_loglip", "loss_sweep"],
)
def test_cli_sweep_jobs_byte_identical(tmp_path, argv, output):
    # the workers take strided index chunks; each trace is the same whichever
    # frequencies share its batches, and the chunks come back in grid order
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert main(argv + ["--out", str(out), "--jobs", jobs]) == 0
        outs.append((out / output).read_bytes())
    assert outs[0] == outs[1]


def test_cli_loss_starts_one_pool_per_command(tmp_path, monkeypatch):
    # the four gamma sweeps share one pool of workers; --jobs 1 starts none
    pools = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    argv = ["loss", "--config", os.path.join(CONFIGS, "..", "perfbench", "configs", "loss_sweep.cfg")]
    assert main(argv + ["--out", str(tmp_path / "1"), "--jobs", "1"]) == 0
    assert pools == []
    assert main(argv + ["--out", str(tmp_path / "2"), "--jobs", "2"]) == 0
    assert pools == [2]


def test_cli_import_leaves_the_process_pool_out():
    # a fresh interpreter importing the CLI loads neither the pool nor the logging it pulls in
    env = dict(os.environ, PYTHONPATH=os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src")))
    code = "import sys, hyplab.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_cli_loss_writes_the_benchmark_reference_columns(tmp_path):
    # loss.csv holds gamma and then the fields of LossEstimate, in order: a
    # field added there shows up here as a header the reference lacks
    argv = ["loss", "--config", os.path.join(CONFIGS, "..", "perfbench", "configs", "loss_sweep.cfg")]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    got = list(csv.reader((tmp_path / "loss.csv").read_text().splitlines()))
    want = list(csv.reader((LAB_SMOOTH_REF.parent / "loss_sweep.csv").read_text().splitlines()))
    assert got[0] == want[0] and len(got) == len(want)
    cols = [want[0].index(name) for name in ("gamma", "xi_min", "xi_max")]
    assert all(_scaled_match(g[i], w[i]) for g, w in zip(got[1:], want[1:]) for i in cols), (got, want)


def test_benchmark_configs_plan_their_steps_and_frame_nodes(tmp_path, monkeypatch):
    # hardware-independent work counts of the benchmark's integrator
    # workloads, from the step plans alone; a change to the step rule
    # updates these numbers
    from hyplab.energy import EnergyTrace, _plan

    planned = []

    def plan_only(exp, jobs, pool):
        h_k, counts, magnus = _plan(exp, np.arange(exp.xi_grid.size))
        planned.append((int((counts * magnus).sum()), int((counts * ~magnus).sum())))
        return [EnergyTrace.from_history(x, [0.0], [1.0]) for x in exp.xi_grid]

    monkeypatch.setattr(cli, "_sweep", plan_only)
    bench = os.path.join(CONFIGS, "..", "perfbench", "configs")
    for command, name in (("loss", "loss_sweep.cfg"), ("energy", "constant_random.cfg")):
        assert main([command, "--config", os.path.join(bench, name), "--out", str(tmp_path / command)]) == 0
    # Magnus steps and frame nodes: the four gammas of the loss sweep, then energy
    assert len(planned) == 5
    assert tuple(np.sum(planned[:4], axis=0)) == (65875, 7496) and planned[4] == (7851, 1857)


def test_cli_sweep_jobs_failure_names_the_first_failing_frequency(tmp_path, capsys):
    # Magnus steps turn too much phase from grid index 17 (xi = 717.671) on:
    # the second of two strided chunks holds it, the first fails later, at index 18
    text = Path(cfg_path("loss_sweep.cfg")).read_text(encoding="utf-8")
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace("step_factor = 0.1\n\n[energy]", "step_factor = 40\n\n[energy]"))
    errs = []
    for jobs in ("1", "2"):
        assert main(["loss", "--config", str(bad), "--out", str(tmp_path / "out"), "--jobs", jobs]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] and errs[0].endswith("rad, past the limit 4, at xi=717.671\n")


def test_cli_classify_reruns_byte_identical(tmp_path):
    outs = []
    for sub in ("x", "y"):
        out = tmp_path / sub
        assert main(["classify", "--config", cfg_path("holder05.cfg"), "--out", str(out)]) == 0
        outs.append((out / "classification.json").read_bytes())
    assert outs[0] == outs[1]


def test_cli_verify_fails_on_mismatched_modulus(tmp_path, capsys):
    # coefficient rougher than the claimed modulus: difference bounds must grow
    cfg = tmp_path / "mismatch.cfg"
    cfg.write_text(
        "[moduli]\n"
        "eta_family = power_law\neta_param = 0.2\n"
        "rho_family = power_law\nrho_param = 1.0\n"
        "[zone]\nN = 2.0\nM = auto\nT = 0.5\n"
        "[operator]\nm = 2\n"
        "[coefficient.2]\nprofile = holder_rough\nbase = 2.0\ndelta = 0.5\nalpha = 0.3\n"
        "[grids]\nxi_min = 40\nxi_max = 40000\npoints_per_decade = 6\nt_samples = 33\nt_min = 0.01\n"
    )
    rc = main(["verify", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 3, out
    assert "FAIL" in out


def test_cli_verify_checks_every_coefficient(tmp_path, capsys):
    # the rough coefficient moved to a_1 behind a constant a_2: its bounds
    # must still be checked, under names carrying the subscript
    text = Path(cfg_path("holder05.cfg")).read_text(encoding="utf-8").replace("[coefficient.2]", "[coefficient.1]")
    cfg = tmp_path / "two_coeffs.cfg"
    cfg.write_text(text + "\n[coefficient.2]\nprofile = constant\nbase = 2.0\n")
    rc = main(["verify", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 3, out
    verdicts = {line.split()[0]: line.split()[1] for line in out.splitlines() if len(line.split()) > 1}
    assert verdicts["reg_bound_iii_a1"] == "FAIL"
    assert verdicts["reg_bound_vi_a1"] == "FAIL"
    assert verdicts["reg_bound_iii_a2"] == "PASS"
    assert "reg_bound_iii" not in verdicts
