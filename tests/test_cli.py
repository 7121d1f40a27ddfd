import json
import os
from pathlib import Path

import numpy as np
import pytest

from hyplab import cli
from hyplab.cli import main
from hyplab.config import ConfigError, load_config

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


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
    ],
    ids=["inf", "nan", "unknown_section", "unknown_key", "spatial_amplitude", "repeated_key", "no_section_header"],
)
def test_cli_rejects_malformed_config(tmp_path, capsys, old, new, message):
    text = Path(cfg_path("loglip.cfg")).read_text(encoding="utf-8")
    assert old in text
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace(old, new))
    with pytest.raises(ConfigError, match=message):
        load_config(bad)
    assert main(["classify", "--config", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "command, old, new, message",
    [
        ("energy", "xi_max = 4096", "xi_max = 100", "two decades"),
        ("loss", "xi_max = 16384", "xi_max = 1000", "two decades"),
        ("loss", "points_per_decade = 16", "points_per_decade = 2", "8 frequencies"),
        ("loss", "delta = 0.95", "delta = 1.0", "base/2"),
        ("loss", "gammas = 0, 0.5, 1.0, 1.5", "gammas = 0, -0.5", "nonnegative"),
    ],
    ids=["energy_short_grid", "loss_short_grid", "loss_sparse_fit", "loss_delta", "loss_negative_gamma"],
)
def test_cli_sweep_rejects_settings_before_integrating(tmp_path, capsys, monkeypatch, command, old, new, message):
    def integrate(*args, **kwargs):
        raise AssertionError("a frequency was integrated before the settings were checked")

    monkeypatch.setattr(cli, "evolve_frequency", integrate)
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
    # a step below the floor, or steps so long that RK4 overflows, is a
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


def test_cli_classify_holder_and_forced(tmp_path, capsys):
    rc = main(["classify", "--config", cfg_path("holder05.cfg"), "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "classification.json").read_text())
    assert rep["s_min"] == pytest.approx(1.01)
    assert rep["m0"] == pytest.approx(0.5, abs=0.05)

    rc = main(
        ["classify", "--config", cfg_path("holder05.cfg"), "--out", str(tmp_path), "--force-m0", "1.0"]
    )
    assert rc == 0
    rep = json.loads((tmp_path / "classification.json").read_text())
    assert rep["s_min"] == pytest.approx(2.0)


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


def test_cli_energy_jobs_parallel_identical(tmp_path):
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    assert main(["energy", "--config", cfg_path("constant.cfg"), "--out", str(out1)]) == 0
    assert main(["energy", "--config", cfg_path("constant.cfg"), "--out", str(out2), "--jobs", "2"]) == 0
    assert (out1 / "traces.csv").read_bytes() == (out2 / "traces.csv").read_bytes()


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
