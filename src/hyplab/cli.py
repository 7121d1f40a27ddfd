"""Command-line surface: configuration-driven experiments and table output.

Subcommands:

  tables    write the four reference tables as CSV
  classify  fit the weight orders and the minimal Zygmund index (JSON)
  energy    run the frequency sweep and write the norm traces (CSV)
  loss      run the oscillation-exponent sweep and write fitted losses (CSV)
  verify    run every bound check and exit nonzero if any fails

Exit codes: 0 success, 2 configuration error, 3 verification failure.
Outputs are deterministic for a fixed configuration file and seed.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .coefficients import verify_reg_bounds
from .config import ConfigError, ExperimentConfig, load_config
from .conjugation import ThetaSpec, theta_integral_bound
from .diagonalizers import m3_weights
from .energy import FrequencyExperiment, StiffnessError, _loss_window, estimate_loss, evolve_frequency
from .moduli import admissibility_check, certification_grid, decay_rate, decay_rate_pair
from .tables import TABLE_BUILDERS
from .weights import _top_window, classify
from .zygmund import GridFunction1D, norm_equivalence_report
from .coefficients import SpatialProfile

__all__ = ["main"]


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[h]) for h in header) + "\n")


def _outdir(cfg: ExperimentConfig, override):
    out = override or cfg.outdir
    os.makedirs(out, exist_ok=True)
    return out


def _sweep(exp: FrequencyExperiment, jobs: int):
    worker = functools.partial(evolve_frequency, exp)
    xis = [float(x) for x in exp.xi_grid]
    if jobs <= 1:
        return [worker(x) for x in xis]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, xis))


def cmd_tables(cfg: ExperimentConfig, args) -> int:
    out = _outdir(cfg, args.out)
    header = ["family", "param", "closed_form", "fitted", "rel_err"]
    for name, builder in TABLE_BUILDERS.items():
        if name == "summary":
            rows = builder(eps=cfg.eps)
        elif name == "weight_orders":
            rows = builder()
        else:
            rows = builder(alpha=cfg.table_alpha)
        _write_csv(os.path.join(out, f"{name}.csv"), header, rows)
        print(f"wrote {name}.csv ({len(rows)} rows)")
    return 0


def cmd_classify(cfg: ExperimentConfig, args) -> int:
    out = _outdir(cfg, args.out)
    try:
        rep = classify(
            cfg.eta,
            cfg.rho,
            cfg.zone,
            cfg.xi_grid,
            cfg.eps,
            t_samples=cfg.t_samples,
            force_m0=args.force_m0,
        )
    except ValueError as exc:  # the config's grid or zone cannot be classified
        raise ConfigError(f"classify: {exc}") from exc
    payload = json.dumps(rep.to_json(), sort_keys=True, indent=2)
    with open(os.path.join(out, "classification.json"), "w", encoding="utf-8") as fh:
        fh.write(payload + "\n")
    print(payload)
    return 0


def _energy_experiment(cfg: ExperimentConfig, seed, xi_grid=None, operator=None, step=None):
    return FrequencyExperiment(
        operator=operator or cfg.operator,
        xi_grid=cfg.xi_grid if xi_grid is None else xi_grid,
        zone=cfg.zone,
        eta=cfg.eta,
        rho=cfg.rho,
        step_factor=step or cfg.energy_step_factor,
        n_samples=cfg.energy_samples,
        initial=cfg.energy_initial,
        seed=seed,
    )


def cmd_energy(cfg: ExperimentConfig, args) -> int:
    try:
        exp = _energy_experiment(cfg, args.seed)
    except ValueError as exc:  # the experiment rejects the config's settings
        raise ConfigError(f"energy: {exc}") from exc
    try:
        traces = _sweep(exp, args.jobs)
    except StiffnessError as exc:  # the step factor is too small or too large
        raise ConfigError(f"energy: {exc}") from exc
    out = _outdir(cfg, args.out)  # only once the sweep succeeded
    rows = [
        {"xi": tr.xi, "t": float(t), "norm": float(n)}
        for tr in traces
        for t, n in zip(tr.times, tr.norms)
    ]
    _write_csv(os.path.join(out, "traces.csv"), ["xi", "t", "norm"], rows)
    print(f"wrote traces.csv ({len(traces)} frequencies x {cfg.energy_samples} samples)")
    return 0


def _oscillating_index(cfg: ExperimentConfig):
    for j, c in enumerate(cfg.operator.coeffs):
        if c is not None and c.profile == "log_power_oscillation":
            return j
    raise ConfigError("loss sweep needs a log_power_oscillation coefficient")


def cmd_loss(cfg: ExperimentConfig, args) -> int:
    j = _oscillating_index(cfg)
    grid = cfg.loss_xi_grid if cfg.loss_xi_grid is not None else cfg.xi_grid
    # every experiment and the fit window are checked before any integration
    exps = []
    try:
        for gamma in cfg.loss_gammas:
            coeffs = list(cfg.operator.coeffs)
            coeffs[j] = dataclasses.replace(coeffs[j], gamma_osc=gamma, delta=cfg.loss_delta)
            op = dataclasses.replace(cfg.operator, coeffs=tuple(coeffs))
            exps.append(_energy_experiment(cfg, args.seed, xi_grid=grid, operator=op, step=cfg.loss_step_factor))
        _loss_window(exps[0].xi_grid)
    except ValueError as exc:
        raise ConfigError(f"loss: {exc}") from exc
    rows = []
    for gamma, exp in zip(cfg.loss_gammas, exps):
        try:
            traces = _sweep(exp, args.jobs)
        except StiffnessError as exc:
            raise ConfigError(f"loss: gamma={gamma:g}: {exc}") from exc
        loss = estimate_loss(traces)
        rows.append(
            {
                "gamma": gamma,
                "nu0_hat": loss.nu0_hat,
                "stderr": loss.stderr,
                "xi_min": loss.xi_min,
                "xi_max": loss.xi_max,
            }
        )
        print(f"gamma={gamma:g}: nu0_hat={loss.nu0_hat:+.4f} (stderr {loss.stderr:.4f})")
    out = _outdir(cfg, args.out)  # only once every sweep succeeded
    _write_csv(os.path.join(out, "loss.csv"), ["gamma", "nu0_hat", "stderr", "xi_min", "xi_max"], rows)
    return 0


def _verify_checks(cfg: ExperimentConfig):
    """Yield (name, passed, detail) for every bound check.

    The regularization and oscillation bounds run for every nonzero
    coefficient; with more than one, each name carries the coefficient's
    subscript (``reg_bound_iii_a1``).
    """

    for fn in (cfg.eta, cfg.rho):
        adm = admissibility_check(fn, certification_grid(fn))
        yield (
            f"admissible_{fn.role}",
            adm.passed,
            f"{fn.family}({fn.param:g}) C_2={adm.constants['C_2']:.3g} C_3={adm.constants['C_3']:.3g}",
        )

    try:
        cls = classify(cfg.eta, cfg.rho, cfg.zone, cfg.xi_grid, cfg.eps, t_samples=cfg.t_samples)
        yield (
            "classification",
            bool(np.isfinite(cls.s_min) and cls.s_min >= 1.0 + cfg.eps - 1e-12),
            f"m0={cls.m0:.4f} s_min={cls.s_min:.4f}",
        )
    except ValueError as exc:
        yield ("classification", False, str(exc))

    ts = cfg.t_grid()
    hi = min(cfg.zone.T, cfg.eta.range_max * 0.999)
    ts_osc = ts[(ts <= hi)]
    m = cfg.operator.m
    coeffs = [(f"_a{m - j}", c) for j, c in enumerate(cfg.operator.coeffs) if c is not None]
    if len(coeffs) == 1:
        coeffs = [("", coeffs[0][1])]  # a single coefficient keeps the plain names
    for suffix, spec in coeffs:
        rep = verify_reg_bounds(spec, cfg.eta, cfg.rho, cfg.zone, cfg.xi_grid, ts, t_samples=cfg.t_samples)
        for name, clause in rep.clauses.items():
            ok = not np.isinf(clause.max_ratio) and clause.top_decade_growth <= cfg.growth_tol
            yield (
                f"reg_bound_{name}{suffix}",
                bool(ok),
                f"C={clause.max_ratio:.4g} growth=x{clause.top_decade_growth:.3g}",
            )
        d1 = np.abs(spec.time_derivative(ts_osc, 1))
        d2 = np.abs(spec.time_derivative(ts_osc, 2))
        r1 = float(np.max(d1 / np.sqrt(decay_rate(cfg.eta, ts_osc))))
        r2 = float(np.max(d2 / decay_rate_pair(cfg.eta, cfg.rho, ts_osc)))
        yield (f"oscillation_bound_d1{suffix}", bool(np.isfinite(r1)), f"C={r1:.4g}")
        yield (f"oscillation_bound_d2{suffix}", bool(np.isfinite(r2)), f"C={r2:.4g}")

    theta_rep = theta_integral_bound(ThetaSpec(cfg.eta, cfg.rho, cfg.zone), cfg.xi_grid)
    yield (
        "theta_integral_flat",
        bool(theta_rep.top_decade_slope <= cfg.theta_slope_max),
        f"slope={theta_rep.top_decade_slope:.4f} max={theta_rep.max_integral:.4g}",
    )

    sub = cfg.xi_grid[:: max(1, cfg.xi_grid.size // 8)]
    m3 = np.array(
        [np.max(np.abs(m3_weights(cfg.operator, None, float(x), cfg.zone.T, quadrature=512).integrals)) for x in sub]
    )
    in_top = _top_window(sub, 1.0)
    top = m3[in_top]
    rest = m3[~in_top]
    cap = max(2.0 * float(np.max(rest)) if rest.size else 0.0, 0.05)
    ok = bool(np.all(np.isfinite(m3)) and float(np.max(top)) <= cap)
    yield ("m3_integral_bounded", ok, f"max={float(np.max(m3)):.4g}")

    profile = None
    for c in cfg.operator.coeffs:
        if c is not None and c.spatial is not None:
            profile = c.spatial
            break
    if profile is None:
        profile = SpatialProfile(s=1.2, amplitude=0.25)
    u = GridFunction1D.from_callable(profile.value, n=1024)
    eq = norm_equivalence_report(u, profile.s)
    ok = bool(1.0 / 16.0 <= eq["ratio"] <= 16.0)
    yield ("norm_equivalence", ok, f"ratio={eq['ratio']:.4g}")
    const = norm_equivalence_report(GridFunction1D(np.full(128, 1.0)), profile.s)
    yield ("norm_equivalence_constant", bool(abs(const["ratio"] - 1.0) < 1e-6), f"ratio={const['ratio']:.8f}")


def cmd_verify(cfg: ExperimentConfig, args) -> int:
    failures = 0
    for name, ok, detail in _verify_checks(cfg):
        print(f"{name:<28} {'PASS' if ok else 'FAIL'}  {detail}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} check(s) failed")
        return 3
    print("all checks passed")
    return 0


COMMANDS = {
    "tables": cmd_tables,
    "classify": cmd_classify,
    "energy": cmd_energy,
    "loss": cmd_loss,
    "verify": cmd_verify,
}


def build_parser():
    parser = argparse.ArgumentParser(prog="hyplab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment configuration file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--jobs", type=int, default=1, help="parallel frequency workers")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized options")
        if name == "classify":
            p.add_argument("--force-m0", type=float, default=None, help="pin the order by hand")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
