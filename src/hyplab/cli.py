"""Command-line surface: configuration-driven experiments and table output.

Subcommands:

  tables    write the four reference tables as CSV
  classify  fit the weight orders and the minimal Zygmund index (JSON)
  energy    run the frequency sweep and write the norm traces (CSV)
  loss      run the oscillation-exponent sweep and write fitted losses (CSV)
  verify    run every bound check and exit nonzero if any fails

Usage: hyplab COMMAND --config PATH [--out DIR] [--jobs N] [--seed INT].

Exit codes: 0 success, 2 configuration error, 3 verification failure.
``main`` is the one place where a rejected configuration becomes exit 2: a
ConfigError, or a ValueError, FloatingPointError or integrator error that a
command raises, ends in one line on stderr.  Outputs are deterministic for a
fixed configuration file and seed.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .coefficients import SpatialProfile, verify_reg_bounds
from .companion import HyperbolicityViolation, NearMultipleRoot
from .config import ConfigError, ExperimentConfig, load_config
from .conjugation import ThetaSpec, theta_integral_bound
from .diagonalizers import m3_weights
from .energy import INTEGRATOR_ERRORS, EnergyTrace, FrequencyExperiment, LossEstimate, _plan
from .energy import estimate_loss, evolve_sweep

# not called here; perfbench/test_perfbench.py checks that its tracer wraps this binding
from .energy import evolve_frequency  # noqa: F401
from .moduli import admissibility_check, certification_grid, decay_rate, decay_rate_pair
from .tables import COLUMNS, TABLE_BUILDERS
from .weights import _top_window, classify
from .zygmund import GridFunction1D, norm_equivalence_report

__all__ = ["main"]

# what a verify check raises when the config leaves it unevaluable: a value
# outside a function's domain, a floating-point overflow, division by zero or
# invalid operation, or roots that are not real, separated and finite
_UNEVALUABLE = (ValueError, FloatingPointError, np.linalg.LinAlgError, HyperbolicityViolation, NearMultipleRoot)


def _fp_raise():
    """Raise FloatingPointError on an overflow, a division by zero or an invalid operation, instead of warning."""
    return np.errstate(over="raise", divide="raise", invalid="raise")


def _write_csv(path, header, rows):
    """Write the header, then one line per row of cells in header order: a float as %.12g, any other cell as str.

    ``rows`` is a sequence of equal-length rows or a 2-D array; the lines
    are formatted by one %-format.
    """
    cells = np.asarray(rows, dtype=object).ravel().tolist()
    fmt = [","] * (2 * len(cells))
    fmt[::2] = ["%.12g" if isinstance(c, float) else "%s" for c in cells]
    fmt[2 * len(header) - 1 :: 2 * len(header)] = ["\n"] * (len(cells) // len(header))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + "".join(fmt) % tuple(cells))


def _outdir(cfg: ExperimentConfig, override):
    out = override or cfg.outdir
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:  # a file in the way (the path itself or a parent of it), no permission, ...
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from exc
    return out


@contextlib.contextmanager
def _workers(jobs: int, n: int):
    """One process pool for all of a command's sweeps over n frequencies; None (no pool) for jobs <= 1."""
    if jobs <= 1:
        yield None
        return
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, n)) as pool:
        yield pool


def _sweep(exp: FrequencyExperiment, jobs: int, pool):
    """Every trace of the sweep, in grid order; with a pool its workers take strided index chunks."""
    if pool is None:
        return evolve_sweep(exp)
    n = exp.xi_grid.size
    chunks = [range(j, n, jobs) for j in range(min(jobs, n))]
    try:
        _plan(exp, np.arange(n))  # the whole sweep's checks and work budget, as without a pool
        parts = list(pool.map(functools.partial(evolve_sweep, exp), chunks))
    except INTEGRATOR_ERRORS:
        return evolve_sweep(exp)  # raises at the first failing frequency in grid order
    traces = [None] * n
    for j, part in enumerate(parts):
        traces[j::jobs] = part
    return traces


def cmd_tables(cfg: ExperimentConfig, args) -> int:
    kwargs = {"summary": {"eps": cfg.eps}, "weight_orders": {}}  # the decay-rate tables take alpha
    with _fp_raise():  # the config's alpha may leave a modulus's range, or overflow it
        tables = {
            name: build(**kwargs.get(name, {"alpha": cfg.table_alpha})) for name, build in TABLE_BUILDERS.items()
        }
    out = _outdir(cfg, args.out)  # only once every table is built
    for name, rows in tables.items():
        _write_csv(os.path.join(out, f"{name}.csv"), COLUMNS, [[row[c] for c in COLUMNS] for row in rows])
        print(f"wrote {name}.csv ({len(rows)} rows)")
    return 0


def cmd_classify(cfg: ExperimentConfig, args) -> int:
    with _fp_raise():  # the config's grid or zone may not be classifiable
        rep = classify(cfg.eta, cfg.rho, cfg.zone, cfg.xi_grid, cfg.eps, t_samples=cfg.t_samples)
    out = _outdir(cfg, args.out)  # only once the fit succeeded
    payload = json.dumps(rep.to_json(), sort_keys=True, indent=2)
    with open(os.path.join(out, "classification.json"), "w", encoding="utf-8") as fh:
        fh.write(payload + "\n")
    print(payload)
    return 0


def _energy_experiment(cfg: ExperimentConfig, seed, xi_grid, operator, step):
    return FrequencyExperiment(
        operator=operator,
        xi_grid=xi_grid,
        zone=cfg.zone,
        eta=cfg.eta,
        step_factor=step,
        n_samples=cfg.energy_samples,
        initial=cfg.energy_initial,
        seed=seed,
    )


def cmd_energy(cfg: ExperimentConfig, args) -> int:
    exp = _energy_experiment(cfg, args.seed, cfg.xi_grid, cfg.operator, cfg.energy_step_factor)
    with _workers(args.jobs, exp.xi_grid.size) as pool:
        traces = _sweep(exp, args.jobs, pool)
    out = _outdir(cfg, args.out)  # only once the sweep succeeded
    xi = np.repeat([tr.xi for tr in traces], [tr.times.size for tr in traces])
    times = np.concatenate([tr.times for tr in traces])
    norms = np.concatenate([tr.norms for tr in traces])
    _write_csv(os.path.join(out, "traces.csv"), ["xi", "t", "norm"], np.column_stack((xi, times, norms)))
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
    for gamma in cfg.loss_gammas:
        coeffs = list(cfg.operator.coeffs)
        coeffs[j] = dataclasses.replace(coeffs[j], gamma_osc=gamma, delta=cfg.loss_delta)
        op = dataclasses.replace(cfg.operator, coeffs=tuple(coeffs))
        exps.append(_energy_experiment(cfg, args.seed, grid, op, cfg.loss_step_factor))
    estimate_loss([EnergyTrace.from_history(x, [0.0], [1.0]) for x in grid])  # the fit's gates, on unit traces
    rows = []
    with _workers(args.jobs, grid.size) as pool:
        for gamma, exp in zip(cfg.loss_gammas, exps):
            try:
                traces = _sweep(exp, args.jobs, pool)
            except INTEGRATOR_ERRORS as exc:
                raise ConfigError(f"loss: gamma={gamma:g}: {exc}") from exc
            loss = estimate_loss(traces)
            rows.append((gamma, *dataclasses.astuple(loss)))
            print(f"gamma={gamma:g}: nu0_hat={loss.nu0_hat:+.4f} (stderr {loss.stderr:.4f})")
    out = _outdir(cfg, args.out)  # only once every sweep succeeded
    header = ["gamma"] + [f.name for f in dataclasses.fields(LossEstimate)]
    _write_csv(os.path.join(out, "loss.csv"), header, rows)
    return 0


GROWTH_TOL = 2.0  # a reg_bound_* clause passes at a top-decade growth of its ratio up to this factor per decade
THETA_SLOPE_MAX = 0.05  # theta_integral_flat passes at a top-decade log-log slope up to this


def _check(name, evaluate):
    """The line (name, passed, detail) of evaluate() -> (passed, detail); an unevaluable check fails with the reason."""
    try:
        passed, detail = evaluate()
    except _UNEVALUABLE as exc:
        return name, False, str(exc)
    return name, bool(passed), detail


def _admissible(fn):
    adm = admissibility_check(fn, certification_grid(fn))
    return adm.passed, f"{fn.family}({fn.param:g}) C_2={adm.constants['C_2']:.3g} C_3={adm.constants['C_3']:.3g}"


def _classification(cfg: ExperimentConfig):
    cls = classify(cfg.eta, cfg.rho, cfg.zone, cfg.xi_grid, cfg.eps, t_samples=cfg.t_samples)
    return np.isfinite(cls.s_min) and cls.s_min >= 1.0 + cfg.eps - 1e-12, f"m0={cls.m0:.4f} s_min={cls.s_min:.4f}"


def _oscillation_bound(spec, order, rate, ts):
    r = float(np.max(np.abs(spec.time_derivative(ts, order)) / rate(ts)))
    return np.isfinite(r), f"C={r:.4g}"


def _theta_integral_flat(cfg: ExperimentConfig):
    integrals, slope = theta_integral_bound(ThetaSpec(cfg.eta, cfg.rho, cfg.zone), cfg.xi_grid)
    k = np.argmax(integrals)
    return slope <= THETA_SLOPE_MAX, f"slope={slope:.4f} max={integrals[k]:.4g} at xi={cfg.xi_grid[k]:.4g}"


def _m3_integral_bounded(cfg: ExperimentConfig):
    m3 = np.max(np.abs(m3_weights(cfg.operator, cfg.xi_grid, cfg.zone.T)), axis=-1)
    in_top = _top_window(cfg.xi_grid, 1.0)
    cap = max(2.0 * float(np.max(m3[~in_top], initial=0.0)), 0.05)
    ok = np.all(np.isfinite(m3)) and float(np.max(m3[in_top])) <= cap
    return ok, f"max={float(np.max(m3)):.4g} at xi={cfg.xi_grid[np.argmax(m3)]:.4g}"


def _norm_equivalence(profile: SpatialProfile):
    ratio = norm_equivalence_report(GridFunction1D.from_callable(profile.value, n=1024), profile.s)["ratio"]
    return 1.0 / 16.0 <= ratio <= 16.0, f"ratio={ratio:.4g}"


def _norm_equivalence_constant(profile: SpatialProfile):
    ratio = norm_equivalence_report(GridFunction1D(np.full(128, 1.0)), profile.s)["ratio"]
    return abs(ratio - 1.0) < 1e-6, f"ratio={ratio:.8f}"


def _verify_checks(cfg: ExperimentConfig):
    """Yield (name, passed, detail) for every bound check.

    The regularization and oscillation bounds run for every nonzero
    coefficient; with more than one, each name carries the coefficient's
    subscript (``reg_bound_iii_a1``).
    """
    for fn in (cfg.eta, cfg.rho):
        yield _check(f"admissible_{fn.role}", functools.partial(_admissible, fn))
    yield _check("classification", functools.partial(_classification, cfg))

    ts = cfg.t_grid()
    hi = min(cfg.zone.T, cfg.eta.range_max * 0.999)
    ts_osc = ts[(ts <= hi)]
    rates = (lambda s: np.sqrt(decay_rate(cfg.eta, s)), functools.partial(decay_rate_pair, cfg.eta, cfg.rho))
    m = cfg.operator.m
    coeffs = [(f"_a{m - j}", c) for j, c in enumerate(cfg.operator.coeffs) if c is not None]
    if len(coeffs) == 1:
        coeffs = [("", coeffs[0][1])]  # a single coefficient keeps the plain names
    for suffix, spec in coeffs:
        try:  # one line when unevaluable, one per clause otherwise
            clauses = verify_reg_bounds(spec, cfg.eta, cfg.rho, cfg.zone, cfg.xi_grid, ts, t_samples=cfg.t_samples)
        except _UNEVALUABLE as exc:
            clauses = {}
            yield (f"reg_bound{suffix}", False, str(exc))
        for name, clause in clauses.items():
            growth = clause.top_decade_growth  # NaN, which fails, when the fit had too few points
            ok = not np.isinf(clause.max_ratio) and growth <= GROWTH_TOL
            at = f"at (t={clause.argmax_t:.4g}, xi={clause.argmax_xi:.4g})"
            fit = f"{at}: {clause.growth_error}" if clause.growth_error else f"growth=x{growth:.3g} {at}"
            yield (f"reg_bound_{name}{suffix}", bool(ok), f"C={clause.max_ratio:.4g} {fit}")
        for order, rate in enumerate(rates, start=1):
            bound = functools.partial(_oscillation_bound, spec, order, rate, ts_osc)
            yield _check(f"oscillation_bound_d{order}{suffix}", bound)

    yield _check("theta_integral_flat", functools.partial(_theta_integral_flat, cfg))
    yield _check("m3_integral_bounded", functools.partial(_m3_integral_bounded, cfg))

    profile = next((c.spatial for c in cfg.operator.coeffs if c is not None and c.spatial is not None), SpatialProfile())
    yield _check("norm_equivalence", functools.partial(_norm_equivalence, profile))
    yield _check("norm_equivalence_constant", functools.partial(_norm_equivalence_constant, profile))


def cmd_verify(cfg: ExperimentConfig, args) -> int:
    failures = 0
    with _fp_raise():  # a floating-point error leaves a check unevaluable: it fails
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
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="experiment configuration file")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel frequency workers")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized options")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"argument --jobs: must be at least 1, got {args.jobs}")
    try:
        cfg = load_config(args.config)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        message = str(exc)
    except (ValueError, FloatingPointError) + INTEGRATOR_ERRORS as exc:  # what a command's library calls reject
        message = f"{args.command}: {exc}"
    print(f"configuration error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
