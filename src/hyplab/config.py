"""Experiment configuration: flat sectioned key-value files.

The format is INI-style; every experiment is fully determined by its file.
Sections and keys:

    [moduli]       eta_family, eta_param, rho_family, rho_param,
                   optional eta_r0 / rho_r0
    [zone]         N, M (number or "auto"), T
    [operator]     m, delta_sep
    [coefficient.K]  profile, base, delta, gamma_osc, alpha, and optional
                   spatial.family, spatial.s, spatial.amplitude (any of
                   them adds the spatial factor); the K in
                   the section name is the coefficient subscript (a_K
                   multiplies xi^K)
    [grids]        xi_min, xi_max, points_per_decade, t_samples, t_min
    [fits]         eps, theta_slope_max, growth_tol, table_alpha
    [loss]         gammas, delta, xi_min, xi_max, points_per_decade,
                   step_factor
    [energy]       step_factor, n_samples, initial
    [output]       directory

Validation happens before any computation and reports the offending
section and key; unknown sections and keys and non-finite numbers are
rejected.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coefficients import CoefficientSpec, SpatialProfile
from .companion import HyperbolicOperatorSpec
from .moduli import AuxiliaryFunction
from .weights import jbracket
from .zones import ZoneParams, validate_zone, zone_floor

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]


class ConfigError(Exception):
    """A configuration file failed validation."""


# accepted keys per section, lowercased as configparser stores them
_KEYS = {
    "moduli": {"eta_family", "eta_param", "rho_family", "rho_param", "eta_r0", "rho_r0"},
    "zone": {"n", "m", "t"},
    "operator": {"m", "delta_sep"},
    "grids": {"xi_min", "xi_max", "points_per_decade", "t_samples", "t_min"},
    "fits": {"eps", "theta_slope_max", "growth_tol", "table_alpha"},
    "loss": {"gammas", "delta", "xi_min", "xi_max", "points_per_decade", "step_factor"},
    "energy": {"step_factor", "n_samples", "initial"},
    "output": {"directory"},
}
_COEFFICIENT_KEYS = {
    "profile", "base", "delta", "gamma_osc", "alpha",
    "spatial.family", "spatial.s", "spatial.amplitude",
}


def _check_names(parser):
    for section in parser.sections():
        if section.startswith("coefficient."):
            known = _COEFFICIENT_KEYS
        elif section in _KEYS:
            known = _KEYS[section]
        else:
            raise ConfigError(f"unknown section [{section}]")
        unknown = sorted(set(parser[section]) - known)
        if unknown:
            raise ConfigError(f"[{section}] unknown key '{unknown[0]}'")


def _finite(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw.strip()!r} is not a finite number")
    return value


@dataclass
class ExperimentConfig:
    eta: AuxiliaryFunction
    rho: AuxiliaryFunction
    zone: ZoneParams
    operator: HyperbolicOperatorSpec
    xi_grid: np.ndarray
    t_samples: int = 48
    t_min: float = 0.01
    eps: float = 0.01
    theta_slope_max: float = 0.05
    growth_tol: float = 2.0
    table_alpha: float = 0.5
    loss_gammas: tuple = (0.0, 0.5, 1.0, 1.5)
    loss_delta: float = 0.95
    loss_xi_grid: Optional[np.ndarray] = None
    loss_step_factor: float = 0.1
    energy_step_factor: float = 0.02
    energy_samples: int = 257
    energy_initial: str = "canonical"
    outdir: str = "out"

    def t_grid(self):
        return np.geomspace(self.t_min, self.zone.T, self.t_samples)


def _get(parser, section, key, cast, default=None, *, where=None):
    where = where or section
    if not parser.has_section(section):
        if default is not None:
            return default
        raise ConfigError(f"missing section [{where}]")
    raw = parser.get(section, key, fallback=None)
    if raw is None:
        if default is None:
            raise ConfigError(f"[{where}] missing key '{key}'")
        return default
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{where}] key '{key}': {exc}") from exc


def _aux(parser, role):
    fam = _get(parser, "moduli", f"{role}_family", str)
    param = _get(parser, "moduli", f"{role}_param", _finite)
    default_r0 = {"power_law": 1.0, "log_reciprocal": 0.5, "iterated_log": 0.2}.get(fam)
    if default_r0 is None:
        raise ConfigError(f"[moduli] unknown {role}_family '{fam}'")
    r0 = _get(parser, "moduli", f"{role}_r0", _finite, default=default_r0)
    try:
        return AuxiliaryFunction(fam, param, role, r0)
    except ValueError as exc:
        raise ConfigError(f"[moduli] {role}: {exc}") from exc


def _coefficient(parser, section):
    prof = _get(parser, section, "profile", str)
    kwargs = dict(
        profile=prof,
        base=_get(parser, section, "base", _finite, default=2.0),
        delta=_get(parser, section, "delta", _finite, default=0.0),
        gamma_osc=_get(parser, section, "gamma_osc", _finite, default=0.0),
        alpha=_get(parser, section, "alpha", _finite, default=0.5),
    )
    # any spatial.* key makes the coefficient x-dependent; SpatialProfile owns the defaults of the others
    spatial = {
        key: _get(parser, section, f"spatial.{key}", cast)
        for key, cast in (("family", str), ("s", _finite), ("amplitude", _finite))
        if parser.has_option(section, f"spatial.{key}")
    }
    try:
        if spatial:
            kwargs["spatial"] = SpatialProfile(**spatial)
        return CoefficientSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from exc


def _xi_grid(lo, hi, per_decade, where):
    if not (0.0 < lo < hi):
        raise ConfigError(f"[{where}] needs 0 < xi_min < xi_max")
    n = int(round(per_decade * np.log10(hi / lo))) + 1
    if n < 2:
        raise ConfigError(f"[{where}] grid has fewer than 2 points")
    return np.geomspace(lo, hi, n)


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:  # no section header, a repeated key, not text
        raise ConfigError(f"cannot parse config file {path}: {' '.join(str(exc).split())}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    _check_names(parser)

    eta = _aux(parser, "eta")
    rho = _aux(parser, "rho")

    N = _get(parser, "zone", "N", _finite, default=2.0)
    T = _get(parser, "zone", "T", _finite, default=0.5)
    m_raw = _get(parser, "zone", "M", str, default="auto")
    try:
        if m_raw.strip().lower() == "auto":
            M = zone_floor(eta, N)
        else:
            M = _finite(m_raw)
        zone = ZoneParams(N=N, M=M, T=T)
        validate_zone(eta, zone)
    except ValueError as exc:
        raise ConfigError(f"[zone]: {exc}") from exc

    m = _get(parser, "operator", "m", int, default=2)
    delta_sep = _get(parser, "operator", "delta_sep", _finite, default=1e-6)
    coeffs = [None] * m
    for section in parser.sections():
        if not section.startswith("coefficient."):
            continue
        try:
            k = int(section.split(".", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"[{section}]: subscript must be an integer") from exc
        if not (1 <= k <= m):
            raise ConfigError(f"[{section}]: subscript must lie in 1..{m}")
        coeffs[m - k] = spec = _coefficient(parser, section)
        if zone.T >= spec.t_end:
            raise ConfigError(f"[zone] T={zone.T} must lie below {spec.t_end:g}, the end of [{section}]'s time domain")
    if all(c is None for c in coeffs):
        raise ConfigError("no [coefficient.K] sections given")
    try:
        operator = HyperbolicOperatorSpec(m, coeffs, delta_sep)
    except ValueError as exc:
        raise ConfigError(f"[operator]: {exc}") from exc

    xi_grid = _xi_grid(
        _get(parser, "grids", "xi_min", _finite, default=float(max(zone.M, 16.0))),
        _get(parser, "grids", "xi_max", _finite, default=4096.0),
        _get(parser, "grids", "points_per_decade", _finite, default=8.0),
        "grids",
    )
    if xi_grid[0] < zone.M:
        raise ConfigError(f"[grids] xi_min {xi_grid[0]} below the frequency floor M={zone.M}")

    cfg = ExperimentConfig(
        eta=eta,
        rho=rho,
        zone=zone,
        operator=operator,
        xi_grid=xi_grid,
        t_samples=_get(parser, "grids", "t_samples", int, default=48),
        t_min=_get(parser, "grids", "t_min", _finite, default=0.01),
        eps=_get(parser, "fits", "eps", _finite, default=0.01),
        theta_slope_max=_get(parser, "fits", "theta_slope_max", _finite, default=0.05),
        growth_tol=_get(parser, "fits", "growth_tol", _finite, default=2.0),
        table_alpha=_get(parser, "fits", "table_alpha", _finite, default=0.5),
        loss_delta=_get(parser, "loss", "delta", _finite, default=0.95),
        loss_step_factor=_get(parser, "loss", "step_factor", _finite, default=0.1),
        energy_step_factor=_get(parser, "energy", "step_factor", _finite, default=0.02),
        energy_samples=_get(parser, "energy", "n_samples", int, default=257),
        energy_initial=_get(parser, "energy", "initial", str, default="canonical"),
        outdir=_get(parser, "output", "directory", str, default="out"),
    )

    if parser.has_section("loss"):
        gammas_raw = parser.get("loss", "gammas", fallback="0, 0.5, 1.0, 1.5")
        try:
            cfg.loss_gammas = tuple(_finite(g) for g in gammas_raw.split(","))
        except ValueError as exc:
            raise ConfigError(f"[loss] key 'gammas': {exc}") from exc
        cfg.loss_xi_grid = _xi_grid(
            _get(parser, "loss", "xi_min", _finite, default=64.0),
            _get(parser, "loss", "xi_max", _finite, default=16384.0),
            _get(parser, "loss", "points_per_decade", _finite, default=16.0),
            "loss",
        )

    if not (0.0 < cfg.t_min < zone.T):
        raise ConfigError("[grids] t_min must lie in (0, T)")
    if cfg.t_samples < 2:
        raise ConfigError("[grids] t_samples must be at least 2")
    if cfg.eps <= 0.0:
        raise ConfigError("[fits] eps must be positive")
    if not (0.0 < cfg.table_alpha < 1.0):
        raise ConfigError("[fits] table_alpha must lie in (0, 1)")
    if cfg.energy_initial not in ("canonical", "random"):
        raise ConfigError("[energy] initial must be 'canonical' or 'random'")
    # the classify sweep needs eta^{-1} defined up to T - 1/<xi> on the grid
    if zone.T - 1.0 / float(jbracket(xi_grid[0])) > eta.range_max:
        raise ConfigError(
            f"[zone] T={zone.T} exceeds the usable range of eta (max {eta.range_max:.4g})"
        )
    return cfg
