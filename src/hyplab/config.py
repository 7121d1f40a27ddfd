"""Experiment configuration: flat sectioned key-value files.

The format is INI-style; every experiment is fully determined by its file.
Sections and keys, each with its parser in ``_SCHEMA``:

    [moduli]       eta_family, eta_param, rho_family, rho_param,
                   optional eta_r0 / rho_r0
    [zone]         N, M (number or "auto"), T
    [operator]     m, delta_sep
    [coefficient.K]  profile, base, delta, gamma_osc, alpha, and optional
                   spatial.s, spatial.amplitude (either adds the lacunary
                   spatial factor); K is the coefficient subscript (a_K
                   multiplies xi^K)
    [grids]        xi_min, xi_max, points_per_decade, t_samples, t_min
    [fits]         eps, table_alpha
    [loss]         gammas, delta, xi_min, xi_max, points_per_decade,
                   step_factor
    [energy]       step_factor, n_samples, initial
    [output]       directory

A key absent from the file is not passed on, so it takes the default of the
object it builds (``ExperimentConfig``, ``ZoneParams``, ``CoefficientSpec``,
``SpatialProfile``, ``HyperbolicOperatorSpec``, ``AuxiliaryFunction``, whose
r0 is its family's ``moduli.DEFAULT_R0``).  Only M = auto, m = 2 and the two
frequency grids default here.  Validation happens before any computation and
reports the offending section and key; unknown sections and keys and
non-finite numbers are rejected.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coefficients import CoefficientSpec, SpatialProfile
from .companion import HyperbolicOperatorSpec
from .moduli import FAMILIES, AuxiliaryFunction
from .weights import jbracket
from .zones import ZoneParams, validate_zone, zone_floor

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]


class ConfigError(Exception):
    """A configuration file failed validation."""


def _finite(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw.strip()!r} is not a finite number")
    return value


def _finite_list(raw):
    return tuple(_finite(item) for item in raw.split(","))


# section -> key -> parser, or (parser, field) for a key that sets the
# ExperimentConfig field of another name; "coefficient.K" stands for every
# [coefficient.K] section
_SCHEMA = {
    "moduli": {
        "eta_family": str, "eta_param": _finite, "eta_r0": _finite,
        "rho_family": str, "rho_param": _finite, "rho_r0": _finite,
    },
    "zone": {"N": _finite, "M": str, "T": _finite},
    "operator": {"m": int, "delta_sep": _finite},
    "coefficient.K": {
        "profile": str, "base": _finite, "delta": _finite, "gamma_osc": _finite, "alpha": _finite,
        "spatial.s": _finite, "spatial.amplitude": _finite,
    },
    "grids": {"xi_min": _finite, "xi_max": _finite, "points_per_decade": _finite, "t_samples": int, "t_min": _finite},
    "fits": {"eps": _finite, "table_alpha": _finite},
    "loss": {
        "gammas": (_finite_list, "loss_gammas"), "delta": (_finite, "loss_delta"),
        "xi_min": _finite, "xi_max": _finite, "points_per_decade": _finite,
        "step_factor": (_finite, "loss_step_factor"),
    },
    "energy": {
        "step_factor": (_finite, "energy_step_factor"), "n_samples": (int, "energy_samples"),
        "initial": (str, "energy_initial"),
    },
    "output": {"directory": (str, "outdir")},
}


def _parse(parser):
    """Every value given in the file, {section: {key or field: value}}; names outside the schema are rejected."""
    values = {}
    for section in parser.sections():
        schema = _SCHEMA.get("coefficient.K" if section.startswith("coefficient.") else section)
        if schema is None:
            raise ConfigError(f"unknown section [{section}]")
        unknown = sorted(set(parser[section]) - {parser.optionxform(key) for key in schema})
        if unknown:
            raise ConfigError(f"[{section}] unknown key '{unknown[0]}'")
        values[section] = {}
        for key, parse in schema.items():
            if key not in parser[section]:
                continue
            parse, name = parse if isinstance(parse, tuple) else (parse, key)
            try:
                values[section][name] = parse(parser[section][key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"[{section}] key '{key}': {exc}") from exc
    return values


def _required(values, section, key):
    if section not in values:
        raise ConfigError(f"missing section [{section}]")
    if key not in values[section]:
        raise ConfigError(f"[{section}] missing key '{key}'")
    return values[section][key]


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


def _aux(values, role):
    fam = _required(values, "moduli", f"{role}_family")
    param = _required(values, "moduli", f"{role}_param")
    if fam not in FAMILIES:
        raise ConfigError(f"[moduli] unknown {role}_family '{fam}'")
    try:  # not the family's factory: iterated_log() would round a fractional depth
        return AuxiliaryFunction(fam, param, role, values["moduli"].get(f"{role}_r0"))
    except ValueError as exc:
        raise ConfigError(f"[moduli] {role}: {exc}") from exc


def _coefficient(values, section):
    _required(values, section, "profile")
    given = values[section]
    kwargs = {key: v for key, v in given.items() if not key.startswith("spatial.")}
    # any spatial.* key makes the coefficient x-dependent
    spatial = {key.removeprefix("spatial."): v for key, v in given.items() if key.startswith("spatial.")}
    try:
        if spatial:
            kwargs["spatial"] = SpatialProfile(**spatial)
        return CoefficientSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from exc


def _xi_grid(values, where, **defaults):
    """The geometric grid of a section's xi_min, xi_max and points_per_decade, or of the defaults for absent keys."""
    given = {**defaults, **values.get(where, {})}
    lo, hi, per_decade = given["xi_min"], given["xi_max"], given["points_per_decade"]
    if not (0.0 < lo < hi):
        raise ConfigError(f"[{where}] needs 0 < xi_min < xi_max")
    n = int(round(per_decade * np.log10(hi / lo))) + 1
    if n < 2:
        raise ConfigError(f"[{where}] grid has fewer than 2 points")
    return np.geomspace(lo, hi, n)


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)  # values are literal: no %(name)s substitution
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:  # no section header, a repeated key, not text
        raise ConfigError(f"cannot parse config file {path}: {' '.join(str(exc).split())}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    values = _parse(parser)

    eta = _aux(values, "eta")
    rho = _aux(values, "rho")

    zone_values = dict(values.get("zone", {}))
    m_raw = zone_values.pop("M", "auto")
    try:
        zone = ZoneParams(**zone_values)
        M = zone_floor(eta, zone.N) if m_raw.strip().lower() == "auto" else _finite(m_raw)
        zone = dataclasses.replace(zone, M=M)
        validate_zone(eta, zone)
    except ValueError as exc:
        raise ConfigError(f"[zone]: {exc}") from exc

    operator_values = dict(values.get("operator", {}))
    m = operator_values.pop("m", 2)
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
        coeffs[m - k] = spec = _coefficient(values, section)
        if zone.T >= spec.t_end:
            raise ConfigError(f"[zone] T={zone.T} must lie below {spec.t_end:g}, the end of [{section}]'s time domain")
    if all(c is None for c in coeffs):
        raise ConfigError("no [coefficient.K] sections given")
    try:
        operator = HyperbolicOperatorSpec(m, coeffs, **operator_values)
    except ValueError as exc:
        raise ConfigError(f"[operator]: {exc}") from exc

    xi_grid = _xi_grid(values, "grids", xi_min=float(max(zone.M, 16.0)), xi_max=4096.0, points_per_decade=8.0)
    if xi_grid[0] < zone.M:
        raise ConfigError(f"[grids] xi_min {xi_grid[0]} below the frequency floor M={zone.M}")
    grid_keys = ("xi_min", "xi_max", "points_per_decade")  # read by _xi_grid
    given = {
        name: v for section in ("grids", "fits", "loss", "energy", "output")
        for name, v in values.get(section, {}).items() if name not in grid_keys
    }
    if "loss" in values:
        given["loss_xi_grid"] = _xi_grid(values, "loss", xi_min=64.0, xi_max=16384.0, points_per_decade=16.0)
    cfg = ExperimentConfig(eta=eta, rho=rho, zone=zone, operator=operator, xi_grid=xi_grid, **given)

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
