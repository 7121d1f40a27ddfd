"""The conjugation weight that makes the transformed evolution dissipative.

theta0 glues the two natural dissipation scales with smooth cutoffs:

    theta0(t, xi) = (1 - chi(t / (2 N eta(1/<xi>)))) * 1/eta(1/<xi>)
                  + chi(t / (N eta(1/<xi>))) * [ W3(t, xi) + W2(t, xi) ]

where W2 and W3 are the hyperbolic-zone weights.  The full weight is
theta = K (2 + theta0) >= 2K.  The laboratory checks that the time integral
of theta0 stays bounded along a frequency sweep (a zero-order quantity),
which is the gate for a no-loss energy estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .moduli import AuxiliaryFunction
from .weights import _top_window, fit_loglog_slope, jbracket, weight_w2, weight_w3
from .zones import ZoneParams, validate_zone

__all__ = ["ramp_chi", "ThetaSpec", "theta0", "theta", "theta_integral_bound", "ThetaIntegralReport"]


def ramp_chi(tau):
    """Monotone polynomial-smooth cutoff: 0 below 1/2, 1 above 1."""
    x = np.clip((np.asarray(tau, dtype=float) - 0.5) * 2.0, 0.0, 1.0)
    out = x**3 * (10.0 + x * (-15.0 + 6.0 * x))
    return out if out.shape else float(out)


@dataclass(frozen=True)
class ThetaSpec:
    eta: AuxiliaryFunction
    rho: AuxiliaryFunction
    zone: ZoneParams
    K: float = 1.0
    chi: Callable = ramp_chi

    def __post_init__(self):
        if not (self.K > 0.0):
            raise ValueError("K must be positive")
        validate_zone(self.eta, self.zone)
        probe = np.array([0.0, 0.4, 0.5, 0.75, 1.0, 2.0])
        vals = np.asarray(self.chi(probe), dtype=float)
        if vals[0] != 0.0 or vals[2] != 0.0 or vals[4] != 1.0 or vals[5] != 1.0:
            raise ValueError("chi must vanish up to 1/2 and equal 1 from 1 on")
        if np.any(np.diff(vals) < -1e-12):
            raise ValueError("chi must be monotone nondecreasing")


def theta0(ts: ThetaSpec, t, xi):
    """The two-branch conjugation weight; nonnegative, continuous in t."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    jb = float(jbracket(xi))
    e = float(ts.eta.value(1.0 / jb))
    ne = ts.zone.N * e
    out = (1.0 - np.asarray(ts.chi(t_arr / (2.0 * ne)))) / e
    gate = np.asarray(ts.chi(t_arr / ne))
    active = gate > 0.0
    if np.any(active):
        ta = t_arr[active]
        bracket = np.asarray(weight_w3(ts.eta, ts.rho, xi, ta)) + np.asarray(
            weight_w2(ts.eta, xi, ta)
        )
        out[active] = out[active] + gate[active] * bracket
    return out if np.asarray(t).shape else float(out[0])


def theta(ts: ThetaSpec, t, xi):
    """Full conjugation weight K (2 + theta0) >= 2K."""
    return ts.K * (2.0 + np.asarray(theta0(ts, t, xi)))


def _simpson(fn, a, b, n):
    """Composite Simpson rule on n (made even) intervals; keeps fn's trailing axes."""
    if b <= a:
        return 0.0
    n += n % 2
    xs = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (xs[1] - xs[0]) / 3.0 * (w @ np.asarray(fn(xs)))


def integrate_theta0(ts: ThetaSpec, xi, T=None, n=512):
    """Time integral of theta0 on [0, T], split at the cutoff knots."""
    T = ts.zone.T if T is None else float(T)
    jb = float(jbracket(xi))
    e = float(ts.eta.value(1.0 / jb))
    ne = ts.zone.N * e
    knots = [0.0, min(ne / 2.0, T), min(ne, T), min(2.0 * ne, T), T]
    total = knots[1] / e  # first branch alone, exactly 1/eta * length
    for a, b in zip(knots[1:-1], knots[2:]):
        total += _simpson(lambda s: theta0(ts, s, xi), a, b, n)
    return total


@dataclass(frozen=True)
class ThetaIntegralReport:
    xi_grid: np.ndarray
    integrals: np.ndarray
    max_integral: float
    top_decade_slope: float


def theta_integral_bound(ts: ThetaSpec, xi_grid, T=None, n=512) -> ThetaIntegralReport:
    """Integral of theta0 per frequency, with a top-decade flatness fit."""
    xi = np.asarray(xi_grid, dtype=float)
    if np.any(np.diff(xi) <= 0.0):
        raise ValueError("frequency grid must be strictly increasing")
    if xi[0] < ts.zone.M:
        raise ValueError("frequency grid starts below the floor M")
    vals = np.array([integrate_theta0(ts, x, T, n) for x in xi])
    mask = _top_window(xi, 1.0)
    if int(mask.sum()) < 3:
        raise ValueError("need at least 3 points in the top decade")
    slope, _ = fit_loglog_slope(jbracket(xi[mask]), vals[mask])
    return ThetaIntegralReport(xi, vals, float(np.max(vals)), float(slope))
