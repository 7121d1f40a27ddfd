"""The conjugation weight that makes the transformed evolution dissipative.

theta0 glues the two natural dissipation scales with smooth cutoffs:

    theta0(t, xi) = (1 - chi(t / (2 N eta(1/<xi>)))) * 1/eta(1/<xi>)
                  + chi(t / (N eta(1/<xi>))) * [ W3(t, xi) + W2(t, xi) ]

where chi is the cutoff ``ramp_chi`` and W2 and W3 are the hyperbolic-zone
weights.  The full weight is theta = K (2 + theta0) >= 2K.  The laboratory
checks that the time integral of theta0 stays bounded along a frequency
sweep (a zero-order quantity), which is the gate for a no-loss energy
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moduli import AuxiliaryFunction
from .weights import _check_grid, _top_decade_fit, jbracket, weight_w2, weight_w3
from .zones import ZoneParams, validate_zone
from .zygmund import _smoothstep

__all__ = ["ramp_chi", "ThetaSpec", "theta0", "theta", "theta_integral_bound", "ThetaIntegralReport"]


def ramp_chi(tau):
    """Monotone polynomial-smooth cutoff: 0 below 1/2, 1 above 1."""
    out = _smoothstep((np.asarray(tau, dtype=float) - 0.5) * 2.0)
    return out if out.shape else float(out)


@dataclass(frozen=True)
class ThetaSpec:
    eta: AuxiliaryFunction
    rho: AuxiliaryFunction
    zone: ZoneParams
    K: float = 1.0

    def __post_init__(self):
        if not (self.K > 0.0):
            raise ValueError("K must be positive")
        validate_zone(self.eta, self.zone)


def theta0(ts: ThetaSpec, t, xi):
    """The two-branch conjugation weight; nonnegative, continuous in t; xi broadcasts against t."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    e = np.asarray(ts.eta.value(1.0 / jbracket(xi)))
    ne = ts.zone.N * e
    out = (1.0 - ramp_chi(t_arr / (2.0 * ne))) / e
    gate = ramp_chi(t_arr / ne)
    active = gate > 0.0
    ta, xa = (np.broadcast_to(v, active.shape)[active] for v in (t_arr, xi))
    out[active] += gate[active] * (weight_w3(ts.eta, ts.rho, xa, ta) + weight_w2(ts.eta, xa, ta))
    return out if np.ndim(t) or np.ndim(xi) else float(out[0])


def theta(ts: ThetaSpec, t, xi):
    """Full conjugation weight K (2 + theta0) >= 2K."""
    return ts.K * (2.0 + np.asarray(theta0(ts, t, xi)))


def _simpson(fn, a, b, n):
    """Composite Simpson rule on n (made even) intervals, one per pair of (array) endpoints.

    The nodes carry the endpoints' shape after the node axis.  The sum is a
    matrix product with fn's values, so it runs over their first axis in one
    or two dimensions and over the second-to-last in more (axes before the
    node axis batch).
    """
    if np.all(b <= a):
        return 0.0
    n += n % 2
    xs = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (xs[1] - xs[0]) / 3.0 * (w @ np.asarray(fn(xs)))


def integrate_theta0(ts: ThetaSpec, xi):
    """Time integral of theta0 on [0, T], split at the cutoff knots; elementwise in xi.

    Simpson's rule runs only on the (interval, frequency) pairs whose
    interval is not empty: where N eta(1/<xi>) reaches T, knots collapse onto T.
    """
    T = ts.zone.T
    xi = np.asarray(xi, dtype=float)
    e = np.asarray(ts.eta.value(1.0 / jbracket(xi)))
    ne = ts.zone.N * e
    knots = [np.minimum(ne / 2.0, T), np.minimum(ne, T), np.minimum(2.0 * ne, T), np.full_like(ne, T)]
    total = np.asarray(knots[0] / e)  # first branch alone, exactly 1/eta * length
    for a, b in zip(knots[:-1], knots[1:]):
        live = b > a
        total[live] += _simpson(lambda s: theta0(ts, s, xi[live]), a[live], b[live], 512)
    return total[()]


@dataclass(frozen=True)
class ThetaIntegralReport:
    xi_grid: np.ndarray
    integrals: np.ndarray
    max_integral: float
    top_decade_slope: float


def theta_integral_bound(ts: ThetaSpec, xi_grid) -> ThetaIntegralReport:
    """Integral of theta0 per frequency, with a top-decade flatness fit."""
    xi = _check_grid(xi_grid, ts.zone.M)
    vals = integrate_theta0(ts, xi)
    return ThetaIntegralReport(xi, vals, float(np.max(vals)), _top_decade_fit(xi, vals, 1, 3)[0])
