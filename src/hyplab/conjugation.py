"""The conjugation weight that makes the transformed evolution dissipative.

theta0 glues the two natural dissipation scales with smooth cutoffs:

    theta0(t, xi) = (1 - chi(t / (2 N eta(1/<xi>)))) * 1/eta(1/<xi>)
                  + chi(t / (N eta(1/<xi>))) * [ W3(t, xi) + W2(t, xi) ]

where chi is the cutoff ``ramp_chi`` and W2 and W3 are the hyperbolic-zone
weights.  The paper's full weight is theta = K (2 + theta0) >= 2K.  The
laboratory checks that the time integral of theta0 stays bounded along a
frequency sweep (a zero-order quantity), which is the gate for a no-loss
energy estimate.  W2 and W3 are exact time derivatives by definition, so
that integral telescopes: only the cutoff ramp of the second branch is left
to composite Simpson.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moduli import AuxiliaryFunction
from .weights import _check_grid, _shifted_arg, _top_decade_fit, jbracket, weight_w2, weight_w3
from .zones import ZoneParams, validate_zone
from .zygmund import _smoothstep

__all__ = ["ramp_chi", "ThetaSpec", "theta0", "theta_integral_bound"]


def ramp_chi(tau):
    """Monotone polynomial-smooth cutoff: 0 below 1/2, 1 above 1."""
    out = _smoothstep((np.asarray(tau, dtype=float) - 0.5) * 2.0)
    return out if out.shape else float(out)


@dataclass(frozen=True)
class ThetaSpec:
    eta: AuxiliaryFunction
    rho: AuxiliaryFunction
    zone: ZoneParams

    def __post_init__(self):
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


def _weight_antiderivatives(ts: ThetaSpec, xi, t):
    """The terms -1/(<xi> g(u)) and -rho(1/<xi>)/rho(g(u)) of F, g = eta^{-1}, u = t - 1/<xi>.

    By the weights' definitions their t-derivatives are W2 and W3, so each
    weight integrates to the difference of its term: no derivative jet.
    """
    jb, u = _shifted_arg(ts.eta, xi, t)
    g = np.asarray(ts.eta.inverse(u))
    return -1.0 / (jb * g), -np.asarray(ts.rho.value(1.0 / jb)) / np.asarray(ts.rho.value(g))


def integrate_theta0(ts: ThetaSpec, xi):
    """Time integral of theta0 on [0, T], elementwise in xi, from the antiderivatives of its branches.

    With n = N eta(1/<xi>) and the knots n/2, n, 2n clipped at T:

    * the first branch is 1/eta on [0, n] and (1 - s(t/n - 1))/eta on [n, 2n],
      s the quintic ramp, whose integral int_0^x s = x^4 (5/2 - 3x + x^2) is closed form;
    * the gated weights W2 + W3 = F' give F(T) - F(n) past the ramp, and on the
      ramp [n/2, n], by parts, int chi F' = int chi' (F(n) - F(t)): the one
      Simpson rule left, on 1024 intervals of an integrand with no derivative jet.
    """
    T = ts.zone.T
    xi = np.asarray(xi, dtype=float)
    e = np.asarray(ts.eta.value(1.0 / jbracket(xi)))
    n = ts.zone.N * e
    k0, k1, k2 = (np.minimum(c * n, T) for c in (0.5, 1.0, 2.0))
    x = (k2 - k1) / n
    total = np.asarray((k1 + n * (x - x**4 * (2.5 - 3.0 * x + x * x))) / e)
    live = k0 < T  # elsewhere n/2 reaches T and the weights never enter
    if live.any():
        xl, nl, k1l = xi[live], n[live], k1[live]

        def F(t):
            return sum(_weight_antiderivatives(ts, xl, t))

        def by_parts(t):  # chi'(t) (F(k1) - F(t)), chi' = (2/n) s'(2t/n - 1), s'(y) = 30 y^2 (1 - y)^2
            y = 2.0 * t / nl - 1.0
            return 60.0 / nl * (y * (1.0 - y)) ** 2 * (Fk1 - F(t))

        Fk1, FT = F(np.stack((k1l, np.full_like(k1l, T))))
        total[live] += FT - Fk1 + _simpson(by_parts, k0[live], k1l, 1024)
    return total[()]


def theta_integral_bound(ts: ThetaSpec, xi_grid):
    """(integrals, top_decade_slope): the integral of theta0 per frequency and its top-decade log-log slope."""
    xi = _check_grid(xi_grid, ts.zone.M)
    vals = integrate_theta0(ts, xi)
    return vals, _top_decade_fit(xi, vals, 1, 3)[0]
