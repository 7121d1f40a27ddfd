"""Scalar symbol weights on the phase space and their growth orders.

Three weights, evaluated with <xi> = sqrt(1 + xi^2):

* W1(xi)    = 1 / eta(1/<xi>)                               (time independent)
* W2(t, xi) = <xi>^{-1} * ( -d/dt 1/eta^{-1}(t - 1/<xi>) )
* W3(t, xi) = rho(1/<xi>) * ( -d/dt 1/rho(eta^{-1}(t - 1/<xi>)) )

W2 and W3 are defined for t >= eta(1/<xi>) (their inner inverse needs
t - 1/<xi> in the range of eta).  ``classify`` fits each weight's growth order
(W2 and W3 by their sup over one shared t-grid per frequency) as a
least-squares exponent of log(weight) against log<xi> over the top two
decades of a frequency grid; the largest, m0, feeds the Zygmund-index bound
max(1+eps, 2*m0/(2-m0)).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .moduli import AuxiliaryFunction, decay_rate, decay_rate_pair
from .zones import ZoneParams, validate_zone, zone_boundary

__all__ = [
    "ClassificationReport",
    "jbracket",
    "weight_w1",
    "weight_w2",
    "weight_w3",
    "fit_loglog_slope",
    "zygmund_index_bound",
    "classify",
]


def jbracket(xi):
    """Japanese bracket <xi> = sqrt(1 + xi^2)."""
    return np.hypot(1.0, np.asarray(xi, dtype=float))


def _shifted_arg(eta: AuxiliaryFunction, xi_abs, t):
    """t - 1/<xi> with the side condition t >= eta(1/<xi>) enforced."""
    jb = jbracket(xi_abs)
    side = np.asarray(eta.value(1.0 / jb))
    t = np.asarray(t, dtype=float)
    if np.any(t < side * (1.0 - 1e-12)):
        raise ValueError("weight undefined: t below eta(1/<xi>)")
    u = t - 1.0 / jb
    if np.any(u <= 0.0):
        raise ValueError("weight undefined: t - 1/<xi> not positive")
    if np.any(u > eta.range_max * (1.0 + 1e-12)):
        raise ValueError("weight undefined: t - 1/<xi> beyond eta(r0); enlarge r0 or shrink T")
    return jb, u


def weight_w1(eta: AuxiliaryFunction, xi_abs):
    return 1.0 / np.asarray(eta.value(1.0 / jbracket(xi_abs)))


def weight_w2(eta: AuxiliaryFunction, xi_abs, t):
    jb, u = _shifted_arg(eta, xi_abs, t)
    return decay_rate(eta, u) / jb


def weight_w3(eta: AuxiliaryFunction, rho: AuxiliaryFunction, xi_abs, t):
    jb, u = _shifted_arg(eta, xi_abs, t)
    return np.asarray(rho.value(1.0 / jb)) * decay_rate_pair(eta, rho, u)


def fit_loglog_slope(x, y):
    """Least-squares slope of log y against log x, with its standard error."""
    x = np.log(np.asarray(x, dtype=float))
    y = np.log(np.asarray(y, dtype=float))
    if x.size < 2:
        raise ValueError("need at least two points for a slope")
    xm = x - x.mean()
    sxx = float(xm @ xm)
    slope = float(xm @ (y - y.mean())) / sxx
    resid = y - y.mean() - slope * xm
    dof = max(x.size - 2, 1)
    stderr = float(np.sqrt((resid @ resid) / dof / sxx))
    return slope, stderr


def _top_window(values, top_decades):
    return values >= values[-1] / 10.0**top_decades * (1.0 - 1e-9)


def _decades(n):
    return "decade" if n == 1 else f"{('two', 'three')[n - 2]} decades"


def _check_grid(xi_grid, M, span_decades=0):
    """A sweep's frequency grid as a float array: 1-d, strictly increasing, at or above M, spanning decades."""
    xi = np.asarray(xi_grid, dtype=float)
    if xi.ndim != 1 or xi.size == 0 or np.any(np.diff(xi) <= 0.0):
        raise ValueError("frequency grid must be strictly increasing")
    if xi[0] < M:
        raise ValueError("frequency grid starts below the floor M")
    if xi[-1] / xi[0] < 10.0**span_decades * (1.0 - 1e-9):
        raise ValueError(f"frequency grid must span at least {_decades(span_decades)}")
    return xi


def _top_decade_fit(xi, y, top_decades, min_points):
    """Log-log slope and stderr of y against <xi> over an ascending grid's top decades, and the lowest xi fitted.

    Points where y is not finite drop out; fewer than min_points left raise ValueError.
    """
    mask = _top_window(xi, top_decades) & np.isfinite(y)
    if int(mask.sum()) < min_points:
        raise ValueError(f"need at least {min_points} points in the top {_decades(top_decades)}")
    slope, stderr = fit_loglog_slope(jbracket(xi[mask]), y[mask])
    return slope, stderr, float(xi[mask][0])


def _fit_orders(eta: AuxiliaryFunction, rhos, zp: ZoneParams, xi_grid, t_samples=48):
    """Fitted growth orders (m1, m2, m3, ...) of W1, W2 and of W3 per rho in ``rhos``; ``classify`` states the rule.

    W1 and W2 depend on eta alone, so one call fits them once for every rho.
    """
    validate_zone(eta, zp)
    xi = _check_grid(xi_grid, zp.M, 3)

    def order(sup):
        return max(_top_decade_fit(xi, sup, 2, 8)[0], 0.0)

    m1 = order(np.asarray(weight_w1(eta, xi)))
    # frequencies whose hyperbolic window [t_xi, T] is empty carry no
    # admissible t and drop out of the W2 and W3 fits
    jb = jbracket(xi)
    t_lo = np.maximum(zone_boundary(eta, zp, xi), eta.value(1.0 / jb) + 2.0 / jb)
    ok = t_lo < zp.T * (1.0 - 1e-12)
    tg = np.geomspace(t_lo[ok], zp.T, t_samples, axis=-1)
    sup = np.full_like(xi, np.nan)
    sup[ok] = np.max(weight_w2(eta, xi[ok, None], tg), axis=-1)
    orders = [m1, order(sup)]
    for rho in rhos:
        sup[ok] = np.max(weight_w3(eta, rho, xi[ok, None], tg), axis=-1)
        orders.append(order(sup))
    return tuple(orders)


def zygmund_index_bound(m0, eps):
    """Smallest admissible Zygmund index, max(1 + eps, 2*m0/(2 - m0))."""
    if not (0.0 < m0 <= 1.0):
        raise ValueError("order m0 must lie in (0, 1]")
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    return max(1.0 + eps, 2.0 * m0 / (2.0 - m0))


@dataclass(frozen=True)
class ClassificationReport:
    """Fitted orders of the three weights and the induced index bound."""

    m0_w1: float
    m0_w2: float
    m0_w3: float
    m0: float
    s_min: float
    eps: float

    def to_json(self) -> dict:
        """The fields by name: the keys of classification.json."""
        return asdict(self)


def classify(
    eta: AuxiliaryFunction,
    rho: AuxiliaryFunction,
    zp: ZoneParams,
    xi_grid,
    eps: float,
    t_samples=48,
) -> ClassificationReport:
    """Fit the orders of W1, W2 and W3 and derive the minimal index s.

    Each order is the log-log slope against <xi> over the grid's top two
    decades, clamped below at zero.  W2 and W3 enter by their sup over one
    t-grid per frequency, ``t_samples`` log-spaced points from
    max(t_xi, eta(1/<xi>) + 2/<xi>) up to T; a frequency whose window is empty
    drops out of their fits.  m0 is the largest order.
    """
    m1, m2, m3 = _fit_orders(eta, (rho,), zp, xi_grid, t_samples)
    m0 = max(m1, m2, m3)
    return ClassificationReport(m1, m2, m3, m0, zygmund_index_bound(m0, eps), eps)
