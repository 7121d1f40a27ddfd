"""Reproduction of the reference tables: decay rates, weights and indices.

Each builder returns rows keyed by ``COLUMNS``, in that order:
``closed_form`` is the catalog formula evaluated at a reference point,
``fitted`` the numeric counterpart (finite differences on the inverse, or a
fitted growth order), ``rel_err`` the worst relative gap over the working
grid.  The excluded Lipschitz modulus appears as a marked row.
"""

from __future__ import annotations

import functools

import numpy as np

from .moduli import (
    AuxiliaryFunction,
    decay_rate,
    decay_rate_pair,
    fd_derivative,
    log_reciprocal,
    power_law,
)
from .weights import _fit_orders, classify, zygmund_index_bound
from .zones import ZoneParams, zone_floor

__all__ = [
    "numeric_decay_rate",
    "numeric_decay_rate_pair",
    "local_condition_rows",
    "additional_local_condition_rows",
    "weight_order_rows",
    "summary_rows",
    "TABLE_BUILDERS",
    "COLUMNS",
]

COLUMNS = ("family", "param", "closed_form", "fitted", "rel_err")

T_REF = 0.1


def _row(*values):
    return dict(zip(COLUMNS, values))


def numeric_decay_rate(eta: AuxiliaryFunction, t):
    """-d/dt (1/eta^{-1}(t)) by finite differences on the bisection inverse."""
    return fd_derivative(lambda s: -1.0 / eta.inverse_bisect(s), t)


def numeric_decay_rate_pair(eta, rho, t):
    return fd_derivative(lambda s: -1.0 / np.asarray(rho.value(eta.inverse_bisect(s))), t)


def _rate_row(family, param, closed_fn, numeric_fn, t_hi):
    """Closed form against finite differences at T_REF, with the worst relative gap over [0.01, t_hi]."""
    ts = np.geomspace(0.01, t_hi, 25)
    numeric = numeric_fn(ts)  # first: it rejects an alpha whose stencil leaves eta's range
    closed = closed_fn(ts)
    i_ref = int(np.argmin(np.abs(ts - T_REF)))
    rel_err = float(np.max(np.abs(numeric / closed - 1.0)))
    return _row(family, param, float(closed[i_ref]), float(numeric[i_ref]), rel_err)


def local_condition_rows(alpha=0.5):
    """Decay rates -d/dt(1/eta^{-1}(t)) per modulus of continuity."""
    eta_ll = log_reciprocal(1.0)
    # r0 slightly above 1 keeps the finite-difference stencil inside the
    # inverse's range at the top of the t-window
    eta_h = power_law(1.0 - alpha, r0=1.1)
    combos = [
        ("log_lipschitz", 1.0, eta_ll, lambda t: np.exp(1.0 / t) / t**2),
        ("holder", alpha, eta_h, lambda t: (1.0 / (1.0 - alpha)) * t ** (-(2.0 - alpha) / (1.0 - alpha))),
    ]
    rows = [_row("lipschitz", 1.0, "excluded", "excluded", "")]
    for family, param, eta, closed_fn in combos:
        numeric_fn = functools.partial(numeric_decay_rate, eta)
        rows.append(_rate_row(family, param, closed_fn, numeric_fn, min(1.0, eta.range_max)))
    return rows


def additional_local_condition_rows(alpha=0.5):
    """Decay rates -d/dt(1/rho(eta^{-1}(t))) for eta/rho combinations, with rho = r^0.7 for the power law."""
    beta = 0.7
    eta_ll = log_reciprocal(1.0)
    eta_h = power_law(1.0 - alpha, r0=1.1)
    combos = [
        ("log_reciprocal+log_reciprocal", 1.0, eta_ll, log_reciprocal(1.0, role="rho"),
         lambda t: 1.0 / t**2),
        ("power_law+log_reciprocal", beta, eta_ll, power_law(beta, role="rho"),
         lambda t: (beta / t**2) * np.exp(beta / t)),
        ("identity+log_reciprocal", 1.0, eta_ll, power_law(1.0, role="rho"),
         lambda t: np.exp(1.0 / t) / t**2),
        ("log_reciprocal+holder", 1.0, eta_h, log_reciprocal(1.0, role="rho"),
         lambda t: (1.0 / (1.0 - alpha)) / t),
        ("power_law+holder", beta, eta_h, power_law(beta, role="rho"),
         lambda t: (beta / (1.0 - alpha)) * t ** (-(1.0 - alpha + beta) / (1.0 - alpha))),
        ("identity+holder", 1.0, eta_h, power_law(1.0, role="rho"),
         lambda t: (1.0 / (1.0 - alpha)) * t ** (-(2.0 - alpha) / (1.0 - alpha))),
    ]
    rows = []
    for family, param, eta, rho, closed_fn in combos:
        # stay inside both inverse ranges: eta^{-1}(t) must not exceed rho's r0
        t_hi = min(1.0, eta.range_max, float(eta.value(min(eta.r0, rho.r0))))
        numeric_fn = functools.partial(numeric_decay_rate_pair, eta, rho)
        rows.append(_rate_row(family, param, closed_fn, numeric_fn, t_hi * 0.999))
    return rows


_XI_GRID = np.geomspace(1e3, 1e6, 25)


def weight_order_rows():
    """Fitted growth orders of the three weights against the catalog targets."""
    rows = []
    rho_id = power_law(1.0, role="rho")

    def add(label, eta, rho, target, kinds=("w1", "w2", "w3")):
        orders = dict(zip(("w1", "w2", "w3"), _fit_orders(eta, rho, ZoneParams(M=zone_floor(eta)), _XI_GRID)))
        for kind in kinds:
            rows.append(_row(f"{kind}|{label}", eta.param, target, orders[kind], abs(orders[kind] - target)))

    add("log_lipschitz", log_reciprocal(1.0), rho_id, 0.0)
    for alpha in (0.2, 0.5):
        eta = power_law(1.0 - alpha)
        add("holder", eta, rho_id, 1.0 - alpha)
        add("holder_rho0.7", eta, power_law(0.7, role="rho"), 1.0 - alpha, kinds=("w3",))
    return rows


def summary_rows(eps=0.01):
    """Admissible index s per modulus against its target, with the gap relative to it; m0 = 1 is pinned by hand."""
    rho_id = power_law(1.0, role="rho")
    rep = classify(log_reciprocal(1.0), rho_id, ZoneParams(), _XI_GRID, eps)
    cases = [("log_lipschitz", 1.0, 1.0 + eps, rep.s_min)]  # (family, param, target, fitted s)
    for alpha in (0.2, 1.0 / 3.0, 0.5):
        eta = power_law(1.0 - alpha)
        rep = classify(eta, rho_id, ZoneParams(M=zone_floor(eta)), _XI_GRID, eps)
        cases.append(("holder", alpha, max(1.0 + eps, 2.0 * (1.0 - alpha) / (1.0 + alpha)), rep.s_min))
    cases.append(("forced_m0", 1.0, 2.0, zygmund_index_bound(1.0, eps)))
    return [_row(family, param, target, s, abs(s - target) / target) for family, param, target, s in cases]


TABLE_BUILDERS = {
    "local_condition": local_condition_rows,
    "additional_local_condition": additional_local_condition_rows,
    "weight_orders": weight_order_rows,
    "summary": summary_rows,
}
