"""Reproduction of the reference tables: decay rates, weights and indices.

Each builder returns rows keyed by ``COLUMNS``, in that order:
``closed_form`` is the catalog formula evaluated at a reference point,
``fitted`` the numeric counterpart (finite differences on the inverse, or a
fitted growth order), ``rel_err`` the worst relative gap over the working
grid.  The excluded Lipschitz modulus appears as a marked row.

Each decay-rate table builds the four-point stencils of all its rows and
inverts them in one ``inverse_bisect`` call, one bisection loop per table;
the weight-order table fits W1 and W2 once per eta, for every rho of it.
"""

from __future__ import annotations

import numpy as np

from .moduli import (
    AuxiliaryFunction,
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


def _numeric_rates(pairs, t):
    """Row k of t -> -d/dt (1/rho(eta^{-1}(t))) for (eta, rho) = pairs[k], rho None the identity.

    Finite differences on the bisection inverse, with every row's stencil
    bisected in one loop; the row's modulus checks its stencil first.
    """

    def fn(s):
        (eta, first), *more = [(eta, s[:, k]) for k, (eta, _) in enumerate(pairs)]
        roots = eta.inverse_bisect(first, *more) if more else (eta.inverse_bisect(first),)
        inner = [g if rho is None else np.asarray(rho.value(g)) for g, (_, rho) in zip(roots, pairs)]
        return -1.0 / np.stack(inner, axis=1)

    return fd_derivative(fn, t)


def numeric_decay_rate(eta: AuxiliaryFunction, t):
    """-d/dt (1/eta^{-1}(t)) by finite differences on the bisection inverse."""
    return _numeric_rates([(eta, None)], np.asarray(t, dtype=float)[None])[0]


def numeric_decay_rate_pair(eta, rho, t):
    return _numeric_rates([(eta, rho)], np.asarray(t, dtype=float)[None])[0]


def _rate_rows(cases, t_hi):
    """Closed form against finite differences at T_REF, with the worst relative gap over [0.01, t_hi(eta, rho)].

    A case is (family, param, eta, rho, closed_fn), rho None for the rates of
    eta alone.  The finite differences of every case come first: they reject
    an alpha whose stencil leaves eta's range.
    """
    ts = np.stack([np.geomspace(0.01, t_hi(eta, rho), 25) for _, _, eta, rho, _ in cases])
    numeric = _numeric_rates([(eta, rho) for _, _, eta, rho, _ in cases], ts)
    rows = []
    for (family, param, _, _, closed_fn), t, fitted in zip(cases, ts, numeric):
        closed = closed_fn(t)
        i_ref = int(np.argmin(np.abs(t - T_REF)))
        rel_err = float(np.max(np.abs(fitted / closed - 1.0)))
        rows.append(_row(family, param, float(closed[i_ref]), float(fitted[i_ref]), rel_err))
    return rows


def local_condition_rows(alpha=0.5):
    """Decay rates -d/dt(1/eta^{-1}(t)) per modulus of continuity."""
    eta_ll = log_reciprocal(1.0)
    # r0 slightly above 1 keeps the finite-difference stencil inside the
    # inverse's range at the top of the t-window
    eta_h = power_law(1.0 - alpha, r0=1.1)
    cases = [
        ("log_lipschitz", 1.0, eta_ll, None, lambda t: np.exp(1.0 / t) / t**2),
        ("holder", alpha, eta_h, None, lambda t: (1.0 / (1.0 - alpha)) * t ** (-(2.0 - alpha) / (1.0 - alpha))),
    ]
    return [_row("lipschitz", 1.0, "excluded", "excluded", "")] + _rate_rows(
        cases, lambda eta, _: min(1.0, eta.range_max)
    )


def additional_local_condition_rows(alpha=0.5):
    """Decay rates -d/dt(1/rho(eta^{-1}(t))) for eta/rho combinations, with rho = r^0.7 for the power law."""
    beta = 0.7
    eta_ll = log_reciprocal(1.0)
    eta_h = power_law(1.0 - alpha, r0=1.1)
    cases = [
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
    # stay inside both inverse ranges: eta^{-1}(t) must not exceed rho's r0
    return _rate_rows(cases, lambda eta, rho: min(1.0, eta.range_max, float(eta.value(min(eta.r0, rho.r0)))) * 0.999)


_XI_GRID = np.geomspace(1e3, 1e6, 25)


def weight_order_rows():
    """Fitted growth orders of the three weights against the catalog targets.

    One fit per eta: W1 and W2 do not depend on rho, and the rows with
    rho = r^0.7 print only W3.
    """
    rho_id = power_law(1.0, role="rho")
    cases = [("log_lipschitz", log_reciprocal(1.0), 0.0, (rho_id,))]
    cases += [("holder", power_law(1.0 - a), 1.0 - a, (rho_id, power_law(0.7, role="rho"))) for a in (0.2, 0.5)]
    rows = []
    for label, eta, target, rhos in cases:
        orders = _fit_orders(eta, rhos, ZoneParams(M=zone_floor(eta)), _XI_GRID)
        names = (f"w1|{label}", f"w2|{label}", f"w3|{label}", "w3|holder_rho0.7")
        rows += [_row(name, eta.param, target, m, abs(m - target)) for name, m in zip(names, orders)]
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
