"""Coefficient families, frequency-adapted mollification, and its rates.

The mollifier is a fixed even bump of unit mass; at width eps = 1/<xi> the
smoothed coefficient a_eps obeys, for a matched Hoelder-alpha family,

    sup_t |a_eps - a|    ~  eps^alpha
    sup_t |d_t a_eps|    ~  eps^(alpha - 1),

which is what the regularization-bound report certifies clause by clause.
"""

import numpy as np

from hyplab.coefficients import (
    CoefficientSpec,
    mollify,
    oscillation_class,
    verify_reg_bounds,
)
from hyplab.moduli import log_reciprocal, power_law
from hyplab.weights import fit_loglog_slope, jbracket
from hyplab.zones import ZoneParams

print("== oscillation classes ==")
for g in (0.0, 0.5, 1.0, 1.5):
    spec = CoefficientSpec("log_power_oscillation", delta=0.5, gamma_osc=g)
    ts = np.geomspace(1e-4, 0.4, 2001)
    c = np.max(np.abs(spec.time_derivative(ts, 1)) * ts / np.log(1.0 / ts) ** g)
    print(f"  gamma = {g}: {oscillation_class(g):<9}  sup |a'| t / log^g = {c:.3f}")

print()
print("== mollification sanity ==")
const = CoefficientSpec("constant")
print(f"constant preserved: {mollify(const, 0.01, 0.2)[0]:.15f}")
rough = CoefficientSpec("holder_rough", delta=0.5, alpha=0.5)
for eps in (0.1, 0.02, 0.004):
    err = abs(mollify(rough, eps, 0.31)[0] - rough.value(0.31))
    print(f"  eps = {eps:5g}: |a_eps - a|(0.31) = {err:.3e}")

print()
print("== fitted regularization rates for the rough family ==")
eps_grid = 1.0 / jbracket(np.geomspace(2**5, 2**14, 19))
ts = np.linspace(0.05, 0.45, 41)
sup_diff = [np.max(np.abs(mollify(rough, float(e), ts)[0] - rough.value(ts))) for e in eps_grid]
sup_d1 = [np.max(np.abs(mollify(rough, float(e), ts)[1])) for e in eps_grid]
print(f"  |a_eps - a| ~ eps^{fit_loglog_slope(eps_grid, sup_diff)[0]:.3f} (target +0.5)")
print(f"  |d_t a_eps| ~ eps^{fit_loglog_slope(eps_grid, sup_d1)[0]:.3f} (target -0.5)")

print()
print("== per-clause bound ratios, matched log-lipschitz configuration ==")
spec = CoefficientSpec("log_power_oscillation", delta=0.5)
clauses = verify_reg_bounds(
    spec,
    log_reciprocal(1.0),
    power_law(1.0, role="rho"),
    ZoneParams(2.0, 2.0, 0.5),
    np.geomspace(4, 4096, 13),
    np.geomspace(0.01, 0.5, 17),
)
print("regularization-bound ratios (finite C = verified):")
for name, c in clauses.items():
    print(
        f"  {name:<14} C = {c.max_ratio:10.4g}  at (t={c.argmax_t:.4g}, xi={c.argmax_xi:.4g})"
        f"  top-decade growth x{c.top_decade_growth:.3g}"
    )
