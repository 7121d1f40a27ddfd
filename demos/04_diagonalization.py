"""The diagonalization chain at one phase-space point.

The companion symbol A is brought to diagonal form by the Vandermonde M1 in
the normalized roots (with its explicit elementary-symmetric inverse), the
time-derivative correction C1 is removed by M2 in the hyperbolic zone, and
the remaining diagonal terms are absorbed into exponential weights whose
time integrals stay bounded along the frequency sweep.  With a_1 absent
those integrals are (i/m) log(g_p(T)/g_p(0)) of the root-gap sums
g_p = sum_i (lam_i - lam_p), from the roots at the two ends alone; for
m = 2 that is (1/4) |log(a_eps(T)/a_eps(0))|.
"""

import numpy as np

from hyplab.coefficients import CoefficientSpec
from hyplab.companion import HyperbolicOperatorSpec, characteristic_roots, companion_symbol, roots_on_times
from hyplab.diagonalizers import c1_entries, m1_inverse_symbol, m1_symbol, m2_symbol, m3_weights
from hyplab.weights import jbracket

xi = 512.0
spec = HyperbolicOperatorSpec(
    3,
    (
        CoefficientSpec("constant", base=0.5),
        CoefficientSpec("constant", base=2.0),
        CoefficientSpec("constant", base=0.25),
    ),
)
lam = characteristic_roots(spec, 0.1, xi)[0][0]  # one time: a grid of one
print("characteristic roots / <xi>:", np.round(lam / float(jbracket(xi)), 6))

A = companion_symbol(spec, 0.1, xi)
V = m1_symbol(lam, xi)
Vinv = m1_inverse_symbol(lam, xi)
resid = np.max(np.abs(Vinv @ A @ V - np.diag(lam)))
print(f"|M1^-1 A M1 - diag(lam)|_max = {resid:.2e}  (frozen coefficients diagonalize exactly)")
print(f"|M1^-1 M1 - I|_max          = {np.max(np.abs(Vinv @ V - np.eye(3))):.2e}")

print()
print("== the first-step correction and the second diagonalizer ==")
osc = HyperbolicOperatorSpec(2, (CoefficientSpec("holder_rough", delta=0.5, alpha=0.5), None))
t = 0.25
lam, lam_dot = roots_on_times(osc, t, xi)
C1 = c1_entries(lam, lam_dot, xi)[0]
M2 = m2_symbol(lam, lam_dot, xi)[0]
print("C1 entries (purely imaginary):")
print(C1)
print("M2 off-diagonal magnitude:", f"{np.max(np.abs(M2 - np.eye(2))):.3e}")

print()
print("== absorption weights stay bounded over a sweep (closed form, two root sets each) ==")
slow = HyperbolicOperatorSpec(2, (CoefficientSpec("log_power_oscillation", delta=0.5), None))
xis = np.geomspace(2**4, 2**14, 6)
for x, integrals in zip(xis, m3_weights(slow, xis, 0.5)):
    print(
        f"  |xi| = {x:7.0f}: max |integral| = {np.max(np.abs(integrals)):.4f},"
        f" max |Re integral| = {np.max(np.abs(integrals.real)):g} (so |w_p| = 1)"
    )
