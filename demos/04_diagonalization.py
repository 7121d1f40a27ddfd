"""The diagonalization chain at one phase-space point.

The companion symbol A is brought to diagonal form by the Vandermonde M1 in
the normalized roots (with its explicit elementary-symmetric inverse), the
time-derivative correction C1 is removed by M2 in the hyperbolic zone, and
the remaining diagonal terms are absorbed into exponential weights whose
time integrals stay bounded along the frequency sweep.
"""

import numpy as np

from hyplab.coefficients import CoefficientSpec, Mollifier
from hyplab.companion import (
    HyperbolicOperatorSpec,
    RootSet,
    characteristic_roots,
    companion_symbol,
    roots_on_times,
)
from hyplab.diagonalizers import c1_entries, m1_inverse_symbol, m1_symbol, m2_symbol, m3_weights
from hyplab.weights import jbracket
from hyplab.zones import Zone

xi = 512.0
spec = HyperbolicOperatorSpec(
    3,
    (
        CoefficientSpec("constant", base=0.5),
        CoefficientSpec("constant", base=2.0),
        CoefficientSpec("constant", base=0.25),
    ),
)
roots = characteristic_roots(spec, 0.1, None, xi)
print("characteristic roots / <xi>:", np.round(roots.lam / float(jbracket(xi)), 6))

A = companion_symbol(spec, 0.1, None, xi)
V = m1_symbol(roots)
Vinv = m1_inverse_symbol(roots)
resid = np.max(np.abs(Vinv @ A @ V - np.diag(roots.lam)))
print(f"|M1^-1 A M1 - diag(lam)|_max = {resid:.2e}  (frozen coefficients diagonalize exactly)")
print(f"|M1^-1 M1 - I|_max          = {np.max(np.abs(Vinv @ V - np.eye(3))):.2e}")

print()
print("== the first-step correction and the second diagonalizer ==")
osc = HyperbolicOperatorSpec(2, (CoefficientSpec("holder_rough", delta=0.5, alpha=0.5), None))
t = 0.25
lam, lam_dot = roots_on_times(osc, np.array([t]), None, xi, Mollifier())
rs = RootSet(lam[0], xi)
C1 = c1_entries(rs, lam_dot[0])
M2 = m2_symbol(rs, lam_dot[0], Zone.HYPERBOLIC)
print("C1 entries (purely imaginary):")
print(C1)
print("M2 off-diagonal magnitude:", f"{np.max(np.abs(M2 - np.eye(2))):.3e}")

print()
print("== absorption weights stay bounded over a sweep ==")
slow = HyperbolicOperatorSpec(2, (CoefficientSpec("log_power_oscillation", delta=0.5), None))
for x in np.geomspace(2**4, 2**10, 4):
    res = m3_weights(slow, None, float(x), 0.5, quadrature=512)
    print(
        f"  |xi| = {x:7.0f}: max |integral| = {np.max(np.abs(res.integrals)):.4f},"
        f" |w_p| = {np.round(res.magnitudes, 6)}"
    )
