"""Phase-space zones, the three symbol weights, and the index bound.

For each modulus the weights' growth orders in <xi> are fitted by log-log
regression; the largest order m0 feeds s_min = max(1 + eps, 2 m0/(2 - m0)).
A Hoelder-alpha modulus gives m0 = 1 - alpha; the log-Lipschitz modulus
gives arbitrarily small m0 on expanding grids, hence s_min = 1 + eps.
"""

import numpy as np

from hyplab.moduli import log_reciprocal, power_law
from hyplab.weights import classify, weight_w1, weight_w2, weight_w3, zygmund_index_bound
from hyplab.zones import ZoneParams, zone_boundary, zone_floor, zone_of

eta = power_law(0.5)
zp = ZoneParams(N=2.0, M=zone_floor(eta), T=0.5)
print(f"frequency floor for eta = sqrt(r): M = {zp.M}")
for xi in (16.0, 256.0, 4096.0):
    t_xi = zone_boundary(eta, zp, xi)
    tags = {t: zone_of(t, xi, eta, zp).value for t in (0.0, t_xi, min(2 * t_xi, 0.5))}
    print(f"  |xi| = {xi:6.0f}: t_xi = {t_xi:.4f}, tags {tags}")

print()
print("== weights at a fixed frequency ==")
xi = 1000.0
rho = power_law(1.0, role="rho")
t = 3.0 * zone_boundary(eta, zp, xi)
print(f"W1 = {float(weight_w1(eta, xi)):.4g}")
print(f"W2(t=3 t_xi) = {float(weight_w2(eta, xi, t)):.4g}")
print(f"W3(t=3 t_xi) = {float(weight_w3(eta, rho, xi, t)):.4g}  (rho = identity: equals W2)")

print()
print("== classification over a three-decade grid ==")
grid = np.geomspace(1e3, 1e6, 25)
eps = 0.01
for label, eta, M in (
    ("log-lipschitz ", log_reciprocal(1.0), 2.0),
    ("holder 0.5    ", power_law(0.5), 4.0),
    ("holder 0.2    ", power_law(0.8), 32.0),
):
    rep = classify(eta, rho, ZoneParams(2.0, M, 0.5), grid, eps)
    print(
        f"{label} m0_hat = ({rep.m0_w1:.3f}, {rep.m0_w2:.3f}, {rep.m0_w3:.3f})"
        f" -> m0 = {rep.m0:.3f}, s_min = {rep.s_min:.4f}"
    )
print(f"m0 = 1 (the Hoelder limit alpha -> 0) -> s_min = {zygmund_index_bound(1.0, eps)}")
