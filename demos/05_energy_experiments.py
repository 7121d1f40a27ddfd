"""Frequency-wise energy experiments: no loss for very slow oscillations.

Each frequency evolves U' = i A(t, xi) U from a unit vector; the fitted
slope of log(amplification) against log<xi> is the empirical loss of
derivatives.  Very slow oscillations (gamma = 0) give a flat profile; the
very fast family (gamma = 1.5) shows clear growth.  The conjugation weight's
time integral stays bounded, which is the structural reason for the no-loss
estimate.
"""

import numpy as np

from hyplab.coefficients import CoefficientSpec
from hyplab.companion import HyperbolicOperatorSpec
from hyplab.conjugation import ThetaSpec, theta_integral_bound
from hyplab.energy import FrequencyExperiment, estimate_loss, evolve_sweep, sobolev_energy
from hyplab.moduli import log_reciprocal, power_law
from hyplab.weights import jbracket
from hyplab.zones import ZoneParams

ETA = log_reciprocal(1.0)
RHO = power_law(1.0, role="rho")
ZONE = ZoneParams(2.0, 2.0, 0.5)


def sweep(gamma, delta, grid, step):
    op = HyperbolicOperatorSpec(
        2, (CoefficientSpec("log_power_oscillation", base=2.0, delta=delta, gamma_osc=gamma), None)
    )
    exp = FrequencyExperiment(op, grid, ZONE, ETA, rho=RHO, step_factor=step)
    return evolve_sweep(exp)


print("== very slow oscillation: flat amplification ==")
grid = np.geomspace(2**4, 2**12, 17)
traces = sweep(0.0, 0.5, grid, 0.05)
for tr in traces[::4]:
    print(f"  |xi| = {tr.xi:7.1f}: amplification {tr.amplification:.4f}")
loss = estimate_loss(traces)
print(f"fitted loss exponent: {loss.nu0_hat:+.4f} (stderr {loss.stderr:.4f})")

print()
print("== very fast oscillation: visible growth ==")
traces_f = sweep(1.5, 0.95, grid, 0.1)
loss_f = estimate_loss(traces_f)
print(f"  amplification range [{min(t.amplification for t in traces_f):.3f}, "
      f"{max(t.amplification for t in traces_f):.3f}]")
print(f"  fitted loss exponent: {loss_f.nu0_hat:+.4f}")

print()
print("== Sobolev energies across the sweep ==")
spectrum = jbracket(grid) ** (-3.0)
times, e1 = sobolev_energy(traces, 1.0, spectrum)
print(f"  E_1(0) = {e1[0]:.4e}, sup_t E_1(t)/E_1(0) = {np.max(e1) / e1[0]:.4f}")

print()
print("== conjugation weight: bounded time integral ==")
integrals, slope = theta_integral_bound(ThetaSpec(ETA, RHO, ZONE), np.geomspace(1e3, 1e6, 25))
print(f"  max integral {np.max(integrals):.4f}, top-decade slope {slope:+.4f}")
