"""Zone decomposition of the extended phase space.

The (t, xi) half-plane with |xi| >= M splits along the curve
t_xi = N * eta(1/|xi|) into a low-time region where global modulus bounds
apply and a large-time region where local oscillation bounds apply.  Points
on the curve are tagged hyperbolic (the regions overlap there; experiments
need one deterministic answer).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .moduli import AuxiliaryFunction

__all__ = ["Zone", "ZoneParams", "zone_boundary", "zone_of", "zone_floor", "validate_zone"]


class Zone(enum.Enum):
    PSEUDODIFFERENTIAL = "pseudodifferential"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class ZoneParams:
    """Zone constant N >= 2, frequency floor M and time horizon T."""

    N: float = 2.0
    M: float = 2.0
    T: float = 0.5

    def __post_init__(self):
        if not (self.N >= 2.0):
            raise ValueError("zone constant N must be >= 2")
        if not (self.M > 0.0):
            raise ValueError("frequency floor M must be positive")
        if not (self.T > 0.0):
            raise ValueError("horizon T must be positive")


def validate_zone(eta: AuxiliaryFunction, zp: ZoneParams):
    """Check the frequency floor against eta.

    Requires 1/M <= r0 and N*eta(1/M)/2 >= 2/M.  The latter need not hold at
    1/|xi| for |xi| > M: r*log(1/r)**alpha increases only below exp(-alpha),
    and log_reciprocal(3) passes at M = 2 with eta(1/16) = 0.047 < 2/16.  The
    window floors of ``weights._fit_orders`` and ``coefficients.verify_reg_bounds``,
    not this check, keep t - 1/<xi> positive.
    """
    if 1.0 / zp.M > eta.r0:
        raise ValueError(f"M={zp.M} too small: 1/M exceeds the domain end r0={eta.r0}")
    if zp.N * eta.value(1.0 / zp.M) / 2.0 < (2.0 / zp.M) * (1.0 - 1e-12):
        raise ValueError(f"M={zp.M} too small for N={zp.N}: N*eta(1/M)/2 < 2/M")
    return zp


def zone_floor(eta: AuxiliaryFunction, N=ZoneParams.N):
    """Smallest power of two M, from 2 to 2^60, that ``validate_zone`` accepts."""
    for k in range(1, 61):
        zp = ZoneParams(N, 2.0**k)
        try:
            return validate_zone(eta, zp).M
        except ValueError:
            continue
    raise ValueError("no admissible frequency floor below 2^60")


def zone_boundary(eta: AuxiliaryFunction, zp: ZoneParams, xi_abs):
    """Separating time t_xi = N * eta(1/|xi|); strictly decreasing in |xi|."""
    xi_abs = np.asarray(xi_abs, dtype=float)
    if np.any(xi_abs < zp.M):
        raise ValueError(f"|xi| below the frequency floor M={zp.M}")
    out = zp.N * np.asarray(eta.value(1.0 / xi_abs))
    return out if out.shape else float(out)


def zone_of(t, xi_abs, eta: AuxiliaryFunction, zp: ZoneParams) -> Zone:
    """Tag a phase-space point; the shared boundary counts as hyperbolic."""
    if not (0.0 <= t <= zp.T):
        raise ValueError(f"t={t} outside [0, T={zp.T}]")
    t_xi = zone_boundary(eta, zp, xi_abs)
    return Zone.HYPERBOLIC if t >= t_xi else Zone.PSEUDODIFFERENTIAL
