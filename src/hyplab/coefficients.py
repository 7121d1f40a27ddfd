"""Test coefficients, their time mollification and regularization bounds.

Three time profiles around a positive base value:

* ``constant``               a(t) = base
* ``log_power_oscillation``  a(t) = base + delta * sin((log 1/t)^(1+gamma))
* ``holder_rough``           a(t) = base + delta * sum_j 2^(-j*alpha) cos(2^j t)

The oscillating family saturates derivative bounds of the form
|a^(q)(t)| <= C (t^-1 (log 1/t)^gamma)^q; the lacunary family has the uniform
Hoelder-alpha modulus.  An optional spatial factor (1 + b(x)) with a lacunary
periodic profile b keeps everything uniformly elliptic.

Mollification is a time convolution with a fixed even C-infinity bump of unit
mass at width eps, evaluated by a composite midpoint rule whose weights sum
to one exactly (constants are preserved to machine precision).  ``mollify``
returns the jet a_eps, d_t a_eps, d_t^2 a_eps: the time derivatives
differentiate the bump, never the rough coefficient.  For the lacunary family
angle addition sums each cosine term over the window in closed form, so a
window above the t = 0 freeze costs O(depth) cosines per time instead of
O(nodes * depth); every other window evaluates the coefficient once at its
nodes.  Both are the same midpoint rule, so coarse eps aliases the top
lacunary terms alike.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .moduli import AuxiliaryFunction, decay_rate, decay_rate_pair
from .weights import _top_window, fit_loglog_slope, jbracket
from .zones import ZoneParams, validate_zone, zone_boundary

__all__ = [
    "SpatialProfile",
    "CoefficientSpec",
    "Mollifier",
    "oscillation_class",
    "mollify",
    "RegBoundsReport",
    "verify_reg_bounds",
]

PROFILES = ("constant", "log_power_oscillation", "holder_rough")
SPATIAL_TERMS = 10  # lacunary terms of the spatial profile b(x)

# freeze point of the constant continuation below t = 0 for profiles with no
# one-sided limit there
_T_FLOOR = 2.0**-40


@dataclass(frozen=True)
class SpatialProfile:
    """Periodic lacunary perturbation b(x), normalized to sup|b| = amplitude."""

    family: str = "lacunary"
    s: float = 1.2
    amplitude: float = 0.25

    def __post_init__(self):
        if self.family != "lacunary":
            raise ValueError("only the lacunary spatial family is cataloged")
        if not (0.0 <= self.amplitude < 0.5):
            raise ValueError("spatial amplitude must lie in [0, 1/2)")
        if self.s <= 0.0:
            raise ValueError("spatial regularity index must be positive")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        js = np.arange(1, SPATIAL_TERMS + 1)
        scale = self.amplitude / np.sum(2.0 ** (-js * self.s))
        out = np.zeros_like(x)
        for j in js:
            out += 2.0 ** (-j * self.s) * np.cos(2.0**j * x)
        return scale * out


@dataclass(frozen=True)
class CoefficientSpec:
    """One scalar coefficient a(t) (optionally times a spatial factor)."""

    profile: str = "constant"
    base: float = 2.0
    delta: float = 0.0
    gamma_osc: float = 0.0
    alpha: float = 0.5
    depth: int = 18
    spatial: Optional[SpatialProfile] = None

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}, expected one of {PROFILES}")
        if not (self.base > 0.0):
            raise ValueError("base must be positive")
        if not (0.0 <= self.delta < self.base / 2.0):
            raise ValueError("amplitude delta must lie in [0, base/2)")
        if self.gamma_osc < 0.0:
            raise ValueError("oscillation exponent must be nonnegative")
        if self.profile == "holder_rough" and not (0.0 < self.alpha < 1.0):
            raise ValueError("holder_rough exponent must lie in (0, 1)")

    # -- time part -------------------------------------------------------

    def _lacunary_terms(self):
        """Frequencies 2^j and amplitudes 2^(-j alpha), j = 0..depth, of the holder_rough sum."""
        js = np.arange(self.depth + 1)
        return 2.0**js, 2.0 ** (-js * self.alpha)

    def _time_value(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0):
            raise ValueError("coefficient evaluated at t <= 0")
        if self.profile == "constant":
            return np.broadcast_to(np.float64(self.base), t.shape).copy()
        if self.profile == "log_power_oscillation":
            if np.any(t >= 1.0) and self.gamma_osc > 0.0:
                raise ValueError("log_power_oscillation with gamma > 0 needs t < 1")
            logs = np.log(1.0 / t)
            return self.base + self.delta * np.sin(np.sign(logs) * np.abs(logs) ** (1.0 + self.gamma_osc))
        freqs, amps = self._lacunary_terms()
        acc = np.zeros_like(t)
        for w, c in zip(freqs, amps):
            acc += c * np.cos(w * t)
        return self.base + self.delta * acc / np.sum(amps)

    def _time_derivative(self, t, order=1):
        """Closed-form first or second time derivative of the profile."""
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0):
            raise ValueError("coefficient derivative at t <= 0")
        if order not in (1, 2):
            raise ValueError("derivative order must be 1 or 2")
        if self.profile == "constant":
            return np.zeros_like(t)
        if self.profile == "log_power_oscillation":
            g = self.gamma_osc
            L = np.log(1.0 / t)
            phase = L ** (1.0 + g)
            if order == 1:
                return -self.delta * (1.0 + g) * L**g / t * np.cos(phase)
            term1 = (g * L ** (g - 1.0) + L**g) * np.cos(phase)
            term2 = -(1.0 + g) * L ** (2.0 * g) * np.sin(phase)
            return self.delta * (1.0 + g) / t**2 * (term1 + term2)
        freqs, amps = self._lacunary_terms()
        acc = np.zeros_like(t)
        for w, c in zip(freqs, amps):
            if order == 1:
                acc += c * (-w) * np.sin(w * t)
            else:
                acc += c * (-(w**2)) * np.cos(w * t)
        return self.delta * acc / np.sum(amps)

    # -- full value ------------------------------------------------------

    def _spatial_factor(self, x):
        if self.spatial is None or x is None:
            return 1.0
        return 1.0 + self.spatial.value(x)

    def value(self, t, x=None):
        out = self._time_value(t) * self._spatial_factor(x)
        return out if np.asarray(out).shape else float(out)

    def time_derivative(self, t, order=1, x=None):
        out = self._time_derivative(t, order) * self._spatial_factor(x)
        return out if np.asarray(out).shape else float(out)

    @property
    def sup_abs(self):
        """Upper bound for |a| over its domain."""
        factor = 1.0 + (self.spatial.amplitude if self.spatial else 0.0)
        return (self.base + self.delta) * factor

    def extended_time_value(self, t):
        """Evaluation on the mollification windows and the integrator stages.

        Below zero the profile has no one-sided limit in general, so the
        value freezes at a fixed tiny positive time (constant continuation,
        which preserves the modulus of continuity).  Above the horizon the
        profile continues by its own formula: freezing there would plant a
        kink whose mollification pollutes second-derivative measurements at
        the horizon by a factor 1/eps.
        """
        t = np.asarray(t, dtype=float)
        hi = np.inf
        if self.profile == "log_power_oscillation" and self.gamma_osc > 0.0:
            hi = 1.0 - 1e-9
        return self._time_value(np.clip(t, _T_FLOOR, hi))

    def rate_bound(self, t, order=1):
        """Envelope of |a'| (order 1) or |a''| (order 2) at times t > 0, for the integrator's step sizes.

        The log-power bounds are delta (1+gamma) L^gamma / t and
        delta (1+gamma) (gamma L^(gamma-1) + L^gamma + (1+gamma) L^(2 gamma)) / t^2
        with L = max(log 1/t, 0); they read 0 where gamma > 0 and t >= 1,
        because ``extended_time_value`` freezes the coefficient there.  The
        first is nonincreasing in t.  The lacunary bounds are the sums of the
        term amplitudes and do not depend on t.
        """
        t = np.asarray(t, dtype=float)
        if order not in (1, 2):
            raise ValueError("derivative order must be 1 or 2")
        if self.profile == "constant":
            return np.zeros_like(t)
        if self.profile == "log_power_oscillation":
            g = self.gamma_osc
            L = np.maximum(np.log(1.0 / t), 0.0)
            if order == 1:
                return self.delta * (1.0 + g) * L**g / t
            low = np.where(L > 0.0, g * np.where(L > 0.0, L, 1.0) ** (g - 1.0), 0.0)
            return self.delta * (1.0 + g) * (low + L**g + (1.0 + g) * L ** (2.0 * g)) / t**2
        freqs, amps = self._lacunary_terms()
        return np.full_like(t, self.delta * np.sum(amps * freqs**order) / np.sum(amps))


def oscillation_class(gamma_osc: float) -> str:
    """Qualitative speed of oscillation encoded by the exponent gamma."""
    if gamma_osc < 0.0:
        raise ValueError("oscillation exponent must be nonnegative")
    if gamma_osc == 0.0:
        return "very_slow"
    if gamma_osc < 1.0:
        return "slow"
    if gamma_osc == 1.0:
        return "fast"
    return "very_fast"


# ----------------------------------------------------------------------------
# mollifier

def _bump(y):
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - y[inside] ** 2))
    return out


def _bump_d1(y):
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    yi = y[inside]
    out[inside] = np.exp(-1.0 / (1.0 - yi**2)) * (-2.0 * yi) / (1.0 - yi**2) ** 2
    return out


def _bump_d2(y):
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    yi = y[inside]
    q = 1.0 - yi**2
    out[inside] = np.exp(-1.0 / q) * ((2.0 * yi / q**2) ** 2 - (2.0 + 6.0 * yi**2) / q**3)
    return out


@functools.lru_cache(maxsize=8)
def _mollifier_grids(n):
    y = (np.arange(n) + 0.5) * (2.0 / n) - 1.0
    raw = _bump(y)
    mass = raw.sum()
    w0 = raw / mass  # discrete measure of total mass one
    w1 = _bump_d1(y) / mass
    w1 = w1 - w1.mean()
    w2 = _bump_d2(y) / mass
    w2 = w2 - w2.mean()
    return y, w0, w1, w2


@dataclass(frozen=True)
class Mollifier:
    """Fixed even unit-mass bump exp(-1/(1-y^2)) on (-1, 1), discretized.

    ``nodes`` midpoint points per support width; the discrete weights are
    normalized to sum to one exactly, and the derivative weights are
    recentred so they annihilate constants exactly.
    """

    nodes: int = 256

    def __post_init__(self):
        if self.nodes < 64:
            raise ValueError("need at least 64 quadrature nodes per width")

    def _grids(self):
        return _mollifier_grids(self.nodes)

    def profile(self, y):
        """Normalized bump value psi(y) (continuum normalization)."""
        norm = 0.4439938161680794
        return _bump(np.asarray(y, dtype=float)) / norm


def _lacunary_window_sums(spec: CoefficientSpec, eps: float, t, y, weights):
    """Rows sum_i w_i a(t - eps y_i) of the holder_rough profile, one per weight row.

    Angle addition splits every lacunary term,
    sum_i w_i cos(om (t - eps y_i)) = cos(om t) C_w(om eps) + sin(om t) S_w(om eps),
    with C_w, S_w the weights' cosine and sine sums at the nodes; the base
    contributes base * sum_i w_i.  This is the midpoint rule term for term.
    """
    freqs, amps = spec._lacunary_terms()
    W = np.stack(weights)
    node_phase = np.multiply.outer(eps * y, freqs)
    C, S = W @ np.cos(node_phase), W @ np.sin(node_phase)  # (rows, terms)
    phase = np.multiply.outer(t, freqs)
    c = spec.delta * amps / np.sum(amps)
    terms = (np.cos(phase) * c) @ C.T + (np.sin(phase) * c) @ S.T
    return spec.base * W.sum(axis=1)[:, None] + terms.T


def mollify(spec: CoefficientSpec, mol: Mollifier, eps: float, t, x=None):
    """Jet of (a *_t psi_eps) at times t: rows a_eps, d_t a_eps, d_t^2 a_eps.

    The rows are the bump's midpoint rule and its derivative weights over eps
    and eps^2.  A holder_rough row whose window stays above the t = 0 freeze
    sums the window in closed form (``_lacunary_window_sums``); every other
    row evaluates the coefficient once on its window (constant continuation
    below t = 0) for all three rows.  The shape is (3,) + shape(t).
    """
    if not (eps > 0.0):
        raise ValueError("mollification width must be positive")
    shape = np.shape(t)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    y, w0, w1, w2 = mol._grids()
    jet = np.empty((3, t.size))
    closed = np.zeros(t.shape, bool)
    if spec.profile == "holder_rough":
        closed = t - eps * y.max() >= _T_FLOOR
        jet[:, closed] = _lacunary_window_sums(spec, eps, t[closed], y, (w0, w1, w2))
    vals = spec.extended_time_value(t[~closed, None] - eps * y[None, :])
    jet[:, ~closed] = np.stack([vals @ w0, vals @ w1, vals @ w2])
    jet[1] /= eps
    jet[2] /= eps**2
    return (jet * spec._spatial_factor(x)).reshape((3,) + shape)


# ----------------------------------------------------------------------------
# regularization bounds

@dataclass
class ClauseCheck:
    name: str
    max_ratio: float
    argmax_t: float
    argmax_xi: float
    ratio_by_xi: np.ndarray
    top_decade_growth: float


@dataclass
class RegBoundsReport:
    spec: CoefficientSpec
    eta: AuxiliaryFunction
    rho: AuxiliaryFunction
    clauses: dict

    def summary(self):
        lines = ["regularization-bound ratios (finite C = verified):"]
        for c in self.clauses.values():
            lines.append(
                f"  {c.name:<14} C = {c.max_ratio:10.4g}  at (t={c.argmax_t:.4g}, xi={c.argmax_xi:.4g})"
                f"  top-decade growth x{c.top_decade_growth:.3g}"
            )
        return "\n".join(lines)


def _growth_over_top_decade(xi_grid, ratios):
    xi = np.asarray(xi_grid, dtype=float)
    r = np.asarray(ratios, dtype=float)
    good = _top_window(xi, 1.0) & (r > 0.0)
    if int(good.sum()) < 3:
        return 1.0
    slope, _ = fit_loglog_slope(xi[good], r[good])
    return float(10.0**slope)


def verify_reg_bounds(
    spec: CoefficientSpec,
    eta: AuxiliaryFunction,
    rho: AuxiliaryFunction,
    zp: ZoneParams,
    xi_grid,
    t_grid,
    mol: Optional[Mollifier] = None,
    t_samples: int = 33,
) -> RegBoundsReport:
    """Measure the six regularized-coefficient bounds with eps = 1/<xi>.

    Globally in time (on the caller's t_grid):
      (i)   |a_eps|            vs 1
      (ii)  |a_eps - a|        vs <xi>^-1 / eta(1/|xi|)
      (iv)  |d_t a_eps|        vs 1 / eta(1/|xi|)
    In the hyperbolic zone (on a per-frequency grid from t_xi to T):
      (iii) |a_eps - a|        vs <xi>^-1 rho(1/|xi|) (-d/dt 1/rho(eta^-1(t - 1/|xi|)))
      (v)   |d_t a_eps|        vs (-d/dt 1/eta^-1(t - 1/|xi|))^(1/2)
      (vi)  |d_t^2 a_eps|      vs <xi> rho(1/|xi|) (-d/dt 1/rho(eta^-1(t - 1/|xi|)))

    Every clause reports the largest measured/bound ratio (a finite constant
    means "verified"), where it occurred, and the fitted growth of the ratio
    across the top frequency decade (growth near or below one means the bound
    is stable; the caller decides the pass threshold).

    A measured value within the summation error bound of the quadrature
    that made it is round-off and counts as zero.

    The caller is responsible for matching the coefficient's modulus with
    eta; a mismatch shows up as top-decade growth.
    """
    validate_zone(eta, zp)
    mol = mol or Mollifier()
    xi = np.asarray(xi_grid, dtype=float)
    tg = np.asarray(t_grid, dtype=float)
    if np.any(xi < zp.M):
        raise ValueError("frequency grid starts below the floor M")
    if np.any(tg <= 0.0) or np.any(tg > zp.T):
        raise ValueError("t grid must lie in (0, T]")
    factor = 1.0
    if spec.spatial is not None:
        xs = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        factor = float(np.max(np.abs(1.0 + spec.spatial.value(xs))))
    # summation error bound n u sum|w_k| sup|a| of the quadrature behind jet row
    # k, before its division by eps^k
    _, *weights = mol._grids()
    roundoff = mol.nodes * np.finfo(float).eps * spec.sup_abs * np.array([np.abs(w).sum() for w in weights])
    row_order = np.array([0, 0, 1, 2])

    def measured(ts, eps):
        """|a_eps|, |a_eps - a|, |d_t a_eps|, |d_t^2 a_eps| at times ts, max over x (if any).

        One mollification of the window feeds all four rows.  A value within
        the round-off bound of the quadrature that made it counts as zero.
        """
        jet = mollify(spec, mol, eps, ts)
        rows = np.abs(np.stack([jet[0], jet[0] - spec._time_value(ts), jet[1], jet[2]])) * factor
        tol = roundoff[row_order] / eps**row_order
        return np.where(rows > tol[:, None], rows, 0.0)

    jb = jbracket(xi)
    names = ("i", "ii", "iii", "iv", "v", "vi")
    ratios = {n: np.full(xi.size, np.nan) for n in names}
    arg = {n: (0.0, 0.0, -1.0) for n in names}

    for k, (x_abs, jbx) in enumerate(zip(xi, jb)):
        eps = 1.0 / jbx
        t_lo = zone_boundary(eta, zp, x_abs)
        zone_alive = t_lo < zp.T * (1.0 - 1e-12)
        t_hyp = np.geomspace(max(t_lo, 4.0 / jbx), zp.T, t_samples) if zone_alive else None

        bounds = {
            "i": np.ones_like(tg),
            "ii": np.full_like(tg, 1.0 / (jbx * eta.value(1.0 / x_abs))),
            "iv": np.full_like(tg, 1.0 / eta.value(1.0 / x_abs)),
        }
        aeps, diff, d1, _ = measured(tg, eps)
        meas = {"i": aeps, "ii": diff, "iv": d1}
        if zone_alive:
            bounds["iii"] = rho.value(1.0 / x_abs) / jbx * decay_rate_pair(eta, rho, t_hyp - 1.0 / x_abs)
            bounds["v"] = np.sqrt(decay_rate(eta, t_hyp - 1.0 / x_abs))
            bounds["vi"] = jbx * rho.value(1.0 / x_abs) * decay_rate_pair(eta, rho, t_hyp - 1.0 / x_abs)
            _, meas["iii"], meas["v"], meas["vi"] = measured(t_hyp, eps)
        for n in meas:
            ts = tg if n in ("i", "ii", "iv") else t_hyp
            r = meas[n] / bounds[n]
            i_best = int(np.argmax(r))
            ratios[n][k] = r[i_best]
            if r[i_best] > arg[n][2]:
                arg[n] = (float(ts[i_best]), float(x_abs), float(r[i_best]))

    clauses = {}
    for n in names:
        t_at, xi_at, peak = arg[n]
        clauses[n] = ClauseCheck(
            name=n,
            max_ratio=float(peak) if peak >= 0.0 else float("nan"),
            argmax_t=t_at,
            argmax_xi=xi_at,
            ratio_by_xi=ratios[n],
            top_decade_growth=_growth_over_top_decade(xi, ratios[n]),
        )
    return RegBoundsReport(spec, eta, rho, clauses)
