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
mass at width eps, evaluated by one composite midpoint rule of
``MOLLIFIER_NODES`` nodes whose weights sum to one exactly (constants are
preserved to machine precision).  ``mollify`` returns the jet a_eps,
d_t a_eps, d_t^2 a_eps: the time derivatives differentiate the bump, never
the rough coefficient.  For the lacunary family
angle addition sums each cosine term over the window in closed form, so a
window above the t = 0 freeze costs O(depth) cosines per time instead of
O(nodes * depth); both are the same midpoint rule, so coarse eps aliases
the top lacunary terms alike.  A log-power window with delta > 0 on which
the coefficient is analytic with margin (eps <= t/4; eps <= (1 - t)/4 where
gamma > 0 puts a branch point at s = 1; eps rate_bound(t - eps) <= delta/2;
clear of the t = 0 freeze and the t_end clip) samples the coefficient at
``INTERPOLANT_NODES`` Chebyshev nodes and applies the rule to their
barycentric interpolant through precomputed rows: the same midpoint rule up
to round-off, at 48 evaluations in place of 256.  Every other window (the
constant profile, delta = 0, windows near t = 0) evaluates the coefficient
once at its nodes; its sums of a constant are exact.  The width may differ
per time (eps = 1/<xi> on each frequency row of a (frequency, time) array),
so ``verify_reg_bounds`` measures a whole frequency grid in one evaluation
per time grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .moduli import AuxiliaryFunction, decay_rate, decay_rate_pair
from .weights import _check_grid, _top_decade_fit, jbracket
from .zones import ZoneParams, validate_zone, zone_boundary

__all__ = [
    "SpatialProfile",
    "CoefficientSpec",
    "oscillation_class",
    "mollify",
    "ClauseCheck",
    "verify_reg_bounds",
]

PROFILES = ("constant", "log_power_oscillation", "holder_rough")
SPATIAL_TERMS = 10  # lacunary terms of the spatial profile b(x)

# freeze point of the constant continuation below t = 0 for profiles with no
# one-sided limit there
_T_FLOOR = 2.0**-40
# distance below t_end (t = 1 where the log-power phase ends) of the clip
# point of the continuation
_T_END_GAP = 1e-9

# midpoint nodes of the mollifier rule across the bump's support (-1, 1)
MOLLIFIER_NODES = 256

# Chebyshev nodes of the interpolant that stands in for the coefficient on
# the midpoint nodes of a log-power window where it is analytic with margin:
# the window's half-width is at most ANALYTIC_RATIO of the distance from its
# centre to each branch point of the phase, and the phase turns by at most
# ANALYTIC_PHASE over a half-width (``_analytic_windows``)
INTERPOLANT_NODES = 48
ANALYTIC_RATIO = 0.25
ANALYTIC_PHASE = 0.5

# window or phase points per block of mollify's evaluation (temporaries of
# 128 KB; twice that raises a verify run's peak memory)
BLOCK = 2**14


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
        if not (0.0 < self.s < 2.0):  # the range of the direct Zygmund estimator verify compares against
            raise ValueError("spatial regularity index must lie in (0, 2)")

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
        if not (0.0 < self.base < np.inf):
            raise ValueError(f"base must be positive and finite, got {self.base}")
        if not (0.0 <= self.delta < self.base / 2.0):
            raise ValueError("amplitude delta must lie in [0, base/2)")
        if not (0.0 <= self.gamma_osc < np.inf):
            raise ValueError(f"oscillation exponent gamma_osc must be nonnegative and finite, got {self.gamma_osc}")
        if isinstance(self.depth, bool) or not isinstance(self.depth, (int, np.integer)) or self.depth < 0:
            raise ValueError(f"lacunary depth must be a nonnegative integer, got {self.depth!r}")
        if self.profile == "holder_rough" and not (0.0 < self.alpha < 1.0):
            raise ValueError("holder_rough exponent must lie in (0, 1)")

    # -- time part -------------------------------------------------------

    def _lacunary_terms(self):
        """Frequencies 2^j and amplitudes 2^(-j alpha), j = 0..depth, of the holder_rough sum."""
        js = np.arange(self.depth + 1)
        return 2.0**js, 2.0 ** (-js * self.alpha)

    def _time_jet(self, t, k=0):
        """(a, ..., a^(k)) of the time profile at times t > 0, k in {0, 1, 2}, each row in closed form."""
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0):
            raise ValueError("coefficient evaluated at t <= 0")
        if self.profile == "constant":
            return (np.broadcast_to(np.float64(self.base), t.shape).copy(),) + (np.zeros_like(t),) * k
        if self.profile == "log_power_oscillation":
            if np.any(t >= self.t_end):
                raise ValueError("log_power_oscillation with gamma > 0 needs t < 1")
            g = self.gamma_osc
            L = np.log(1.0 / t)
            # the phase sign(L) |L|^(1+gamma): L itself at gamma = 0, and L > 0 where gamma > 0
            phase = L ** (1.0 + g) if g > 0.0 else L
            jet = (self.base + self.delta * np.sin(phase),)
            if k >= 1:
                jet += (-self.delta * (1.0 + g) * L**g / t * np.cos(phase),)
            if k >= 2:
                term1 = (g * L ** (g - 1.0) + L**g) * np.cos(phase)
                term2 = -(1.0 + g) * L ** (2.0 * g) * np.sin(phase)
                jet += (self.delta * (1.0 + g) / t**2 * (term1 + term2),)
            return jet
        freqs, amps = self._lacunary_terms()
        # one array per row: += on a row of a 2-d array would copy the row back onto itself
        acc = [np.zeros_like(t) for _ in range(k + 1)]
        for w, c in zip(freqs, amps):
            acc[0] += c * np.cos(w * t)
            if k >= 1:
                acc[1] += c * (-w) * np.sin(w * t)
            if k >= 2:
                acc[2] += c * (-(w**2)) * np.cos(w * t)
        jet = tuple(self.delta * a / np.sum(amps) for a in acc)
        return (self.base + jet[0],) + jet[1:]

    @property
    def t_end(self):
        """End of the time domain: 1 where the phase (log 1/t)^(1+gamma) needs t < 1 (gamma > 0), else inf."""
        return 1.0 if self.profile == "log_power_oscillation" and self.gamma_osc > 0.0 else np.inf

    # -- full value ------------------------------------------------------

    def value(self, t):
        """The time profile a(t) at times t > 0, without the spatial factor."""
        out = self._time_jet(t)[0]
        return out if np.asarray(out).shape else float(out)

    def time_derivative(self, t, order=1):
        if order not in (1, 2):
            raise ValueError("derivative order must be 1 or 2")
        out = self._time_jet(t, order)[order]
        return out if np.asarray(out).shape else float(out)

    @property
    def _spatial_sup(self):
        """sup_x |1 + b(x)|: 1 + amplitude, at x = 0 where every term of b peaks (1 without a spatial factor)."""
        return 1.0 + (self.spatial.amplitude if self.spatial else 0.0)

    @property
    def sup_abs(self):
        """Upper bound for |a| over its domain."""
        return (self.base + self.delta) * self._spatial_sup

    def extended_time_value(self, t):
        """Evaluation on the mollification windows and the integrator stages.

        Below zero the profile has no one-sided limit in general, so the
        value freezes at a fixed tiny positive time (constant continuation,
        which preserves the modulus of continuity).  Above the horizon the
        profile continues by its own formula: freezing there would plant a
        kink whose mollification pollutes second-derivative measurements at
        the horizon by a factor 1/eps.
        """
        return self._time_jet(np.clip(np.asarray(t, dtype=float), _T_FLOOR, self.t_end - _T_END_GAP))[0]

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

def _bump_jet(y):
    """Rows exp(-1/(1-y^2)) and its first two derivatives at y, zero off (-1, 1)."""
    jet = np.zeros((3,) + y.shape)
    inside = np.abs(y) < 1.0
    yi = y[inside]
    q = 1.0 - yi**2
    e = np.exp(-1.0 / q)
    jet[0, inside] = e
    jet[1, inside] = e * (-2.0 * yi) / q**2
    jet[2, inside] = e * ((2.0 * yi / q**2) ** 2 - (2.0 + 6.0 * yi**2) / q**3)
    return jet


@functools.lru_cache(maxsize=1)
def _mollifier_grids():
    """Midpoint nodes y on (-1, 1) and the weight rows w0, w1, w2 of the bump exp(-1/(1-y^2)) and its derivatives.

    w0 sums to one exactly; w1 and w2 are recentred so they annihilate
    constants exactly.
    """
    n = MOLLIFIER_NODES
    y = (np.arange(n) + 0.5) * (2.0 / n) - 1.0
    raw, d1, d2 = _bump_jet(y)
    mass = raw.sum()
    w0 = raw / mass  # discrete measure of total mass one
    w1 = d1 / mass
    w1 = w1 - w1.mean()
    w2 = d2 / mass
    w2 = w2 - w2.mean()
    return y, w0, w1, w2


@functools.lru_cache(maxsize=1)
def _interpolant_rows():
    """Chebyshev nodes x of (-1, 1) and the rows w_k @ l(y), one column per weight row k.

    l(y) is the barycentric Lagrange basis of the nodes at the midpoint
    nodes y, so the rows apply the midpoint rule to the interpolant of a
    window's samples at x.
    """
    n = INTERPOLANT_NODES
    y, *weights = _mollifier_grids()
    theta = (np.arange(n) + 0.5) * (np.pi / n)
    x = np.cos(theta)
    c = (-1.0) ** np.arange(n) * np.sin(theta) / np.subtract.outer(y, x)  # barycentric weights of first-kind nodes
    basis = c / c.sum(axis=1, keepdims=True)
    return x, (np.stack(weights) @ basis).T.copy()


def _row_blocks(n, width):
    """Slices covering range(n) in blocks of about ``BLOCK`` points at ``width`` points a row."""
    step = max(1, BLOCK // width)
    return (slice(i, i + step) for i in range(0, n, step))


@functools.lru_cache(maxsize=256)
def _lacunary_node_sums(spec: CoefficientSpec, eps: float):
    """C_w(om eps) over S_w(om eps): the weights' cosine and sine sums at the nodes times the term amplitudes, a row per term.

    Kept per width: the t grid, the zone grids and the roots of a ``verify``
    run all mollify at the same widths 1/<xi>.
    """
    y, *weights = _mollifier_grids()
    freqs, amps = spec._lacunary_terms()
    node_phase = np.multiply.outer(eps * y, freqs)
    c = spec.delta * amps / np.sum(amps)
    return (np.stack(weights) @ np.hstack((np.cos(node_phase), np.sin(node_phase))) * np.tile(c, 2)).T


def _lacunary_window_sums(spec: CoefficientSpec, eps, t):
    """Rows sum_i w_i a(t - eps y_i) of the holder_rough profile, one per weight row, at the 1-d pairs (eps, t).

    Angle addition splits every lacunary term,
    sum_i w_i cos(om (t - eps y_i)) = cos(om t) C_w(om eps) + sin(om t) S_w(om eps),
    with C_w, S_w the weights' cosine and sine sums at the nodes; the base
    contributes base * sum_i w_i.  This is the midpoint rule term for term.
    A block takes cos(om t), sin(om t) once per distinct time in it.
    """
    freqs = spec._lacunary_terms()[0]
    _, *weights = _mollifier_grids()
    terms = np.empty((len(weights), t.size))
    for b in _row_blocks(t.size, 2 * freqs.size):
        times, at_time = np.unique(t[b], return_inverse=True)
        widths, at_width = np.unique(eps[b], return_inverse=True)
        phase = np.multiply.outer(times, freqs)
        trig = np.hstack((np.cos(phase), np.sin(phase)))[at_time]
        sums = np.stack([_lacunary_node_sums(spec, w) for w in widths])
        terms[:, b] = np.matmul(trig[:, None, :], sums[at_width])[:, 0].T  # a product per pair, as in mollify
    return spec.base * np.sum(weights, axis=1)[:, None] + terms


def _analytic_windows(spec: CoefficientSpec, eps, t):
    """Mask of the 1-d pairs (eps, t) whose log-power window the interpolant may sum.

    The coefficient must be analytic with margin there: eps <= ANALYTIC_RATIO
    t, and eps <= ANALYTIC_RATIO (1 - t) where gamma > 0 puts a branch point
    at s = 1; the window clear of the t = 0 freeze and the t_end clip; and
    eps rate_bound(t - eps) <= ANALYTIC_PHASE delta.  Constant windows
    (delta = 0) stay with the midpoint rule, whose sums of them are exact.
    """
    ok = np.zeros(t.shape, bool)
    if spec.profile != "log_power_oscillation" or spec.delta == 0.0:
        return ok
    clear = (eps <= ANALYTIC_RATIO * t) & (t - eps >= _T_FLOOR) & (t + eps <= spec.t_end - _T_END_GAP)
    if spec.gamma_osc > 0.0:
        clear &= eps <= ANALYTIC_RATIO * (1.0 - t)
    i = np.flatnonzero(clear)
    ok[i] = eps[i] * spec.rate_bound(t[i] - eps[i]) <= ANALYTIC_PHASE * spec.delta
    return ok


def _window_sums(spec: CoefficientSpec, eps, t, nodes, rows):
    """Rows sum_i rows[i, k] a(t - eps nodes_i), one per column of rows, at the 1-d pairs (eps, t).

    The coefficient is evaluated once per window node (constant continuation
    below t = 0), in blocks of about ``BLOCK`` nodes, and reduced by a
    product per window: one product over the block rounds a window by its
    place in it.
    """
    out = np.empty((rows.shape[1], t.size))
    for b in _row_blocks(t.size, nodes.size):
        vals = spec.extended_time_value(t[b, None] - eps[b, None] * nodes)
        out[:, b] = np.matmul(vals[:, None, :], rows)[:, 0].T
    return out


def mollify(spec: CoefficientSpec, eps, t):
    """Jet of (a *_t psi_eps) at times t: rows a_eps, d_t a_eps, d_t^2 a_eps.

    ``eps`` is one width or one per time: it broadcasts against t, e.g. one
    width per frequency row of a (frequency, time) array.  The rows are the
    bump's midpoint rule and its derivative weights over eps and eps^2.  A
    holder_rough time whose window stays above the t = 0 freeze sums the
    window in closed form (``_lacunary_window_sums``); a log-power window on
    which the coefficient is analytic with margin (``_analytic_windows``)
    applies the rule to its Chebyshev interpolant (``_interpolant_rows``);
    every other time evaluates the coefficient once on its window for all
    three rows.  All (eps, t) pairs of the call are evaluated together, in
    blocks of about ``BLOCK`` window or phase points, and each pair's path
    and rows depend on that pair alone, so a pair's jet does not depend on
    the other pairs of the call, bit for bit.  The shape is (3,) + the
    broadcast shape of t and eps.
    """
    eps = np.asarray(eps, dtype=float)
    if not np.all(eps > 0.0):
        raise ValueError("mollification width must be positive")
    if np.any(eps**2 == 0.0):  # the d_t^2 row divides by eps^2
        raise ValueError(f"mollification width {np.min(eps):.4g} is too small: its square underflows to zero")
    t, eps = np.broadcast_arrays(np.asarray(t, dtype=float), eps)
    shape = t.shape
    t, eps = t.ravel(), eps.ravel()
    y, *weights = _mollifier_grids()
    jet = np.empty((3, t.size))
    closed = np.zeros(t.shape, bool)
    if spec.profile == "holder_rough":
        closed = t - eps * y.max() >= _T_FLOOR
        jet[:, closed] = _lacunary_window_sums(spec, eps[closed], t[closed])
    smooth = _analytic_windows(spec, eps, t)
    jet[:, smooth] = _window_sums(spec, eps[smooth], t[smooth], *_interpolant_rows())
    rest = ~(closed | smooth)
    jet[:, rest] = _window_sums(spec, eps[rest], t[rest], y, np.stack(weights, axis=1))
    jet[1] /= eps
    jet[2] /= eps**2
    return jet.reshape((3,) + shape)


# ----------------------------------------------------------------------------
# regularization bounds

@dataclass
class ClauseCheck:
    """One clause of ``verify_reg_bounds``: its largest ratio and where, the ratio per frequency, its growth."""

    max_ratio: float
    argmax_t: float
    argmax_xi: float
    ratio_by_xi: np.ndarray
    top_decade_growth: float
    growth_error: str  # why top_decade_growth is NaN (the fit's gate); empty when it was measured


def _growth_over_top_decade(xi_grid, ratios):
    """Fitted growth factor of the ratios per frequency decade, over the top decade, and "" or why it is NaN.

    NaN (unmeasured), with the fit's message, with fewer than 3 finite ratios there; 1, the fit of 1 at
    each of them, when fewer than 3 of those are positive (a bound met with zero is bounded).
    """
    r = np.asarray(ratios, dtype=float)
    for y in (np.where(r > 0.0, r, np.nan), np.where(np.isfinite(r), 1.0, np.nan)):
        try:
            return float(10.0 ** _top_decade_fit(xi_grid, y, 1, 3)[0]), ""
        except ValueError as exc:  # too few points for this fit
            reason = str(exc)
    return float("nan"), reason


def verify_reg_bounds(
    spec: CoefficientSpec,
    eta: AuxiliaryFunction,
    rho: AuxiliaryFunction,
    zp: ZoneParams,
    xi_grid,
    t_grid,
    t_samples: int = 33,
) -> dict[str, ClauseCheck]:
    """Measure the six regularized-coefficient bounds with eps = 1/<xi>, as {clause: ClauseCheck}.

    Globally in time (on the caller's t_grid):
      (i)   |a_eps|            vs 1
      (ii)  |a_eps - a|        vs <xi>^-1 / eta(1/|xi|)
      (iv)  |d_t a_eps|        vs 1 / eta(1/|xi|)
    In the hyperbolic zone (on a per-frequency grid from t_xi to T):
      (iii) |a_eps - a|        vs <xi>^-1 rho(1/|xi|) (-d/dt 1/rho(eta^-1(t - 1/|xi|)))
      (v)   |d_t a_eps|        vs (-d/dt 1/eta^-1(t - 1/|xi|))^(1/2)
      (vi)  |d_t^2 a_eps|      vs <xi> rho(1/|xi|) (-d/dt 1/rho(eta^-1(t - 1/|xi|)))

    Every clause reports the largest measured/bound ratio (a finite constant
    means "verified"), where it occurred (the earliest frequency attaining
    it, at that frequency's earliest time of its largest ratio), and the
    fitted growth of the ratio across the top frequency decade (growth near
    or below one means the bound is stable; the caller decides the pass
    threshold).  The growth is NaN when fewer than 3 frequencies of the top
    decade were measured, and the clause's ``growth_error`` says so.  All frequencies are measured at once: one
    mollification of the (frequency, t_grid) windows and one of the
    (frequency, zone grid) windows.

    A measured value within the summation error bound of the midpoint rule
    that made it is round-off and counts as zero.

    The caller is responsible for matching the coefficient's modulus with
    eta; a mismatch shows up as top-decade growth.
    """
    validate_zone(eta, zp)
    xi = _check_grid(xi_grid, zp.M)
    tg = np.asarray(t_grid, dtype=float)
    if np.any(tg <= 0.0) or np.any(tg > zp.T):
        raise ValueError("t grid must lie in (0, T]")
    factor = spec._spatial_sup
    # summation error bound n u sum|w_k| sup|a| of the midpoint rule behind jet
    # row k, before its division by eps^k
    _, *weights = _mollifier_grids()
    roundoff = MOLLIFIER_NODES * np.finfo(float).eps * spec.sup_abs * np.array([np.abs(w).sum() for w in weights])
    row_order = np.array([0, 0, 1, 2])

    def measured(ts, eps):
        """|a_eps|, |a_eps - a|, |d_t a_eps|, |d_t^2 a_eps| at times ts, max over x (if any).

        One mollification of every (frequency, time) window feeds all four
        rows.  A value within the round-off bound of the midpoint rule that
        made it counts as zero.
        """
        jet = mollify(spec, eps, t=ts)
        rows = np.abs(np.stack([jet[0], jet[0] - spec._time_jet(ts)[0], jet[1], jet[2]])) * factor
        tol = roundoff[row_order, None, None] / eps ** row_order[:, None, None]
        return np.where(rows > tol, rows, 0.0)

    # one row per frequency, on the shared t grid and, where the hyperbolic
    # zone is alive, on the frequency's own zone grid
    jb = jbracket(xi)[:, None]
    inv_xi = 1.0 / xi[:, None]
    e = np.asarray(eta.value(1.0 / xi))[:, None]
    aeps, diff, d1, _ = measured(tg, 1.0 / jb)
    t_lo = zone_boundary(eta, zp, xi)
    hyp = np.flatnonzero(t_lo < zp.T * (1.0 - 1e-12))
    t_hyp = np.geomspace(np.maximum(t_lo[hyp], 4.0 / jb[hyp, 0]), zp.T, t_samples, axis=-1)
    rho_h = np.asarray(rho.value(1.0 / xi[hyp]))[:, None]
    pair = decay_rate_pair(eta, rho, t_hyp - inv_xi[hyp])
    _, diff_h, d1_h, d2_h = measured(t_hyp, 1.0 / jb[hyp])
    on_tg = (np.arange(xi.size), np.broadcast_to(tg, aeps.shape))
    on_hyp = (hyp, t_hyp)
    checks = {
        "i": (aeps, on_tg),
        "ii": (diff / (1.0 / (jb * e)), on_tg),
        "iii": (diff_h / (rho_h / jb[hyp] * pair), on_hyp),
        "iv": (d1 / (1.0 / e), on_tg),
        "v": (d1_h / np.sqrt(decay_rate(eta, t_hyp - inv_xi[hyp])), on_hyp),
        "vi": (d2_h / (jb[hyp] * rho_h * pair), on_hyp),
    }
    clauses = {}
    for n, (r, (rows, ts)) in checks.items():
        # each frequency's largest ratio at its earliest time; the clause's at
        # the earliest frequency attaining it
        i_best = np.argmax(r, axis=1)[:, None]
        ratio_by_xi, t_by_xi = np.full((2, xi.size), np.nan)
        ratio_by_xi[rows] = np.take_along_axis(r, i_best, 1)[:, 0]
        t_by_xi[rows] = np.take_along_axis(ts, i_best, 1)[:, 0]
        k = int(np.argmax(np.where(np.isnan(ratio_by_xi), -np.inf, ratio_by_xi)))
        peak = (np.nan,) * 3 if np.isnan(ratio_by_xi[k]) else (ratio_by_xi[k], t_by_xi[k], xi[k])
        growth, growth_error = _growth_over_top_decade(xi, ratio_by_xi)
        clauses[n] = ClauseCheck(
            max_ratio=float(peak[0]),
            argmax_t=float(peak[1]),
            argmax_xi=float(peak[2]),
            ratio_by_xi=ratio_by_xi,
            top_decade_growth=growth,
            growth_error=growth_error,
        )
    return clauses
