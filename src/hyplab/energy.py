"""Frequency-wise evolution of the first-order system and loss estimation.

For x-independent coefficients the system decouples over frequencies:

    U'(t) = i A(t, xi) U(t),   U(0) = e_1,

with A the companion symbol built from the raw (unmollified) coefficients.
One composite path serves every order m: classical four-stage Runge-Kutta
(RK4) near the origin, then the diagonalized, phase-removed frame.  Sample
interval k, of length D_k and start s_k, has the RK4 step bound and the
frame node bound

    h_k   = c_h / (<xi> sup|a| + r(t_k) / sup|a| + 1),   t_k = max(s_k, 1/<xi>),
    tau_k = c_h / (4 kappa(s_k) + r2(s_k) / r(s_k) + 1 / s_k),   tau_0 = 0,

where c_h = step_factor * step_scale, and r and r2 are the largest
coefficient envelopes ``CoefficientSpec.rate_bound`` of |a'| and |a''| (the
raw rate diverges like 1/t at the origin, while the frequency-smoothed
coefficient oscillates no faster than <xi>).  r does not increase with t, so
no RK4 step exceeds its bound at its own start.  kappa bounds the frame's
coupling K below: the sum over the coefficients a_{m-j} of their envelopes
times the largest entry of K per unit rate of a_{m-j}, from the roots at s_k
(for m = 2, 4 kappa = r/a).  tau_k is h_k without its <xi> sup|a| term: it
resolves the coupling, the rate r2/r at which the coupling changes (read as
0 where r = 0) and t, but not the phase rotation at rate ~<xi>.  Interval k
and every later one take the frame once tau_k > R h_k, R = ``FRAME_RATIO``,
with n_k = ceil(D_k / tau_k) equal frame steps, one per node; the others
take ceil(D_k / h_k) equal RK4 steps.  The ratio tau_k / h_k does not depend
on step_scale and vanishes as t -> 0, so the intervals near the origin, and
every interval at low <xi> or of a coefficient rougher than RK4's step, stay
on RK4.  ``EnergyTrace.steps`` counts the RK4 steps and ``nodes`` the frame
steps; every count is fixed before integrating.  R = 80 weighs a node,
about 14 RK4 steps of work, against accuracy: nearer the origin the coupling
is strong against a node's length, and the frame's second-order error
exceeds that of RK4.  An RK4 step longer than 2 sqrt(2) / |A|_inf, RK4's
stability bound on the imaginary axis, raises ``StiffnessError`` before
integrating.

RK4.  Each interval splits into rows of at most ``BATCH`` consecutive steps,
and consecutive rows pack into batches of at most ``BATCH`` steps, each row
padded to the batch's longest with steps of length zero.  Per batch, one
``extended_time_value`` call per coefficient evaluates all stage times
t = s_k + h_k i, t + h/2, t + h, and the RK4 step propagators
P = I + h/6 (B0 + 2 K2 + 2 K3 + K4) with B = iA, K2 = Bm (I + h/2 B0),
K3 = Bm (I + h/2 K2), K4 = B1 (I + h K3) are formed at once, stored as
(m, m, row, step) arrays so that every product broadcasts over the short m
axes (a padded step has h = 0, so its propagator is exactly I).  A pairwise
tree, later steps on the left, reduces each row to one propagator; only the
grouping of the products differs from applying the steps one by one.
Running products of a batch's row propagators give the state at the end of
each row, and one batched norm over the sample times gives the trace.

The frame.  The roots lam_p of the raw symbol at the nodes (one
``companion._roots`` call per frequency; another, on the interval starts
that may take the frame and three probe times, gates strict hyperbolicity
and gives kappa) and their exact rates
(``companion._root_rates`` on ``CoefficientSpec.time_derivative``) turn
V = M1^-1 U into

    V' = i Lam V + K V,   K = -i C1 = -M1^-1 M1',

with C1 the paper's first-step correction (``diagonalizers._c1``), of size
|a'|/a whatever xi.  Only the phases Phi_p = int lam_p rotate at rate ~<xi>,
and each frame step removes them exactly: its propagator is
diag(exp(i dPhi)) exp(Omega1 + Omega2).  dPhi is the Hermite-corrected
trapezoid h (lam_n + lam_n+1)/2 + h^2 (lam_n' - lam_n+1')/12.  Omega1 holds
the Filon moments of K_pq exp(i s_pq), the amplitude K_pq / s_pq' linear in
each pair's phase s_pq = Phi_q - Phi_p (on the diagonal, the trapezoid in
t).  Omega2 is the second Magnus term with K frozen at the step's mean and
the phases linear in t, whose moments are divided differences of exp
(``_commutator_moments``).  Node propagators are formed ``BATCH`` steps at a
time and reduced like the RK4 ones, V enters as M1^-1 U at the first frame
node, and the norm at a frame sample time is |M1 V|.

Amplification per frequency is the supremum of |U(t)|/|U(0)| over a fixed
sample grid; the loss-of-derivatives exponent is the least-squares slope of
log(amplification) against log<xi> over the top two decades of the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .companion import HyperbolicOperatorSpec, RootSet, _roots, _root_rates, _row_scale, characteristic_roots
from .diagonalizers import _c1, _vandermonde, m1_inverse_symbol, m1_symbol
from .moduli import AuxiliaryFunction
from .weights import _top_window, fit_loglog_slope, jbracket
from .zones import ZoneParams, validate_zone

__all__ = [
    "StiffnessError",
    "FrequencyExperiment",
    "EnergyTrace",
    "LossEstimate",
    "evolve_frequency",
    "estimate_loss",
    "sobolev_energy",
    "closed_form_constant_trace",
]

MIN_STEP = 1e-12
# steps per row and padded steps per batch: bounds the temporaries (module docstring)
BATCH = 2048
# R: an interval takes the frame once its node bound exceeds R step bounds (module docstring)
FRAME_RATIO = 80.0
# RK4 stays stable on the imaginary axis up to |h lam| = 2 sqrt(2)
RK4_LIMIT = 2.0 * math.sqrt(2.0)


class StiffnessError(Exception):
    """The step rule asks for steps RK4 cannot take: below the floor, or unstable."""


@dataclass(frozen=True)
class EnergyTrace:
    """Euclidean norm history of one frequency component.

    ``amplification`` is the sup over recorded times of |U(t)| / |U(0)|
    (zero for a zero initial vector).  ``steps`` is the number of RK4 steps
    and ``nodes`` the number of frame steps taken (both zero for a
    closed-form trace); they stay out of the CSV outputs.
    """

    xi: float
    times: np.ndarray
    norms: np.ndarray
    amplification: float
    steps: int = 0
    nodes: int = 0

    @classmethod
    def from_history(cls, xi, times, norms, steps=0, nodes=0):
        times = np.asarray(times, dtype=float)
        norms = np.asarray(norms, dtype=float)
        amp = float(np.max(norms) / norms[0]) if norms[0] > 0.0 else 0.0
        return cls(xi, times, norms, amp, steps, nodes)


@dataclass(frozen=True)
class LossEstimate:
    nu0_hat: float
    stderr: float
    xi_min: float
    xi_max: float


@dataclass(frozen=True)
class FrequencyExperiment:
    """A frequency sweep of the first-order evolution."""

    operator: HyperbolicOperatorSpec
    xi_grid: np.ndarray
    zone: ZoneParams
    eta: AuxiliaryFunction
    rho: Optional[AuxiliaryFunction] = None
    step_factor: float = 0.02
    n_samples: int = 257
    initial: str = "canonical"  # or "random"
    seed: int = 0

    def __post_init__(self):
        xi = np.asarray(self.xi_grid, dtype=float)
        object.__setattr__(self, "xi_grid", xi)
        if not self.operator.x_independent:
            raise ValueError("frequency-wise evolution needs x-independent coefficients")
        if xi.ndim != 1 or xi.size < 2 or np.any(np.diff(xi) <= 0.0):
            raise ValueError("xi grid must be strictly increasing")
        if xi[-1] / xi[0] < 100.0 * (1.0 - 1e-9):
            raise ValueError("xi grid must span at least two decades")
        if np.any(xi < self.zone.M):
            raise ValueError("xi grid must stay above the frequency floor M")
        validate_zone(self.eta, self.zone)
        if not (self.step_factor > 0.0):
            raise ValueError("step factor must be positive")
        if self.n_samples < 256:
            raise ValueError("trace needs at least 256 sample times")
        if self.initial not in ("canonical", "random"):
            raise ValueError("initial must be 'canonical' or 'random'")

    @property
    def T(self):
        return self.zone.T

    def initial_vector(self, xi_index: int) -> np.ndarray:
        m = self.operator.m
        if self.initial == "canonical":
            u0 = np.zeros(m, dtype=complex)
            u0[0] = 1.0
            return u0
        rng = np.random.default_rng([self.seed, xi_index])
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        return v / np.linalg.norm(v)


def _mul(X, Y):
    """Matrix products X Y of two stacks stored as (m, m, ...), step axes last."""
    return (X[:, :, None] * Y[None]).sum(1)


def _tree_product(P):
    """Row products P[:, :, r, n-1] ... P[:, :, r, 0] of an (m, m, rows, n) stack, by a pairwise tree."""
    while P.shape[-1] > 1:
        if P.shape[-1] % 2:
            eye = np.broadcast_to(np.eye(P.shape[0])[:, :, None, None], P.shape[:-1] + (1,))
            P = np.concatenate((P, eye), axis=-1)
        P = _mul(P[..., 1::2], P[..., 0::2])  # later steps on the left
    return P[..., 0]


def _prefix_product(P):
    """Running products P[..., r] ... P[..., 0] of an (m, m, n) stack, later factors on the left.

    A doubling scan: after the pass at offset d, entry r holds the product
    of entries max(0, r - 2d + 1) .. r.
    """
    d = 1
    while d < P.shape[-1]:
        P = np.concatenate((P[..., :d], _mul(P[..., d:], P[..., :-d])), axis=-1)
        d *= 2
    return P


def _expm(X):
    """exp of every matrix of an (m, m, ...) stack: Taylor polynomial, scaled and squared.

    The stack is scaled by 2^-s until its largest 1-norm theta is at most
    1/8, and the Taylor degree K is the least with theta^(K+1)/(K+1)! below
    1e-17; a zero matrix maps to I exactly.
    """
    theta = float(np.max(np.abs(X).sum(axis=0), initial=0.0))
    s = max(0, int(np.ceil(np.log2(8.0 * theta)))) if theta > 0.0 else 0
    X = X / 2.0**s
    theta /= 2.0**s
    degree = 1
    while theta ** (degree + 1) / math.factorial(degree + 1) > 1e-17:
        degree += 1
    eye = np.eye(X.shape[0]).reshape(X.shape[:2] + (1,) * (X.ndim - 2))
    E = eye + X / degree
    for k in range(degree - 1, 0, -1):
        E = eye + _mul(X, E) / k
    for _ in range(s):
        E = _mul(E, E)
    return E


def _phi2(ds):
    """Filon weight int_0^1 (1 - u) exp(i ds u) du of real phase increments ds.

    Closed form (e^x - 1 - x)/x^2 at x = i ds; below |ds| = 1/2, where it
    cancels, the Taylor series sum_k x^k/(k + 2)! to 14 terms.
    """
    x = 1j * ds
    small = np.abs(ds) < 0.5
    safe = np.where(small, 1.0, x)
    series = np.zeros_like(x)
    for k in range(13, -1, -1):
        series = series * x + 1.0 / math.factorial(k + 2)
    return np.where(small, series, (np.exp(safe) - 1.0 - safe) / safe**2)


def _commutator_moments(ds, e, p1):
    """D[..., p, r, q] = J(s_pr, s_rq) - J(s_rq, s_pr) of the pair increments ds[..., p, q] = s_pq.

    J(a, b) = int_0^1 du int_0^u dv exp(i (a u + b v)) is the divided
    difference exp[0, ia, ic] with c = a + b = s_pq, and J(b, a) is
    exp[0, ib, ic].  ``e`` and ``p1`` hold exp(i s) and phi_1(i s) =
    (exp(i s) - 1)/(i s) of the same pairs.  Both differences are taken
    across the widest of the gaps |a|, |b|, |c| between their points; where
    all three are below 1/2, the Taylor series
    sum_k i^k (h_k(a, c) - h_k(b, c))/(k + 2)! (h_k complete homogeneous,
    terms to k = 10, each below 1e-10 of the first) replaces them.
    """
    # axes (..., p, r, q): a = s_pr, b = s_rq, c = s_pq
    a, b, c = np.broadcast_arrays(ds[..., :, :, None], ds[..., None, :, :], ds[..., :, None, :])
    ea, eb = e[..., :, :, None], e[..., None, :, :]
    pa, pb, pc = p1[..., :, :, None], p1[..., None, :, :], p1[..., :, None, :]
    gaps = np.abs(np.stack((a, b, c)))
    wide = np.argmax(gaps, axis=0)
    small = gaps.max(axis=0) < 0.5
    num = np.choose(wide, (ea * pb - 2.0 * pc + pb, 2.0 * pc - pa - eb * pa, ea * pb - pa - eb * pa + pb))
    D = num / np.where(small, 1.0, 1j * np.choose(wide, (a, b, c)))
    x, y, z = a[small], b[small], c[small]
    hx = hy = px = py = np.ones_like(x)
    series = np.zeros((4,) + x.shape)  # the terms by k mod 4, where i^k = 1, i, -1, -i
    for k in range(1, 11):
        px, py = px * x, py * y
        hx, hy = z * hx + px, z * hy + py
        series[k % 4] += (hx - hy) / math.factorial(k + 2)
    D[small] = (series[0] - series[2]) + 1j * (series[1] - series[3])
    return D


def _frame_propagators(pts, lam, lam_dot, xi):
    """Propagators diag(exp(i dPhi)) exp(Omega1 + Omega2) of V = M1^-1 U between the nodes pts.

    ``lam`` and ``lam_dot`` hold the roots and their rates at the nodes
    (module docstring).  The shape is (m, m, n + 1); the last propagator is
    I, for padded steps.  Formed BATCH steps at a time.
    """
    m = lam.shape[-1]
    n = pts.size - 1
    P = np.empty((m, m, n + 1), dtype=complex)
    P[:, :, n] = np.eye(m)
    diag = np.eye(m, dtype=bool)
    for lo in range(0, n, BATCH):
        hi = min(lo + BATCH, n)
        lm, ld = lam[lo : hi + 1], lam_dot[lo : hi + 1]
        coupling = (-1j * _c1(lm, ld, xi)[0]).real  # V' = i Lam V + coupling V
        h = np.diff(pts[lo : hi + 1])[:, None]
        dphi = 0.5 * h * (lm[:-1] + lm[1:]) + h**2 / 12.0 * (ld[:-1] - ld[1:])
        ds = dphi[:, None, :] - dphi[:, :, None]  # increment of s_pq = Phi_q - Phi_p
        gap = lm[:, None, :] - lm[:, :, None]  # s_pq' = lam_q - lam_p
        # coupling per unit s_pq at either end, times the increment of s_pq
        # (on the diagonal s_pp = 0, and the variable is t)
        left = coupling[:-1] * np.where(diag, h[..., None], ds / np.where(diag, 1.0, gap[:-1]))
        right = coupling[1:] * np.where(diag, h[..., None], ds / np.where(diag, 1.0, gap[1:]))
        w0 = _phi2(ds)
        p1 = 1.0 + 1j * ds * w0  # phi_1; the Filon weights are phi_2 and phi_1 - phi_2
        omega = left * w0 + right * (p1 - w0)
        # second Magnus term with the coupling K frozen at the step's mean and the
        # phases linear: 1/2 h^2 sum_r K_pr K_rq (J(s_pr, s_rq) - J(s_rq, s_pr))
        mean = 0.5 * (coupling[:-1] + coupling[1:])
        D = _commutator_moments(ds, np.exp(1j * ds), p1)
        omega = omega + 0.5 * h[..., None] ** 2 * (mean[:, :, :, None] * mean[:, None] * D).sum(2)
        omega = np.ascontiguousarray(omega.transpose(1, 2, 0))  # steps last, for _mul
        P[:, :, lo:hi] = np.exp(1j * dphi.T)[:, None] * _expm(omega)
    return P


def _rk4_propagators(coeffs, scale, jb, t0, h):
    """RK4 step propagators for steps of length h from t0, shape (m, m) + t0.shape."""
    m = scale.size
    stage_t = np.stack((t0, t0 + 0.5 * h, t0 + h))
    B = np.zeros((m, m) + stage_t.shape, dtype=complex)
    B[np.arange(m - 1), np.arange(1, m)] = 1j * jb
    for j, c in coeffs:
        B[m - 1, j] = c.extended_time_value(stage_t) * scale[j]
    B0, Bm, B1 = B[:, :, 0], B[:, :, 1], B[:, :, 2]
    eye = np.eye(m).reshape((m, m) + (1,) * t0.ndim)
    # RK4 on the linear system collapses to one propagator per step
    K2 = _mul(Bm, eye + 0.5 * h * B0)
    K3 = _mul(Bm, eye + 0.5 * h * K2)
    K4 = _mul(B1, eye + h * K3)
    return eye + (h / 6.0) * (B0 + 2.0 * (K2 + K3) + K4)


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in a non-finite norm, which raises
def evolve_frequency(
    exp: FrequencyExperiment, xi: float, u0=None, step_scale: float = 1.0
) -> EnergyTrace:
    """Integrate the companion system at one frequency of the sweep.

    Raises ``StiffnessError`` when an RK4 step falls below ``MIN_STEP``,
    exceeds RK4's stability bound, or a recorded norm is not finite.
    """
    xi = float(xi)
    if not np.any(np.isclose(exp.xi_grid, xi, rtol=1e-12)):
        raise ValueError(f"xi={xi} is not a grid point of this experiment")
    idx = int(np.argmin(np.abs(exp.xi_grid - xi)))
    spec = exp.operator
    m = spec.m
    jb = float(jbracket(xi))
    sup_a = spec.sup_abs()
    coeffs = [(j, c) for j, c in enumerate(spec.coeffs) if c is not None]
    scale = 1j * _row_scale(xi, m)  # last row of B = iA, per unit coefficient

    sample_times = np.linspace(0.0, exp.T, exp.n_samples)
    widths = np.diff(sample_times)
    n_int = widths.size
    c_h = exp.step_factor * step_scale
    # every interval's RK4 step bound h_k and frame node bound tau_k (module docstring)
    starts = np.maximum(sample_times[:-1], 1.0 / jb)
    rate = np.max([c.rate_bound(starts) for _, c in coeffs], axis=0)
    h_max = c_h / (jb * sup_a + 1.0 + rate / sup_a)
    i = int(np.argmin(h_max))
    if h_max[i] < MIN_STEP:
        raise StiffnessError(f"step {h_max[i]:.3e} below floor at t={sample_times[i]:.6g}, xi={xi:.6g}")
    s = sample_times[1:-1]
    r1, r2 = (np.max([c.rate_bound(s, order) for _, c in coeffs], axis=0) for order in (1, 2))
    rest = np.divide(r2, r1, out=np.zeros_like(r2), where=r1 > 0.0) + 1.0 / s
    # tau_k <= c_h / rest: the intervals before k1 cannot take the frame
    near = c_h / rest <= FRAME_RATIO * h_max[1:]
    k1 = int(np.argmin(near)) if not near.all() else s.size
    # roots at the probes and the later interval starts: the strict hyperbolicity gate and kappa
    probes = exp.T * np.array([1e-3, 0.5, 1.0])
    vals = np.zeros((probes.size + s.size - k1, m))
    for j, c in coeffs:
        vals[:, j] = np.concatenate((c.value(probes), c.extended_time_value(s[k1:])))
    lam_s = _roots(vals, xi, spec.delta_sep)[probes.size :]
    tau = np.zeros(n_int)
    if k1 < s.size:
        kappa = np.zeros(s.size - k1)
        for j, c in coeffs:
            unit = np.zeros_like(lam_s)
            unit[:, j] = 1.0  # the coupling per unit rate of a_{m-j}
            per_unit = _c1(lam_s, _root_rates(lam_s, unit, xi), xi)[0]
            kappa += c.rate_bound(s[k1:]) * np.abs(per_unit).max(axis=(1, 2))
        tau[1 + k1 :] = c_h / (4.0 * kappa + rest[k1:])
    frame = tau > FRAME_RATIO * h_max
    k0 = int(np.argmax(frame)) if frame.any() else n_int  # intervals k0.. take the frame
    counts = np.ceil(widths / np.where(np.arange(n_int) < k0, h_max, tau)).astype(int)
    h_k = widths / counts
    lam_bound = jb * max(1.0, sum(c.sup_abs for _, c in coeffs))  # |lam| <= |A|_inf
    if h_k[:k0].max() * lam_bound > RK4_LIMIT:
        raise StiffnessError(f"RK4 step {h_k[:k0].max():.3e} beyond the stability bound at xi={xi:.6g}")

    # frame nodes: n_k equal steps per interval k >= k0, then T
    nodes = counts[k0:]
    off = np.concatenate(([0], np.cumsum(nodes)))  # first frame step of each frame interval
    k_of = np.repeat(np.arange(k0, n_int), nodes)
    step_of = np.arange(off[-1]) - np.repeat(off[:-1], nodes)
    pts = np.append(sample_times[k_of] + h_k[k_of] * step_of, exp.T)
    if k0 < n_int:
        raw = np.zeros((2, pts.size, m))  # a_{m-j} and its rate at the nodes
        for j, c in coeffs:
            raw[:, :, j] = c.extended_time_value(pts), c.time_derivative(pts)
        lam = _roots(raw[0], xi, spec.delta_sep)
        P_frame = _frame_propagators(pts, lam, _root_rates(lam, raw[1], xi), xi)

    # row r: steps row_lo[r] .. row_lo[r] + row_n[r] - 1 of interval row_k[r]
    rows = [(k, lo, min(n - lo, BATCH)) for k, n in enumerate(counts) for lo in range(0, n, BATCH)]
    row_k, row_lo, row_n = np.array(rows).T
    row_ends = row_lo + row_n == counts[row_k]
    enter = int(np.searchsorted(row_k, k0))  # the first frame row

    if u0 is None:
        u0 = exp.initial_vector(idx)
    U = np.asarray(u0, dtype=complex).copy()
    ends = np.empty((exp.n_samples, m), dtype=complex)  # U at the sample times (V on the frame)
    ends[0] = U
    first = 0
    while first < row_k.size:
        # the next batch: as many rows of one path as fit in BATCH steps, padded to the longest
        last, width = first + 1, row_n[first]
        while (
            last < row_k.size
            and last != enter
            and (last + 1 - first) * max(width, row_n[last]) <= BATCH
        ):
            width = max(width, row_n[last])
            last += 1
        k = row_k[first:last]
        col = np.arange(width)
        live = col < row_n[first:last, None]
        step = row_lo[first:last, None] + col
        if first < enter:
            # padded steps have h = 0, so their propagators are exactly I
            h = np.where(live, h_k[k, None], 0.0)
            P = _rk4_propagators(coeffs, scale, jb, sample_times[k, None] + h * step, h)
        else:
            if first == enter:
                U = m1_inverse_symbol(RootSet(lam[0], xi)) @ U  # V = M1^-1 U
            P = P_frame[:, :, np.where(live, off[k - k0, None] + step, off[-1])]
        X = np.einsum("pqr,q->rp", _prefix_product(_tree_product(P)), U)  # the state after each row
        done = row_ends[first:last]
        ends[k[done] + 1] = X[done]
        U = X[-1]
        first = last
    if k0 < n_int:
        ends[k0 + 1 :] = np.einsum("kpq,kq->kp", _vandermonde(lam[off[1:]] / jb), ends[k0 + 1 :])  # U = M1 V
    norms = np.linalg.norm(ends, axis=1)
    bad = ~np.isfinite(norms)
    if bad.any():
        raise StiffnessError(f"norm not finite at t={sample_times[np.argmax(bad)]:.6g}, xi={xi:.6g}")
    return EnergyTrace.from_history(xi, sample_times, norms, int(counts[:k0].sum()), int(counts[k0:].sum()))


def _loss_window(xi):
    """Top two decades of an ascending grid, which must span two and hold 8 points there."""
    if xi[-1] / xi[0] < 100.0 * (1.0 - 1e-9):
        raise ValueError("loss fit needs at least two decades of frequencies")
    mask = _top_window(xi, 2.0)
    if int(mask.sum()) < 8:
        raise ValueError("loss fit needs at least 8 frequencies in the top two decades")
    return mask


def estimate_loss(traces) -> LossEstimate:
    """Growth exponent of amplification over the top two decades of the sweep."""
    xi = np.array([tr.xi for tr in traces], dtype=float)
    amps = np.array([tr.amplification for tr in traces], dtype=float)
    order = np.argsort(xi)
    xi, amps = xi[order], amps[order]
    mask = _loss_window(xi)
    slope, stderr = fit_loglog_slope(jbracket(xi[mask]), amps[mask])
    return LossEstimate(slope, stderr, float(xi[mask][0]), float(xi[-1]))


def sobolev_energy(traces, nu: float, spectrum):
    """Weighted H^nu-style energy across a finitely supported spectrum.

    ``spectrum`` maps each trace's frequency to a nonnegative initial weight
    (dict or aligned array).  Returns (times, E_nu(t)).
    """
    if not traces:
        raise ValueError("no traces")
    times = traces[0].times
    total = np.zeros_like(times)
    for k, tr in enumerate(traces):
        if isinstance(spectrum, dict):
            w = float(spectrum.get(tr.xi, 0.0))
        else:
            w = float(spectrum[k])
        if w < 0.0:
            raise ValueError("spectrum weights must be nonnegative")
        if tr.times.shape != times.shape or np.max(np.abs(tr.times - times)) > 1e-12:
            raise ValueError("traces must share a common sample grid")
        total += w * float(jbracket(tr.xi)) ** (2.0 * nu) * tr.norms**2
    return times, np.sqrt(total)


def closed_form_constant_trace(exp: FrequencyExperiment, xi: float, u0=None) -> EnergyTrace:
    """Plane-wave solution for time-constant coefficients (oracle path).

    U(t) = M1 diag(exp(i lam_k t)) M1^-1 U(0), evaluated on the experiment's
    sample grid.
    """
    spec = exp.operator
    for c in spec.coeffs:
        if c is not None and c.profile != "constant":
            raise ValueError("closed form available for constant coefficients only")
    roots = characteristic_roots(spec, 0.1, None, xi)
    V = m1_symbol(roots)
    Vinv = m1_inverse_symbol(roots)
    if u0 is None:
        u0 = np.zeros(spec.m, dtype=complex)
        u0[0] = 1.0
    times = np.linspace(0.0, exp.T, exp.n_samples)
    coords = Vinv @ np.asarray(u0, dtype=complex)
    phases = np.exp(1j * np.outer(times, roots.lam))  # (n_t, m)
    U = (V @ (phases * coords[None, :]).T).T
    norms = np.linalg.norm(U, axis=1)
    return EnergyTrace.from_history(xi, times, norms)
