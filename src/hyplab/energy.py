"""Frequency-wise evolution of the first-order system and loss estimation.

For x-independent coefficients the system decouples over frequencies:

    U'(t) = i A(t, xi) U(t),   U(0) = e_1,

with A the companion symbol built from the raw (unmollified) coefficients.
One classical four-stage (RK4) path serves every order m.  Sample interval k,
of length D_k and start s_k, takes n_k = ceil(D_k / h_k) equal steps, where

    h_k = c_h / (<xi> sup|a| + r(t_k) / sup|a| + 1),   t_k = max(s_k, 1/<xi>),

and r is the largest coefficient envelope ``CoefficientSpec.rate_bound`` of
|a'| (the raw rate diverges like 1/t at the origin, while the
frequency-smoothed coefficient oscillates no faster than <xi>).  The envelope
does not increase with t, so no step exceeds the bound at its own start.  One
numpy expression gives every count before integrating.

Each interval splits into rows of at most ``BATCH`` consecutive steps, and
consecutive rows pack into batches of at most ``BATCH`` steps, each row
padded to the batch's longest with steps of length zero.  Per batch, one
``extended_time_value`` call per coefficient evaluates all stage times
t = s_k + h_k i, t + h/2, t + h, and the RK4 step propagators
P = I + h/6 (B0 + 2 K2 + 2 K3 + K4) with B = iA, K2 = Bm (I + h/2 B0),
K3 = Bm (I + h/2 K2), K4 = B1 (I + h K3) are formed at once, stored as
(m, m, row, step) arrays so that every product broadcasts over the short m
axes (a padded step has h = 0, so its propagator is exactly I).  A pairwise
tree, later steps on the left, reduces each row to one propagator; only the
grouping of the products differs from applying the steps one by one.  The
rows are then applied in order, and the norm is recorded at each sample time.

Amplification per frequency is the supremum of |U(t)|/|U(0)| over a fixed
sample grid; the loss-of-derivatives exponent is the least-squares slope of
log(amplification) against log<xi> over the top two decades of the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .companion import HyperbolicOperatorSpec, _row_scale, characteristic_roots
from .diagonalizers import m1_inverse_symbol, m1_symbol
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


class StiffnessError(Exception):
    """The step rule asks for steps RK4 cannot take: below the floor, or unstable."""


@dataclass(frozen=True)
class EnergyTrace:
    """Euclidean norm history of one frequency component.

    ``amplification`` is the sup over recorded times of |U(t)| / |U(0)|
    (zero for a zero initial vector).  ``steps`` is the number of RK4 steps
    taken (zero for a closed-form trace); it stays out of the CSV outputs.
    """

    xi: float
    times: np.ndarray
    norms: np.ndarray
    amplification: float
    steps: int = 0

    @classmethod
    def from_history(cls, xi, times, norms, steps=0):
        times = np.asarray(times, dtype=float)
        norms = np.asarray(norms, dtype=float)
        amp = float(np.max(norms) / norms[0]) if norms[0] > 0.0 else 0.0
        return cls(xi, times, norms, amp, steps)


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


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in a non-finite norm, which raises
def evolve_frequency(
    exp: FrequencyExperiment, xi: float, u0=None, step_scale: float = 1.0
) -> EnergyTrace:
    """Integrate the companion system at one frequency of the sweep.

    Raises ``StiffnessError`` when a step falls below ``MIN_STEP`` or a
    recorded norm is not finite (steps too long for RK4 to stay stable).
    """
    xi = float(xi)
    if not np.any(np.isclose(exp.xi_grid, xi, rtol=1e-12)):
        raise ValueError(f"xi={xi} is not a grid point of this experiment")
    idx = int(np.argmin(np.abs(exp.xi_grid - xi)))
    spec = exp.operator
    m = spec.m
    for probe in (exp.T * 1e-3, exp.T * 0.5, exp.T):
        characteristic_roots(spec, probe, None, xi)  # strict hyperbolicity gate
    jb = float(jbracket(xi))
    sup_a = spec.sup_abs()
    coeffs = [(j, c) for j, c in enumerate(spec.coeffs) if c is not None]
    scale = 1j * _row_scale(xi, m)  # last row of B = iA, per unit coefficient

    sample_times = np.linspace(0.0, exp.T, exp.n_samples)
    # every interval's step bound h_k and equal-step count n_k (module docstring)
    starts = np.maximum(sample_times[:-1], 1.0 / jb)
    rate = np.max([c.rate_bound(starts) for _, c in coeffs], axis=0)
    h_max = exp.step_factor * step_scale / (jb * sup_a + 1.0 + rate / sup_a)
    i = int(np.argmin(h_max))
    if h_max[i] < MIN_STEP:
        raise StiffnessError(f"step {h_max[i]:.3e} below floor at t={sample_times[i]:.6g}, xi={xi:.6g}")
    widths = np.diff(sample_times)
    counts = np.ceil(widths / h_max).astype(int)
    h_k = widths / counts

    # row r: steps row_lo[r] .. row_lo[r] + row_n[r] - 1 of interval row_k[r]
    rows = [(k, lo, min(n - lo, BATCH)) for k, n in enumerate(counts) for lo in range(0, n, BATCH)]
    row_k, row_lo, row_n = np.array(rows).T
    row_ends = row_lo + row_n == counts[row_k]

    if u0 is None:
        u0 = exp.initial_vector(idx)
    U = np.asarray(u0, dtype=complex).copy()
    norms = np.empty(exp.n_samples)
    norms[0] = float(np.linalg.norm(U))
    eye = np.eye(m)[:, :, None, None]
    first = 0
    while first < row_k.size:
        # the next batch: as many rows as fit in BATCH steps, padded to the longest
        last, width = first + 1, row_n[first]
        while last < row_k.size and (last + 1 - first) * max(width, row_n[last]) <= BATCH:
            width = max(width, row_n[last])
            last += 1
        k = row_k[first:last]
        col = np.arange(width)
        # padded steps have h = 0, so their propagators are exactly I
        h = np.where(col < row_n[first:last, None], h_k[k, None], 0.0)
        t0 = sample_times[k, None] + h * (row_lo[first:last, None] + col)
        stage_t = np.stack((t0, t0 + 0.5 * h, t0 + h))
        B = np.zeros((m, m) + stage_t.shape, dtype=complex)
        B[np.arange(m - 1), np.arange(1, m)] = 1j * jb
        for j, c in coeffs:
            B[m - 1, j] = c.extended_time_value(stage_t) * scale[j]
        B0, Bm, B1 = B[:, :, 0], B[:, :, 1], B[:, :, 2]
        # RK4 on the linear system collapses to one propagator per step
        K2 = _mul(Bm, eye + 0.5 * h * B0)
        K3 = _mul(Bm, eye + 0.5 * h * K2)
        K4 = _mul(B1, eye + h * K3)
        P = _tree_product(eye + (h / 6.0) * (B0 + 2.0 * (K2 + K3) + K4))
        for r in range(last - first):
            U = P[:, :, r] @ U
            if row_ends[first + r]:
                norms[k[r] + 1] = float(np.linalg.norm(U))
        first = last
    bad = ~np.isfinite(norms)
    if bad.any():
        raise StiffnessError(f"norm not finite at t={sample_times[np.argmax(bad)]:.6g}, xi={xi:.6g}")
    return EnergyTrace.from_history(xi, sample_times, norms, int(counts.sum()))


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
