"""Frequency-wise evolution of the first-order system and loss estimation.

For x-independent coefficients the system decouples over frequencies:

    U'(t) = i A(t, xi) U(t),   U(0) = e_1,

with A the companion symbol built from the raw (unmollified) coefficients.
One classical four-stage (RK4) path serves every order m, with the step size

    h(t) = c_h / (<xi> sup|a| + |a'(t)| / sup|a| + 1),

where the oscillation rate |a'| is the coefficient's scalar envelope
``CoefficientSpec.rate_bound``, evaluated no earlier than one frequency
wavelength 1/<xi> (the raw rate diverges like 1/t at the origin while the
effective, frequency-smoothed coefficient oscillates no faster than <xi>).

The integrator works one sample interval at a time: the scalar step
controller lists the interval's steps, one ``extended_time_value`` call per
coefficient evaluates all stage times t, t+h/2, t+h, and the stacked RK4
step propagators P = I + h/6 (B0 + 2 K2 + 2 K3 + K4) with B = iA,
K2 = Bm (I + h/2 B0), K3 = Bm (I + h/2 K2), K4 = B1 (I + h K3) are applied
in order.

Amplification per frequency is the supremum of |U(t)|/|U(0)| over a fixed
sample grid; the loss-of-derivatives exponent is the least-squares slope of
log(amplification) against log<xi> over the top two decades of the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .companion import HyperbolicOperatorSpec, characteristic_roots
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
    "amplification",
    "estimate_loss",
    "sobolev_energy",
    "closed_form_constant_trace",
]

MIN_STEP = 1e-12


class StiffnessError(Exception):
    """Step controller pushed the step below the representable floor."""


@dataclass(frozen=True)
class EnergyTrace:
    """Euclidean norm history of one frequency component."""

    xi: float
    times: np.ndarray
    norms: np.ndarray
    amplification: float

    @classmethod
    def from_history(cls, xi, times, norms):
        times = np.asarray(times, dtype=float)
        norms = np.asarray(norms, dtype=float)
        amp = float(np.max(norms) / norms[0]) if norms[0] > 0.0 else 0.0
        return cls(xi, times, norms, amp)


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


def evolve_frequency(
    exp: FrequencyExperiment, xi: float, u0=None, step_scale: float = 1.0
) -> EnergyTrace:
    """Integrate the companion system at one frequency of the sweep."""
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
    # last row of A: a_{m-j} xi^(m-j) <xi>^-(m-1-j); B = iA
    scale = np.array([1j * xi ** (m - j) * jb ** (-(m - 1 - j)) for j in range(m)])

    sample_times = np.linspace(0.0, exp.T, exp.n_samples)
    if u0 is None:
        u0 = exp.initial_vector(idx)
    U = np.asarray(u0, dtype=complex).copy()
    norms = np.empty(exp.n_samples)
    norms[0] = float(np.linalg.norm(U))

    base_h = exp.step_factor * step_scale
    inv_jb = 1.0 / jb
    denom_fixed = jb * sup_a + 1.0
    tol = 1e-15 * exp.T
    eye = np.eye(m)

    t = 0.0
    for k, t_next in enumerate(sample_times[1:].tolist(), start=1):
        starts, steps = [], []
        while t < t_next - tol:
            tt = t if t > inv_jb else inv_jb
            r = max((c.rate_bound(tt) for _, c in coeffs), default=0.0)
            h = base_h / (denom_fixed + (r / sup_a if sup_a > 0.0 else 0.0))
            if h < MIN_STEP:
                raise StiffnessError(f"step {h:.3e} below floor at t={t:.6g}, xi={xi:.6g}")
            if t + h > t_next:
                h = t_next - t
            starts.append(t)
            steps.append(h)
            t += h
        n = len(steps)
        t0 = np.array(starts)
        h = np.array(steps)
        stage_t = np.concatenate((t0, t0 + 0.5 * h, t0 + h))
        B = np.zeros((3 * n, m, m), dtype=complex)
        B[:, np.arange(m - 1), np.arange(1, m)] = 1j * jb
        for j, c in coeffs:
            B[:, m - 1, j] = c.extended_time_value(stage_t) * scale[j]
        B0, Bm, B1 = B[:n], B[n : 2 * n], B[2 * n :]
        h = h[:, None, None]
        # RK4 on the linear system collapses to one propagator per step
        K2 = Bm @ (eye + 0.5 * h * B0)
        K3 = Bm @ (eye + 0.5 * h * K2)
        K4 = B1 @ (eye + h * K3)
        for P in eye + (h / 6.0) * (B0 + 2.0 * (K2 + K3) + K4):
            U = P @ U
        norms[k] = float(np.linalg.norm(U))
    return EnergyTrace.from_history(xi, sample_times, norms)


def amplification(trace: EnergyTrace) -> float:
    """Sup over recorded times of |U(t)| / |U(0)|."""
    if trace.norms.size == 0:
        raise ValueError("empty trace")
    if trace.norms[0] == 0.0:
        return 0.0
    return float(np.max(trace.norms) / trace.norms[0])


def estimate_loss(exp: FrequencyExperiment, traces) -> LossEstimate:
    """Growth exponent of amplification over the top two decades of the sweep."""
    xi = np.array([tr.xi for tr in traces], dtype=float)
    amps = np.array([amplification(tr) for tr in traces], dtype=float)
    order = np.argsort(xi)
    xi, amps = xi[order], amps[order]
    if xi[-1] / xi[0] < 100.0 * (1.0 - 1e-9):
        raise ValueError("loss fit needs at least two decades of frequencies")
    mask = _top_window(xi, 2.0)
    if int(mask.sum()) < 8:
        raise ValueError("loss fit needs at least 8 frequencies in the top two decades")
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
    V = m1_symbol(roots, xi).entries
    Vinv = m1_inverse_symbol(roots, xi).entries
    if u0 is None:
        u0 = np.zeros(spec.m, dtype=complex)
        u0[0] = 1.0
    times = np.linspace(0.0, exp.T, exp.n_samples)
    coords = Vinv @ np.asarray(u0, dtype=complex)
    phases = np.exp(1j * np.outer(times, roots.lam))  # (n_t, m)
    U = (V @ (phases * coords[None, :]).T).T
    norms = np.linalg.norm(U, axis=1)
    return EnergyTrace.from_history(xi, times, norms)
