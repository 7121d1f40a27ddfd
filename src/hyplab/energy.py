"""Frequency-wise evolution of the first-order system and loss estimation.

For x-independent coefficients the system decouples over frequencies:

    U'(t) = i A(t, xi) U(t),   U(0) = e_1,

with A the companion symbol built from the raw (unmollified) coefficients.
One composite path serves every order m: a fourth-order commutator-free
Magnus step near the origin, then the diagonalized, phase-removed frame.
Sample interval k, of length D_k and start s_k, has the step bound and the
frame node bound

    h_k   = c_h / (<xi> sup|a| + r(t_k) / sup|a| + 1),   t_k = max(s_k, 1/<xi>),
    tau_k = c_h / (4 kappa(s_k) + r2(s_k) / r(s_k) + 1 / s_k),   tau_0 = 0,

where c_h = step_factor, and r and r2 are the largest
coefficient envelopes ``CoefficientSpec.rate_bound`` of |a'| and |a''| (the
raw rate diverges like 1/t at the origin, while the frequency-smoothed
coefficient oscillates no faster than <xi>).  r does not increase with t, so
h_k bounds the step at every time of interval k.  kappa bounds the frame's
coupling K below: the sum over the coefficients a_{m-j} of their envelopes
times the largest entry of K per unit rate of a_{m-j}, from the roots at s_k
(for m = 2, 4 kappa = r/a).  tau_k is h_k without its <xi> sup|a| term: it
resolves the coupling, the rate r2/r at which the coupling changes (read as
0 where r = 0) and t, but not the phase rotation at rate ~<xi>.  Interval k
and every later one take the frame once tau_k > R h_k, R = ``FRAME_RATIO``,
with n_k = ceil(D_k / tau_k) equal frame steps, one per node.  The others
take ceil(D_k / g_k) equal Magnus steps, g_0 = h_0 and, with Theta =
``MAGNUS_STRETCH``, g_k = clip(c_h / (r2/r + 1/s_k), h_k, Theta h_k): the
Magnus step integrates a frozen symbol exactly, so it need resolve only the
coefficient's variation, not the phase rotation.  The ratio tau_k / h_k does
not depend on step_factor and vanishes as t -> 0, so the intervals near the
origin, and every interval at low <xi> or of a rough coefficient, stay on
the Magnus step.  ``EnergyTrace.steps`` counts the Magnus steps and
``nodes`` the frame steps; every count is fixed before integrating.  R = 80
weighs a node against accuracy: at m = 2 a node (its roots, their rates and
its propagator) costs about as much as 3.4 Magnus steps (CPU time of the
frame and of the Magnus steps in ``loss`` on the benchmark's loss sweep,
7,496 nodes and 65,875 steps), but nearer the origin the coupling is strong
against a node's length.  A step that turns
g_k |A|_inf > ``PHASE_LIMIT`` raises ``StiffnessError`` before integrating.

The Magnus step and the sweep.  ``evolve_sweep`` integrates every frequency
of a sweep in one pass, and ``evolve_frequency`` is its call on one grid
index.  The step plan above (``_plan``) is one array expression over
(frequency, interval), and the roots at the probes and interval starts of
every frequency take one ``companion._roots`` call, a frequency per row.
The plan makes every check that needs no propagator: the step floor, strict
hyperbolicity, the phase limit, and ``WORK_BUDGET``, a bound on the pass's
Magnus steps plus frame nodes.  Every interval then reduces to one
propagator (``_integrate``): it splits into rows of at most ``BATCH``
consecutive steps, and the rows of all frequencies, longest first, pack into
batches of at most ``BATCH`` steps, each row padded to the batch's longest
with steps whose propagator is exactly I (h = 0).  The steps of a row are
equal, so each starts where the one before it ends: per Magnus batch, one
``extended_time_value`` call per coefficient evaluates each row's half-step
grid s_k + (g_k / 2)(2 i_0 + j), j = 0..2n, from its first step i_0, which
is 2n + 1 times for n steps.  Each step is the fourth-order commutator-free
Magnus step (Blanes & Moan, Appl. Numer. Math. 56, 2006) on Simpson
moments: with a0, am and a1 the last rows of A at its start, midpoint and
end, and C(a) the companion symbol with last row a, it is

    exp(i h/2 C(a_L)) exp(i h/2 C(a_R)),   a_R = (3 a0 + 4 am - a1) / 6,   a_L = (-a0 + 4 am + 3 a1) / 6.

(Gauss nodes sample the unresolved origin layer at other points; tried,
they moved the traces away from a refined reference.)  For m = 2 a factor is
e^{i tau mu} (cos(tau w) I + i sin(tau w) / w (C - mu I)), mu = c1 / 2 and
w^2 = mu^2 + <xi> c0 (cosh and sinh where w^2 < 0), and the product is
formed in real arithmetic; for m > 2 each factor is ``_expm``.  The
propagators of a batch are (m, m, row, step) arrays, so that every operation
broadcasts over the short m axes.  A pairwise tree, later steps on the left,
reduces each row, and another each interval's rows; only the grouping of the
products differs from applying the steps one by one.  The grouping depends on step positions alone (a
level of odd length carries its last factor up), and I multiplies exactly,
so a frequency's trace does not depend on the frequencies that share its
batches.  M1^-1 is folded into each frequency's first frame interval, one
doubling prefix scan over the rectangular (m, m, frequency, interval) stack
gives the states at the sample times, and one batched norm gives the
traces.  A failed pass is repeated one frequency at a time, so that an
error names the first frequency that fails: the plans first, in grid order,
then the integrations.

The frame.  The roots lam_p of the raw symbol at the nodes and their exact
rates (one ``companion.characteristic_roots`` call for the nodes of every
frequency; the ``_roots`` call of the plan at the interval starts that may
take the frame and three probe times gates strict hyperbolicity and gives
kappa) turn V = M1^-1 U into

    V' = i Lam V + K V,   K = -i C1 = -M1^-1 M1',

with C1 the paper's first-step correction and K real, of size |a'|/a
whatever xi; one ``diagonalizers._c1`` call forms K at the nodes of every
frequency.  Only the phases Phi_p = int lam_p rotate at rate ~<xi>,
and each frame step removes them exactly: its propagator is
diag(exp(i dPhi)) exp(Omega1 + Omega2).  dPhi is the Hermite-corrected
trapezoid h (lam_n + lam_n+1)/2 + h^2 (lam_n' - lam_n+1')/12.  Omega1 holds
the Filon moments of K_pq exp(i s_pq), the amplitude K_pq / s_pq' linear in
each pair's phase s_pq = Phi_q - Phi_p (on the diagonal, the trapezoid in
t): its weights are phi_2 and phi_1 - phi_2 of i ds_pq, ds the step's
increments of s.  ds is real and antisymmetric, so ``_phi2`` is evaluated
on the m(m - 1)/2 pairs p < q alone: phi_2(i ds_qp) is its conjugate, and
phi_2(0) = 1/2.  Omega2 is the second Magnus term with K frozen at the
step's mean and the phases linear in t (``_commutator_moments``), from the
same pair weights:

    Omega2_pq = 1/2 h^2 K_pq (K_pp - K_qq) (2 phi_2 - phi_1)(i ds_pq)   (p != q),
    Omega2_pp = 1/2 h^2 sum_r K_pr K_rp (phi_2(i ds_pr) - phi_2(i ds_rp)),

plus, for m >= 3, the terms of three distinct indices, which take divided
differences of exp.  For m = 2 the exponential is the closed form
``_expm2``, e^mu (C I + S (Omega - mu I)) with mu half the trace,
C = cosh sqrt(delta) and S = sinh sqrt(delta) / sqrt(delta) (Moler & Van
Loan, SIAM Rev. 45, 2003); for m > 2 it is ``_expm``.  One node step
serves every m (``_node_steps``): it forms Omega1 and Omega2 entry by
entry, from per-step arrays of each pair p < q (ds_pq, ds_pq/g at both
ends with g = lam_q - lam_p, and the pair's weights) and of the coupling's
entries, with no (m, m) array of increments or weights.  The node
propagators of the whole sweep are formed ``BATCH`` // 2 steps at a time
and reduced like the Magnus ones, V enters as M1^-1 U at a frequency's
first frame node (``diagonalizers.m1_inverse_symbol``), and the norm at a
frame sample time is |M1 V| (``diagonalizers.m1_symbol``).

Amplification per frequency is the supremum of |U(t)|/|U(0)| over a fixed
sample grid; the loss-of-derivatives exponent is the least-squares slope of
log(amplification) against log<xi> over the top two decades of the sweep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .companion import HyperbolicityViolation, HyperbolicOperatorSpec, NearMultipleRoot
from .companion import _jets, _roots, _root_rates, _row_scale, characteristic_roots
from .diagonalizers import _c1, m1_inverse_symbol, m1_symbol
from .moduli import AuxiliaryFunction
from .weights import _check_grid, _top_decade_fit, jbracket
from .zones import ZoneParams, validate_zone

__all__ = [
    "StiffnessError",
    "FrequencyExperiment",
    "EnergyTrace",
    "LossEstimate",
    "evolve_frequency",
    "evolve_sweep",
    "estimate_loss",
    "sobolev_energy",
    "closed_form_constant_trace",
]

MIN_STEP = 1e-12
# steps per row and padded steps per batch: bounds the temporaries (module docstring)
BATCH = 2048
# R: an interval takes the frame once its node bound exceeds R step bounds (module docstring)
FRAME_RATIO = 80.0
# Theta: past interval 0 a Magnus step is at most Theta step bounds h_k (module docstring)
MAGNUS_STRETCH = 10.0
# the most phase g_k |A|_inf a Magnus step may turn; shipped configs plan 1.0, tests 1.85
PHASE_LIMIT = 4.0
# Magnus steps plus frame nodes one pass may plan: about 20x the 19.5M of energy on configs/holder05.cfg
WORK_BUDGET = 400_000_000


class StiffnessError(Exception):
    """The step rule asks for steps the integrator cannot take: below the floor, past the phase limit or the budget."""


# what a sweep raises on a config it cannot integrate: bad steps, or roots not real and separated
INTEGRATOR_ERRORS = (StiffnessError, HyperbolicityViolation, NearMultipleRoot)


@dataclass(frozen=True)
class EnergyTrace:
    """Euclidean norm history of one frequency component.

    ``amplification`` is the sup over recorded times of |U(t)| / |U(0)|
    (zero for a zero initial vector).  ``steps`` is the number of Magnus
    steps and ``nodes`` the number of frame steps taken (both zero for a
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
    """Fitted loss exponent of a sweep; its fields, in order, are the loss.csv columns after gamma."""

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
        if not self.operator.x_independent:
            raise ValueError("frequency-wise evolution needs x-independent coefficients")
        object.__setattr__(self, "xi_grid", _check_grid(self.xi_grid, self.zone.M, 2))
        validate_zone(self.eta, self.zone)
        t_end = min((c.t_end for c in self.operator.coeffs if c is not None), default=np.inf)
        if self.zone.T >= t_end:
            raise ValueError(f"horizon T={self.zone.T:g} must lie below {t_end:g}, where a coefficient's domain ends")
        if not (self.step_factor > 0.0):
            raise ValueError("step factor must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
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


def _mul(X, Y, out=None):
    """Matrix products X Y of two stacks stored as (m, m, ...), step axes last, summed in inner-index order."""
    out = np.multiply(X[:, 0, None], Y[0], out=out)
    for k in range(1, X.shape[1]):
        out += X[:, k, None] * Y[k]
    return out


def _tree_product(P):
    """Row products P[:, :, r, n-1] ... P[:, :, r, 0] of an (m, m, rows, n) stack, by a pairwise tree.

    A level of odd length carries its last factor to the next level unpaired.
    """
    while P.shape[-1] > 1:
        n = P.shape[-1]
        up = np.empty(P.shape[:-1] + ((n + 1) // 2,), dtype=P.dtype)
        _mul(P[..., 1::2], P[..., 0 : n - 1 : 2], out=up[..., : n // 2])  # later steps on the left
        if n % 2:
            up[..., -1] = P[..., -1]
        P = up
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

    Each matrix is scaled by 2^-s, the least s that brings its 1-norm to at
    most 1/8, and its Taylor polynomial of degree 10 (remainder below
    (1/8)^11/11! < 1e-17) is squared s times, so that every result depends
    on its own matrix alone; a zero matrix maps to I exactly.
    """
    theta = np.abs(X).sum(axis=0).max(axis=0)
    s = np.ceil(np.log2(np.fmin(np.fmax(8.0 * theta, 1.0), 2.0**60))).astype(int)  # NaN: s = 0
    X = X / 2.0**s
    eye = np.eye(X.shape[0]).reshape(X.shape[:2] + (1,) * (X.ndim - 2))
    E = eye + X / 10.0
    for k in range(9, 0, -1):
        E = eye + _mul(X, E) / k
    for r in range(int(s.max(initial=0))):
        more = s > r
        E[:, :, more] = _mul(E[:, :, more], E[:, :, more])
    return E


def _expm2(X):
    """exp of every matrix of a (2, 2, ...) stack in closed form (Cayley-Hamilton).

    With mu = tr X / 2 and N = X - mu I, N^2 = delta I for
    delta = ((X_00 - X_11) / 2)^2 + X_01 X_10, so

        exp(X) = e^mu (C I + S N),   C = cosh sqrt(delta),   S = sinh sqrt(delta) / sqrt(delta).

    Below |delta| = 1, C and S are their even series in delta to the term
    delta^9 (remainder below 1/20! < 1e-18), so that a zero matrix maps to I
    exactly; elsewhere ``np.sqrt``, ``np.cosh`` and ``np.sinh``.  Each result
    depends on its own matrix alone.
    """
    mu = 0.5 * (X[0, 0] + X[1, 1])
    d = 0.5 * (X[0, 0] - X[1, 1])
    delta = d * d + X[0, 1] * X[1, 0]
    wide = np.abs(delta) >= 1.0
    z = np.where(wide, 0.0, delta)
    C = z / math.factorial(18) + 1.0 / math.factorial(16)
    S = z / math.factorial(19) + 1.0 / math.factorial(17)
    for k in range(7, -1, -1):
        C = C * z + 1.0 / math.factorial(2 * k)
        S = S * z + 1.0 / math.factorial(2 * k + 1)
    if wide.any():
        root = np.sqrt(delta[wide])
        C[wide], S[wide] = np.cosh(root), np.sinh(root) / root
    e = np.exp(mu)
    C *= e
    S *= e
    E = np.empty_like(C, shape=(2, 2) + C.shape)
    E[0, 0] = C + S * d
    E[1, 1] = C - S * d
    E[0, 1] = S * X[0, 1]
    E[1, 0] = S * X[1, 0]
    return E


def _phi2(ds):
    """Filon weight int_0^1 (1 - u) exp(i ds u) du of real phase increments ds.

    Closed form (e^x - 1 - x)/x^2 at x = i ds; below |ds| = 1/2, where it
    cancels, the Taylor series sum_k x^k/(k + 2)! to 14 terms.  Each is
    evaluated only where it is used.
    """
    x = 1j * ds
    small = np.abs(ds) < 0.5
    out = np.empty_like(x)
    z = x[small]
    series = np.zeros_like(z)
    for k in range(13, -1, -1):
        series = series * z + 1.0 / math.factorial(k + 2)
    out[small] = series
    z = x[~small]
    out[~small] = (np.exp(z) - 1.0 - z) / z**2
    return out


def _commutator_moments(M, ds, w, p1):
    """sum_r M_pr M_rq (J(s_pr, s_rq) - J(s_rq, s_pr)), (m, m, steps), for real M[p, q] and the pair increments s_pq.

    J(a, b) = int_0^1 du int_0^u dv exp(i (a u + b v)).  Row k of ``ds``,
    ``w`` and ``p1`` holds s_pq, phi_2(i s_pq) and phi_1(i s_pq) =
    (exp(i s_pq) - 1)/(i s_pq) of the k-th pair p < q in lexicographic order;
    s is real and antisymmetric, so s_qp = -s_pq and phi_2 and phi_1 of
    i s_qp are the conjugates.  A term with a repeated index needs no more:
    J(0, s) = phi_2(i s), J(s, 0) = phi_1(i s) - phi_2(i s) and
    J(s, -s) = phi_2(i s), so the terms r = p and r = q of an entry p != q
    add up to

        M_pq (M_pp - M_qq) (2 phi_2(i s_pq) - phi_1(i s_pq)),

    and a diagonal entry is 2i sum_{r != p} M_pr M_rp Im phi_2(i s_pr).  Only
    the terms r outside {p, q} of an entry p != q (m >= 3) take divided
    differences (``_divided_moments``).  Each entry sums its terms in
    ascending r.
    """
    m, n = M.shape[0], M.shape[-1]
    out = np.empty((m, m, n), dtype=complex)
    u = {}  # M_pr M_rp Im phi_2(i s_pr)
    for k, (p, q) in enumerate(itertools.combinations(range(m), 2)):
        diff = M[p, p] - M[q, q]
        twice = 2.0 * w[k] - p1[k]
        out[p, q] = (M[p, q] * diff) * twice
        out[q, p] = (M[q, p] * -diff) * twice.conj()
        u[p, q] = (M[p, q] * M[q, p]) * w[k].imag
        u[q, p] = -u[p, q]
    for p in range(m):
        out[p, p] = 2j * sum(u[p, r] for r in range(m) if r != p)
    triples = list(itertools.permutations(range(m), 3))  # m - 2 consecutive values of r per entry (p, q)
    if triples:
        s, f = np.zeros((m, m, n)), np.ones((m, m, n), dtype=complex)  # s_pq and phi_1(i s_pq) of every pair
        ip, iq = np.triu_indices(m, 1)
        s[ip, iq], s[iq, ip] = ds, -ds
        f[ip, iq], f[iq, ip] = p1, p1.conj()
        p, q, r = np.array(triples).T
        D = _divided_moments(s[p, r], s[r, q], s[p, q], f[p, r], f[r, q], f[p, q])
        terms = ((M[p, r] * M[r, q]) * D).reshape(m * (m - 1), m - 2, n)
        out[p[:: m - 2], q[:: m - 2]] += sum(terms[:, k] for k in range(m - 2))
    return out


def _divided_moments(a, b, c, pa, pb, pc):
    """J(a, b) - J(b, a) for c = a + b, from phi_1 of i a, i b and i c (``_commutator_moments``).

    J(a, b) is the divided difference exp[0, ia, ic], and J(b, a) is
    exp[0, ib, ic].  Both differences are taken across the widest of the
    gaps |a|, |b|, |c| between their points; where all three are below 1/2,
    the Taylor series sum_k i^k (h_k(a, c) - h_k(b, c))/(k + 2)! (h_k
    complete homogeneous, terms to k = 10, each below 1e-10 of the first)
    replaces them.
    """
    ea, eb = np.exp(1j * a), np.exp(1j * b)
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


def _frame_propagators(pts, lam, lam_dot, K, start):
    """Propagators diag(exp(i dPhi)) exp(Omega1 + Omega2) of V = M1^-1 U, from node start[j] to the next.

    ``lam``, ``lam_dot`` and ``K`` hold the roots, their rates and the
    coupling at the nodes pts (module docstring).  The shape is (m, m, n + 1)
    for n steps; the last propagator is I, for padded steps.  Formed by
    ``_node_steps``, BATCH // 2 steps at a time, which bounds the temporaries.
    """
    m = lam.shape[-1]
    n = start.size
    P = np.empty((m, m, n + 1), dtype=complex)
    P[:, :, n] = np.eye(m)
    chunk = max(1, BATCH // 2)
    for lo in range(0, n, chunk):
        a = start[lo : lo + chunk]
        nodes = slice(a[0], a[-1] + 2)  # the nodes these steps touch
        i, j = a - a[0], a + 1 - a[0]  # the two nodes of each step, within the slice
        h = pts[a + 1] - pts[a]
        P[:, :, lo : lo + a.size] = _node_steps(lam[nodes], lam_dot[nodes], K[nodes], i, j, h)
    return P


def _node_steps(lm, ld, K, i, j, h):
    """Frame propagators, (m, m, steps), of the steps of lengths h from the nodes i to the nodes j of the node roots lm, rates ld and coupling K.

    Entry by entry (module docstring): a pair p < q takes its increment
    d = dPhi_q - dPhi_p, d/g at either end (g = lam_q - lam_p; below the
    diagonal (-d)/(-g) = d/g exactly), and phi_2(i d) and phi_1(i d),
    conjugated below the diagonal; a diagonal entry takes the trapezoid in
    t.  Omega2 is 1/2 h^2 times ``_commutator_moments`` of the step's mean
    coupling.
    """
    m = lm.shape[-1]
    li, lj, di, dj = (np.take(x, e, axis=0) for x in (lm, ld) for e in (i, j))  # np.take: faster than x[e]
    Ki, Kj = (np.take(K, e, axis=0).transpose(1, 2, 0) for e in (i, j))  # (m, m, steps)
    hc = h[:, None]
    dphi = (0.5 * hc * (li + lj) + hc**2 / 12.0 * (di - dj)).T
    pairs = list(itertools.combinations(range(m), 2))  # p < q, in lexicographic order
    ds = np.stack([dphi[q] - dphi[p] for p, q in pairs])
    w = _phi2(ds)
    p1 = 1.0 + 1j * ds * w
    X = 0.5 * h**2 * _commutator_moments(0.5 * (Ki + Kj), ds, w, p1)
    for k, (p, q) in enumerate(pairs):
        ui, uj = ds[k] / (li[:, q] - li[:, p]), ds[k] / (lj[:, q] - lj[:, p])  # ds per unit s' at either end
        rest = p1[k] - w[k]
        X[p, q] += (Ki[p, q] * ui) * w[k] + (Kj[p, q] * uj) * rest
        X[q, p] += (Ki[q, p] * ui) * w[k].conj() + (Kj[q, p] * uj) * rest.conj()
    for p in range(m):
        X.real[p, p] += (Ki[p, p] * h) * 0.5 + (Kj[p, p] * h) * 0.5
    return np.exp(1j * dphi)[:, None] * (_expm2 if m == 2 else _expm)(X)


def _magnus_propagators(coeffs, scale, jb, t, h):
    """CF4 Magnus step propagators from t[:, 2i] to t[:, 2i + 2], of lengths h[:, i], shape (m, m) + h.shape.

    ``t`` holds each row's half-step grid of 2n + 1 times, so that step i
    takes the coefficients at columns 2i, 2i + 1 and 2i + 2.  The m rows of
    ``scale`` (the last row of A per unit coefficient) and ``jb`` (<xi>)
    broadcast against the rows.  For m = 2 the result is formed in real
    arithmetic.
    """
    m = scale.shape[0]
    tau = 0.5 * h
    last = {}  # per coefficient, its last-row entries of the later and the earlier factor (module docstring)
    for j, c in coeffs:
        a = c.extended_time_value(t) * scale[j]
        a0, am, a1 = a[:, 0:-1:2], a[:, 1::2], a[:, 2::2]
        mean, slope = (a0 + 4.0 * am + a1) / 6.0, (a1 - a0) / 3.0
        last[j] = np.stack((mean + slope, mean - slope))
    if m > 2:  # the dense symbols of both factors, then their exponentials
        C = np.zeros((m, m, 2) + h.shape)
        C[np.arange(m - 1), np.arange(1, m)] = jb
        for j, a in last.items():
            C[m - 1, j] = a
        E = _expm(1j * tau * C)
        return _mul(E[:, :, 0], E[:, :, 1])
    # exp(i tau C) = e^{i tau mu} (c I + i s N) with N = C - mu I = [[-mu, jb], [c0, mu]],
    # N^2 = w^2 I: mu = c1 / 2, w^2 = mu^2 + jb c0, c = cos(tau w), s = sin(tau w) / w
    c0 = last[0] if 0 in last else np.zeros((2,) + h.shape)
    mu = 0.5 * last[1] if 1 in last else 0.0
    jc = jb * c0
    w2 = mu * mu + jc
    w = np.sqrt(np.abs(w2))
    x = tau * w
    c, s = np.cos(x), np.sin(x)
    neg = w2 < 0.0
    if neg.any():
        c[neg], s[neg] = np.cosh(x[neg]), np.sinh(x[neg])
    np.divide(s, w, out=s, where=w > 0.0)
    np.copyto(s, tau, where=w == 0.0)  # so that tau = 0 gives c = 1 and s = 0 exactly
    # (cL I + i sL NL)(cR I + i sR NR) = cL cR I - sL sR NL NR + i (cL sR NR + sL cR NL),
    # L = 0 the later factor, R = 1 the earlier
    P = np.empty((2, 2) + h.shape, dtype=complex)
    R, S = P.real, P.imag
    cc, ss, cs, sc = c[0] * c[1], s[0] * s[1], c[0] * s[1], s[0] * c[1]
    R[0, 0] = cc - ss * jc[1]
    R[1, 1] = cc - ss * jc[0]
    S[0, 1] = jb * (cs + sc)
    S[1, 0] = cs * c0[1] + sc * c0[0]
    if 1 not in last:
        R[0, 1] = R[1, 0] = S[0, 0] = S[1, 1] = 0.0
        return P
    # the terms in mu, and the phase e^{i tau (mu_L + mu_R)}
    mm = ss * mu[0] * mu[1]
    R[0, 0] -= mm
    R[1, 1] -= mm
    R[0, 1] = ss * jb * (mu[0] - mu[1])
    R[1, 0] = ss * (mu[1] * c0[0] - mu[0] * c0[1])
    S[1, 1] = cs * mu[1] + sc * mu[0]
    S[0, 0] = -S[1, 1]
    P *= np.exp(1j * tau * (mu[0] + mu[1]))
    return P


def _interval_propagators(m, counts, step_propagators):
    """One propagator per interval of counts[i] steps, shape (m, m, counts.size).

    Each interval splits into rows of at most BATCH consecutive steps, and
    the rows, longest first, pack into batches of at most BATCH padded
    steps.  ``step_propagators(i, step, live)`` returns the (m, m, row, step)
    propagators of a batch, row r holding steps step[r] of interval i[r],
    and exactly I where ``live`` is False; they need to hold only until the
    next call.  A pairwise tree reduces each row, and another each
    interval's rows, later factors on the left.
    """
    rows = -(-counts // BATCH)
    first = np.cumsum(rows) - rows  # each interval's first row
    row_i = np.repeat(np.arange(counts.size), rows)
    row_lo = (np.arange(row_i.size) - first[row_i]) * BATCH
    row_n = np.minimum(counts[row_i] - row_lo, BATCH)
    order = np.argsort(-row_n, kind="stable")
    P = np.empty((m, m, row_i.size + 1), dtype=complex)
    P[:, :, -1] = np.eye(m)  # pads the intervals with fewer rows
    lo = 0
    while lo < order.size:
        batch = order[lo : lo + BATCH // row_n[order[lo]]]
        col = np.arange(row_n[batch[0]])
        step = row_lo[batch, None] + col
        P[:, :, batch] = _tree_product(step_propagators(row_i[batch], step, col < row_n[batch, None]))
        lo += batch.size
    k = np.arange(rows.max(initial=1))
    return _tree_product(P[:, :, np.where(k < rows[:, None], first[:, None] + k, -1)])


@np.errstate(over="ignore", invalid="ignore")  # huge frequencies overflow to steps below the floor
def _plan(exp: FrequencyExperiment, idx):
    """Step lengths, counts and Magnus mask, each (frequency, interval), at the grid indices idx (module docstring).

    Every check that needs no propagator raises here: the step floor, strict
    hyperbolicity at the probes and candidate frame starts, the phase limit and
    ``WORK_BUDGET``.
    """
    spec = exp.operator
    xi = exp.xi_grid[idx]
    jb = jbracket(xi)
    sup_a = spec.sup_abs
    coeffs = [(j, c) for j, c in enumerate(spec.coeffs) if c is not None]

    sample_times = np.linspace(0.0, exp.T, exp.n_samples)
    widths = np.diff(sample_times)
    n_int = widths.size
    c_h = exp.step_factor
    # the step plan, one entry per (frequency, interval): the step bound
    # h_k and the frame node bound tau_k (module docstring)
    starts = np.maximum(sample_times[:-1], 1.0 / jb[:, None])
    rate = np.max([c.rate_bound(starts) for _, c in coeffs], axis=0)
    h_max = c_h / (jb[:, None] * sup_a + 1.0 + rate / sup_a)
    low = h_max.min(axis=1) < MIN_STEP
    if low.any():
        f = int(np.argmax(low))
        i = int(np.argmin(h_max[f]))
        raise StiffnessError(f"step {h_max[f, i]:.3e} below floor at t={sample_times[i]:.6g}, xi={xi[f]:.6g}")
    s = sample_times[1:-1]
    r1, r2 = (np.max([c.rate_bound(s, order) for _, c in coeffs], axis=0) for order in (1, 2))
    rest = np.divide(r2, r1, out=np.zeros_like(r2), where=r1 > 0.0) + 1.0 / s
    # tau_k <= c_h / rest: the intervals before k1 cannot take the frame
    near = c_h / rest <= FRAME_RATIO * h_max[:, 1:]
    k1 = np.where(near.all(axis=1), s.size, np.argmin(near, axis=1))
    # roots at the probes and at the interval starts from k1 on, of every
    # frequency in one call: the strict hyperbolicity gate and kappa
    probes = exp.T * np.array([1e-3, 0.5, 1.0])
    # the raw values at those times, all in (0, T] (a scalar xi adds no axis)
    vals = _jets(spec, np.concatenate((probes, s)), 1.0, 0)[0]
    pos = np.arange(-probes.size, s.size)  # the probes, then the interval starts
    f_of, row = np.nonzero((pos < 0) | (pos >= k1[:, None]))
    lam_s = _roots(vals[row], xi[f_of], spec.delta_sep)
    cand = pos[row] >= 0
    f_c, k_c, lam_s = f_of[cand], pos[row[cand]], lam_s[cand]
    kappa = np.zeros(k_c.size)
    for j, c in coeffs:
        unit = np.zeros_like(lam_s)
        unit[:, j] = 1.0  # the coupling per unit rate of a_{m-j}
        per_unit = _c1(lam_s, _root_rates(lam_s, unit, xi[f_c]), xi[f_c])
        kappa += c.rate_bound(s[k_c]) * np.abs(per_unit).max(axis=(1, 2))
    tau = np.zeros((xi.size, n_int))
    tau[f_c, 1 + k_c] = c_h / (4.0 * kappa + rest[k_c])
    frame = tau > FRAME_RATIO * h_max
    k0 = np.where(frame.any(axis=1), np.argmax(frame, axis=1), n_int)  # intervals k0.. take the frame
    magnus = np.arange(n_int) < k0[:, None]
    # the Magnus step bound g_k: past interval 0 the step stretches to the
    # variation term c_h / rest, between one and MAGNUS_STRETCH step bounds
    h_max[:, 1:] = np.clip(c_h / rest, h_max[:, 1:], MAGNUS_STRETCH * h_max[:, 1:])
    counts = np.ceil(widths / np.where(magnus, h_max, tau)).astype(int)
    h_k = widths / counts
    lam_bound = jb * max(1.0, sum(c.sup_abs for _, c in coeffs))  # |lam| <= |A|_inf
    turn = np.max(np.where(magnus, h_k, 0.0), axis=1) * lam_bound
    if (turn > PHASE_LIMIT).any():
        f = int(np.argmax(turn > PHASE_LIMIT))
        raise StiffnessError(f"Magnus step turns {turn[f]:.3g} rad, past the limit {PHASE_LIMIT:g}, at xi={xi[f]:.6g}")
    planned = int(counts.sum())
    if planned > WORK_BUDGET:
        budget = f"the budget of {WORK_BUDGET} per pass (xi up to {xi.max():.6g})"
        raise StiffnessError(f"{planned} planned Magnus steps and frame nodes exceed {budget}")
    return h_k, counts, magnus


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in a non-finite norm, which raises
def _integrate(exp: FrequencyExperiment, idx, U0, h_k, counts, magnus):
    """Traces at the grid indices idx from the initial vectors U0[f], in one pass along ``_plan``'s plan."""
    spec = exp.operator
    m = spec.m
    xi = exp.xi_grid[idx]
    jb = jbracket(xi)
    coeffs = [(j, c) for j, c in enumerate(spec.coeffs) if c is not None]
    sample_times = np.linspace(0.0, exp.T, exp.n_samples)

    stack = np.empty((m, m) + magnus.shape, dtype=complex)  # the interval propagators
    rf, rk = np.nonzero(magnus)
    scale = _row_scale(xi, m).T  # last row of A per unit coefficient, per frequency

    def magnus_steps(i, step, live):
        f, k = rf[i, None], rk[i, None]
        h = h_k[f, k]
        # each row's half-step grid: 2n + 1 times from its first step on
        t = sample_times[k] + 0.5 * h * (2 * step[:, :1] + np.arange(2 * step.shape[1] + 1))
        # a padded step has h = 0: its propagator is exactly I
        return _magnus_propagators(coeffs, scale[:, f], jb[f], t, np.where(live, h, 0.0))

    stack[:, :, rf, rk] = _interval_propagators(m, counts[rf, rk], magnus_steps)

    # frame nodes: n_k equal steps per frame interval, then T after a frequency's last
    ff, fk = np.nonzero(~magnus)
    n_f = counts[ff, fk]
    closes = np.diff(ff, append=-1) != 0  # the last frame interval of its frequency
    per = n_f + closes
    node0 = np.cumsum(per) - per  # each frame interval's first node
    iv = np.repeat(np.arange(ff.size), per)
    step_of = np.arange(per.sum()) - node0[iv]
    inner = step_of < n_f[iv]
    pts = np.where(inner, sample_times[fk[iv]] + h_k[ff[iv], fk[iv]] * step_of, exp.T)
    xi_n = xi[ff[iv]]
    lam, lam_dot = characteristic_roots(spec, pts, xi_n)  # the nodes all lie in (0, T]
    coupling = _c1(lam, lam_dot, xi_n)
    P_frame = _frame_propagators(pts, lam, lam_dot, coupling, np.flatnonzero(inner))
    off = np.cumsum(n_f) - n_f  # each frame interval's first step

    def frame_steps(i, step, live):
        return P_frame[:, :, np.where(live, off[i, None] + step, -1)]

    stack[:, :, ff, fk] = _interval_propagators(m, n_f, frame_steps)
    if ff.size:  # V = M1^-1 U enters with each frequency's first frame interval
        enter = np.diff(ff, prepend=-1) != 0
        fe, ke = ff[enter], fk[enter]
        M1_inv = m1_inverse_symbol(lam[node0[enter]], xi[fe])
        stack[:, :, fe, ke] = _mul(stack[:, :, fe, ke], np.moveaxis(M1_inv, 0, -1))

    ends = np.empty((xi.size, exp.n_samples, m), dtype=complex)  # U at the sample times (V on the frame)
    ends[:, 0] = U0
    ends[:, 1:] = np.moveaxis((_prefix_product(stack) * U0.T[None, :, :, None]).sum(1), 0, -1)
    V = ends[ff, fk + 1]  # U = M1 V, M1 at the node that closes each frame interval
    ends[ff, fk + 1] = (m1_symbol(lam[node0 + n_f], xi[ff]) * V[:, None, :]).sum(-1)
    norms = np.linalg.norm(ends, axis=-1)
    bad = ~np.isfinite(norms)
    if bad.any():
        f = int(np.argmax(bad.any(axis=1)))
        raise StiffnessError(f"norm not finite at t={sample_times[np.argmax(bad[f])]:.6g}, xi={xi[f]:.6g}")
    steps = (counts * magnus).sum(axis=1)
    return [
        EnergyTrace.from_history(float(x), sample_times, n, int(k), int(c.sum() - k))
        for x, n, k, c in zip(xi, norms, steps, counts)
    ]


def evolve_sweep(exp: FrequencyExperiment, indices=None) -> list[EnergyTrace]:
    """Integrate the companion system at every grid frequency, or at the grid indices given, in one pass.

    Each frequency starts from ``exp.initial_vector``.  Raises
    ``StiffnessError`` when a step bound falls below ``MIN_STEP``, a Magnus
    step turns more phase than ``PHASE_LIMIT``, the pass plans more than
    ``WORK_BUDGET`` steps, or a recorded norm is not finite.  A failed pass
    is repeated one frequency at a time, so that an error names the first
    frequency whose plan fails or, when the plans pass, the first whose
    integration fails; a failed pass plan is repeated without integrating,
    so that a pass over ``WORK_BUDGET`` raises before any propagator is formed.
    """
    idx = np.arange(exp.xi_grid.size) if indices is None else np.asarray(indices, dtype=int).reshape(-1)
    U0 = np.array([exp.initial_vector(int(i)) for i in idx], dtype=complex).reshape(idx.size, exp.operator.m)
    plan = None
    try:
        plan = _plan(exp, idx)
        return _integrate(exp, idx, U0, *plan)
    except INTEGRATOR_ERRORS:
        if idx.size > 1:
            plans = [_plan(exp, idx[n : n + 1]) for n in range(idx.size)]
            if plan is not None:
                for n, one in enumerate(plans):
                    _integrate(exp, idx[n : n + 1], U0[n : n + 1], *one)
        raise


def evolve_frequency(exp: FrequencyExperiment, xi: float) -> EnergyTrace:
    """Integrate the companion system at one grid frequency: ``evolve_sweep`` on its index."""
    xi = float(xi)
    if not np.any(np.isclose(exp.xi_grid, xi, rtol=1e-12)):
        raise ValueError(f"xi={xi} is not a grid point of this experiment")
    idx = int(np.argmin(np.abs(exp.xi_grid - xi)))
    return evolve_sweep(exp, [idx])[0]


def estimate_loss(traces) -> LossEstimate:
    """Growth exponent of amplification over the top two decades of a sweep that spans two, with 8 points there."""
    xi = np.array([tr.xi for tr in traces], dtype=float)
    amps = np.array([tr.amplification for tr in traces], dtype=float)
    order = np.argsort(xi)
    xi = _check_grid(xi[order], 0.0, 2)  # the floor M is the experiment's to check
    slope, stderr, xi_min = _top_decade_fit(xi, amps[order], 2, 8)
    return LossEstimate(slope, stderr, xi_min, float(xi[-1]))


def sobolev_energy(traces, nu: float, spectrum):
    """Weighted H^nu-style energy across a finitely supported spectrum.

    ``spectrum`` holds one nonnegative initial weight per trace, in the
    traces' order.  Returns (times, E_nu(t)).
    """
    if not traces:
        raise ValueError("no traces")
    weights = np.asarray(spectrum, dtype=float)
    if weights.shape != (len(traces),):
        raise ValueError(f"spectrum of shape {weights.shape} for {len(traces)} traces: need one weight per trace")
    if not np.all(weights >= 0.0):  # NaN included
        raise ValueError("spectrum weights must be nonnegative")
    times = traces[0].times
    total = np.zeros_like(times)
    for w, tr in zip(weights, traces):
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
    if any(c is not None and c._term is not None for c in spec.coeffs):
        raise ValueError("closed form available for constant coefficients only")
    lam = characteristic_roots(spec, 0.1, xi)[0][0]
    V = m1_symbol(lam, xi)
    Vinv = m1_inverse_symbol(lam, xi)
    if u0 is None:
        u0 = np.zeros(spec.m, dtype=complex)
        u0[0] = 1.0
    times = np.linspace(0.0, exp.T, exp.n_samples)
    coords = Vinv @ np.asarray(u0, dtype=complex)
    phases = np.exp(1j * np.outer(times, lam))  # (n_t, m)
    U = (V @ (phases * coords[None, :]).T).T
    norms = np.linalg.norm(U, axis=1)
    return EnergyTrace.from_history(xi, times, norms)
