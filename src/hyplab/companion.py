"""Characteristic roots and the first-order companion system.

An operator of order m in one space dimension is described by its
coefficient list a_{m-j}, j = 0..m-1; the characteristic polynomial is

    lam^m - sum_j a_{m-j}(t) xi^(m-j) lam^j = 0.

Strict hyperbolicity means the roots are real and separated by a fixed
fraction of <xi> = sqrt(1 + xi^2).  One builder, batched over leading axes,
makes the companion symbol (<xi> on the superdiagonal, the <xi>-normalized
coefficient entries c in the last row), and the characteristic roots are
settled a whole batch at a time.  For m = 2 they are mu +- w in closed form,
mu = c1/2 and w^2 = mu^2 + <xi> c0, the smaller one as the product of the
roots over the larger, which keeps its relative accuracy (``_quadratic_roots``);
for m > 2 they are the symbol's eigenvalues.  Along a time grid, for one
frequency or an array of them, the roots of the mollified symbol come with
their exact rates, by implicit differentiation of the characteristic
polynomial over the root-gap matrix that the diagonalizer chain is built
from (for m = 2, the one gap); the same differentiation (``_root_rates``)
gives the rates of the raw roots (``characteristic_roots``) that the
integrator's frame follows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .coefficients import CoefficientSpec, mollify
from .weights import jbracket

__all__ = [
    "HyperbolicityViolation",
    "NearMultipleRoot",
    "HyperbolicOperatorSpec",
    "characteristic_roots",
    "roots_on_times",
    "companion_symbol",
]

IMAG_TOL = 1e-8


class HyperbolicityViolation(Exception):
    """Characteristic roots acquired an imaginary part beyond tolerance."""


class NearMultipleRoot(Exception):
    """Root separation fell below the hyperbolicity margin."""


@dataclass(frozen=True)
class HyperbolicOperatorSpec:
    """Order m and the coefficient list a_{m-j} (None meaning zero).

    ``coeffs[j]`` multiplies xi^(m-j) lam^j, so coeffs[0] is the principal
    zero-order-in-lam coefficient a_m and coeffs[m-1] is a_1.
    """

    m: int
    coeffs: Sequence[Optional[CoefficientSpec]]
    delta_sep: float = 1e-6

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("operator order must be at least 2")
        if len(self.coeffs) != self.m:
            raise ValueError(f"need {self.m} coefficient slots, got {len(self.coeffs)}")
        if not (self.delta_sep > 0.0):
            raise ValueError("hyperbolicity margin must be positive")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def x_independent(self):
        return all(c is None or c.spatial is None for c in self.coeffs)

    @property
    def sup_abs(self):
        """Upper bound for |a_{m-j}| over every coefficient (0 with none)."""
        return max([c.sup_abs for c in self.coeffs if c is not None], default=0.0)


def _row_scale(xi, m):
    """Last-row factors xi^(m-j) <xi>^-(m-1-j) of the companion symbol, j = 0..m-1, on a new last axis of xi."""
    xi = np.asarray(xi, dtype=float)[..., None]
    j = np.arange(m)
    return xi ** (m - j) * jbracket(xi) ** (j + 1 - m)


def _companion(vals, xi):
    """Companion symbol for coefficient values vals[..., j] = a_{m-j}.

    Batched over the leading axes, against which xi broadcasts: <xi> on the
    superdiagonal, last-row entry in column j equal to
    a_{m-j} xi^(m-j) <xi>^-(m-1-j).
    """
    vals = np.asarray(vals, dtype=float)
    m = vals.shape[-1]
    A = np.zeros(vals.shape + (m,))
    A[..., np.arange(m - 1), np.arange(1, m)] = jbracket(xi)[..., None]
    A[..., m - 1, :] = vals * _row_scale(xi, m)
    return A


def _roots(vals, xi, delta_sep):
    """Settled ascending roots for each row of coefficient values, shape (n, m).

    ``xi`` is one frequency or one per row.  For m = 2 the closed form of
    ``_quadratic_roots``, for m > 2 the eigenvalues of the companion symbol,
    checked for the whole batch at once: imaginary parts within IMAG_TOL
    <xi>, gaps at least delta_sep <xi>.  An error names the frequency of the
    first failing row and the worst value at it.
    """
    xi = np.broadcast_to(np.asarray(xi, dtype=float), vals.shape[:-1])
    jb = jbracket(xi)

    def first(bad, value, reduce):
        x = float(xi.flat[np.argmax(bad)])
        return x, float(reduce(value[xi == x])), float(jbracket(x))

    if vals.shape[-1] == 2:
        lam, imag = _quadratic_roots(vals * _row_scale(xi, 2), jb)
    else:
        raw = np.linalg.eigvals(_companion(vals, xi))
        lam, imag = np.sort(raw.real, axis=-1), np.max(np.abs(raw.imag), axis=-1)
    bad = imag > IMAG_TOL * jb
    if bad.any():
        x, worst, jx = first(bad, imag, np.max)
        raise HyperbolicityViolation(
            f"complex characteristic roots at xi={x}: max |Im| = {worst:.3e} > {IMAG_TOL * jx:.3e}"
        )
    gap = np.min(np.diff(lam, axis=-1), axis=-1)
    bad = gap < delta_sep * jb
    if bad.any():
        x, gap, jx = first(bad, gap, np.min)
        raise NearMultipleRoot(f"root gap {gap:.3e} below margin {delta_sep * jx:.3e} at xi={x}")
    return lam


def _quadratic_roots(c, jb):
    """Ascending real parts and the |Im| of the roots of lam^2 - c1 lam - <xi> c0, for last rows c[..., :2].

    With mu = c1 / 2 and w^2 = mu^2 + <xi> c0 the roots are mu +- w: the one
    of larger magnitude is mu + sign(mu) w, and the other is the product
    -<xi> c0 over it, which keeps a small root's relative accuracy where
    mu - w would cancel.  Where w^2 < 0 both real parts are mu and
    |Im| = sqrt(-w^2).  Like ``np.linalg.eigvals``, non-finite entries raise
    ``LinAlgError``.
    """
    if not np.isfinite(c).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    jc = jb * c[..., 0]
    mu = 0.5 * c[..., 1]
    w2 = mu * mu + jc
    w = np.sqrt(np.abs(w2))
    real = w2 >= 0.0
    big = np.where(real, mu + np.copysign(w, mu), mu)
    small = np.where(real, np.divide(-jc, big, out=np.zeros_like(big), where=big != 0.0), mu)
    lam = np.stack((np.minimum(big, small), np.maximum(big, small)), axis=-1)
    return lam, np.where(real, 0.0, w)


def _gap_floor(lam, tol):
    """Neighbour gaps lam[..., k + 1] - lam[..., k] of ascending roots; one below ``tol`` (one value, or one per row of roots) raises NearMultipleRoot (underflow guard)."""
    gaps = np.diff(lam, axis=-1)
    if np.any(gaps < np.asarray(tol)[..., None]):
        raise NearMultipleRoot(f"root gap underflow below {np.min(tol):.3e}")
    return gaps


def _root_gaps(lam, tol=0.0):
    """Gap matrix G[..., p, i] = lam_i - lam_p (zero diagonal) of ascending roots.

    Returns ``(G, P)`` with P[..., p] = prod_{i != p} G[..., p, i].  A gap
    below ``tol`` raises as in ``_gap_floor``.
    """
    m = lam.shape[-1]
    _gap_floor(lam, tol)
    G = lam[..., None, :] - lam[..., :, None]
    H = G + np.eye(m)
    P = H[..., 0].copy()
    for i in range(1, m):  # the product in np.prod's order, without its reduction over a short axis
        P *= H[..., i]
    return G, P


def _jets(spec: HyperbolicOperatorSpec, t, xi, k, eps=None):
    """a_{m-j}, ..., its k-th rate, raw or mollified at width eps: shape (k + 1,) + the broadcast of t and xi + (m,)."""
    t = np.asarray(t, dtype=float)
    vals = np.zeros((k + 1,) + np.broadcast_shapes(t.shape, np.shape(xi)) + (spec.m,))
    for j, c in enumerate(spec.coeffs):
        if c is not None:
            vals[..., j] = c._time_jet(t, k) if eps is None else mollify(c, eps, t=t)[: k + 1]
    return vals


def _roots_with_rates(spec: HyperbolicOperatorSpec, t, xi, eps=None):
    """``(lam, lam_dot)`` by the times t, at least 1-d, and the frequencies xi, raw or mollified at width eps."""
    xi = np.asarray(xi, dtype=float)
    vals = _jets(spec, np.atleast_1d(t), xi, 1, eps)
    lam = _roots(vals[0], xi, spec.delta_sep)
    return lam, _root_rates(lam, vals[1], xi)


def characteristic_roots(spec: HyperbolicOperatorSpec, t, xi) -> tuple[np.ndarray, np.ndarray]:
    """Roots of the raw symbol at the times t, and their time rates.

    The unmollified twin of ``roots_on_times``, with its shapes: elementwise
    in ``t`` > 0 and ``xi``, which broadcast against each other, and
    ``(lam, lam_dot)`` of the broadcast shape plus a last axis of m, a
    scalar time counting as a grid of one.  Complex or nearly multiple roots
    raise.
    """
    return _roots_with_rates(spec, t, xi)


def roots_on_times(spec: HyperbolicOperatorSpec, ts, xi) -> tuple[np.ndarray, np.ndarray]:
    """Roots of the mollified symbol along a time grid, and their time rates.

    Elementwise in ``ts`` and ``xi``, which broadcast against each other
    (e.g. times by frequencies as a (time, 1) and an (n,) array).  The
    coefficients are mollified at width eps = 1/<xi>.  Returns
    ``(lam, lam_dot)``, both of the broadcast shape plus a last axis of m;
    a scalar time counts as a grid of one.  The rates come from implicit
    differentiation of the characteristic polynomial (``_root_rates``),
    whose derivative at a root is nonzero because the roots are separated
    by at least delta_sep <xi>.
    """
    return _roots_with_rates(spec, ts, xi, 1.0 / jbracket(np.asarray(xi, dtype=float)))


def _root_rates(lam, vals_dot, xi):
    """Time rates of the ascending roots lam[..., k], from the coefficient rates vals_dot[..., j] = a_{m-j}'.

    Implicit differentiation of p(lam) = lam^m - sum_j b_j lam^j, b_j = a_{m-j} xi^(m-j):

        lam_k' = sum_j b_j' lam_k^j / p'(lam_k),

    with p'(lam_k) = prod_{i != k}(lam_k - lam_i) = (-1)^(m-1) P_k from the
    gap matrix (``_root_rates_m``), for m = 2 -g and g from the one gap
    g = lam_1 - lam_0 (``_root_rates_2``).  Batched over the leading axes,
    against which xi broadcasts.
    """
    m = lam.shape[-1]
    b_dot = vals_dot * np.asarray(xi, dtype=float)[..., None] ** (m - np.arange(m))
    return (_root_rates_2 if m == 2 else _root_rates_m)(lam, b_dot)


def _root_rates_m(lam, b_dot):
    """``_root_rates`` from the rates b_dot[..., j] = b_j', over the gap matrix."""
    m = lam.shape[-1]
    num = b_dot[..., m - 1 :] * np.ones_like(lam)  # by Horner in lam_k
    for j in range(m - 2, -1, -1):
        num = num * lam + b_dot[..., j : j + 1]
    _, P = _root_gaps(lam)
    return num / ((-1) ** (m - 1) * P)


def _root_rates_2(lam, b_dot):
    """``_root_rates_m`` at m = 2 on the one gap, bit for bit: p'(lam_0) = -g and p'(lam_1) = g."""
    g = _gap_floor(lam, 0.0)
    return (b_dot[..., 1:] * lam + b_dot[..., :1]) / np.concatenate((-g, g), axis=-1)


def companion_symbol(spec: HyperbolicOperatorSpec, t, xi) -> np.ndarray:
    """The first-order system symbol A(t, xi), elementwise in t > 0 and xi: the broadcast shape plus (m, m).

    Superdiagonal <xi>; last-row entry in column j equals
    a_{m-j} xi^(m-j) <xi>^-(m-1-j).  Its eigenvalues reproduce the
    characteristic roots.
    """
    xi = np.asarray(xi, dtype=float)
    return _companion(_jets(spec, t, xi, 0)[0], xi)
