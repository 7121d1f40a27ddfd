"""Characteristic roots and the first-order companion system.

An operator of order m in one space dimension is described by its
coefficient list a_{m-j}, j = 0..m-1; the characteristic polynomial is

    lam^m - sum_j a_{m-j}(t, x) xi^(m-j) lam^j = 0.

Strict hyperbolicity means the roots are real and separated by a fixed
fraction of <xi> = sqrt(1 + xi^2).  One builder, batched over leading axes,
makes the companion symbol (<xi> on the superdiagonal, the <xi>-normalized
coefficient entries in the last row); its eigenvalues are the characteristic
roots, settled a whole batch at a time.  Along a time grid the roots of the
mollified symbol come with their exact rates, by implicit differentiation of
the characteristic polynomial over the root-gap matrix that the diagonalizer
chain is built from; the same differentiation (``_root_rates``) gives the
rates of the raw roots that the integrator's frame follows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .coefficients import CoefficientSpec, Mollifier, mollify
from .weights import jbracket

__all__ = [
    "HyperbolicityViolation",
    "NearMultipleRoot",
    "HyperbolicOperatorSpec",
    "RootSet",
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

    def sup_abs(self):
        return max([c.sup_abs for c in self.coeffs if c is not None], default=0.0)

    def coeff_values(self, t, x=None):
        """Values of a_{m-j}(t, x) for j = 0..m-1."""
        return np.array([0.0 if c is None else c.value(t, x) for c in self.coeffs])


@dataclass(frozen=True)
class RootSet:
    """Ascending real roots at one frequency."""

    lam: np.ndarray
    xi: float

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        object.__setattr__(self, "lam", lam)
        if np.any(np.diff(lam) <= 0.0):
            raise ValueError("roots must be strictly ascending")

    @property
    def m(self):
        return self.lam.size


def _row_scale(xi, m):
    """Last-row factors xi^(m-j) <xi>^-(m-1-j) of the companion symbol, j = 0..m-1."""
    jb = float(jbracket(xi))
    return np.array([xi ** (m - j) * jb ** (j + 1 - m) for j in range(m)])


def _companion(vals, xi):
    """Companion symbol for coefficient values vals[..., j] = a_{m-j}.

    Batched over the leading axes: <xi> on the superdiagonal, last-row entry
    in column j equal to a_{m-j} xi^(m-j) <xi>^-(m-1-j).
    """
    vals = np.asarray(vals, dtype=float)
    m = vals.shape[-1]
    A = np.zeros(vals.shape + (m,))
    A[..., np.arange(m - 1), np.arange(1, m)] = float(jbracket(xi))
    A[..., m - 1, :] = vals * _row_scale(xi, m)
    return A


def _roots(vals, xi, delta_sep):
    """Settled ascending roots for each row of coefficient values, shape (n, m).

    Eigenvalues of the companion symbol, checked for the whole batch at once:
    imaginary parts within IMAG_TOL <xi>, gaps at least delta_sep <xi>.
    """
    jb = float(jbracket(xi))
    raw = np.linalg.eigvals(_companion(vals, xi))
    worst = float(np.max(np.abs(raw.imag)))
    if worst > IMAG_TOL * jb:
        raise HyperbolicityViolation(
            f"complex characteristic roots at xi={xi}: max |Im| = {worst:.3e} > {IMAG_TOL * jb:.3e}"
        )
    lam = np.sort(raw.real, axis=-1)
    if lam.shape[-1] > 1:
        gap = float(np.min(np.diff(lam, axis=-1)))
        if gap < delta_sep * jb:
            raise NearMultipleRoot(f"root gap {gap:.3e} below margin {delta_sep * jb:.3e} at xi={xi}")
    return lam


def _root_gaps(lam, tol=0.0):
    """Gap matrix G[..., p, i] = lam_i - lam_p (zero diagonal) of ascending roots.

    Returns ``(G, P)`` with P[..., p] = prod_{i != p} G[..., p, i].  A gap
    below ``tol`` raises NearMultipleRoot (underflow guard).
    """
    m = lam.shape[-1]
    if m > 1 and np.min(np.diff(lam, axis=-1)) < tol:
        raise NearMultipleRoot(f"root gap underflow below {tol:.3e}")
    G = lam[..., None, :] - lam[..., :, None]
    return G, np.prod(G + np.eye(m), axis=-1)


def characteristic_roots(spec: HyperbolicOperatorSpec, t: float, x, xi: float) -> RootSet:
    """Real ascending roots of the characteristic polynomial at (t, x, xi).

    Complex or nearly multiple roots raise.
    """
    return RootSet(_roots(spec.coeff_values(t, x)[None, :], xi, spec.delta_sep)[0], xi)


def roots_on_times(
    spec: HyperbolicOperatorSpec,
    ts,
    x,
    xi: float,
    mollifier: Mollifier,
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of the mollified symbol along a time grid, and their time rates.

    The coefficients are mollified at width eps = 1/<xi>.  Returns
    ``(lam, lam_dot)``, both of shape (len(ts), m).  The rates come from
    implicit differentiation of the characteristic polynomial
    (``_root_rates``), whose derivative at a root is nonzero because the
    roots are separated by at least delta_sep <xi>.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    eps = 1.0 / float(jbracket(xi))
    m = spec.m
    vals = np.zeros((2, ts.size, m))  # a_{m-j} and its rate
    for j, c in enumerate(spec.coeffs):
        if c is not None:
            vals[:, :, j] = mollify(c, mollifier, eps, ts, x=x)[:2]
    lam = _roots(vals[0], xi, spec.delta_sep)
    return lam, _root_rates(lam, vals[1], xi)


def _root_rates(lam, vals_dot, xi):
    """Time rates of the ascending roots lam[..., k], from the coefficient rates vals_dot[..., j] = a_{m-j}'.

    Implicit differentiation of p(lam) = lam^m - sum_j b_j lam^j, b_j = a_{m-j} xi^(m-j):

        lam_k' = sum_j b_j' lam_k^j / p'(lam_k),

    with p'(lam_k) = prod_{i != k}(lam_k - lam_i) = (-1)^(m-1) P_k from the
    gap matrix.  Batched over the leading axes.
    """
    m = lam.shape[-1]
    b_dot = vals_dot * xi ** (m - np.arange(m))
    num = np.sum(b_dot[..., None, :] * lam[..., :, None] ** np.arange(m), axis=-1)
    _, P = _root_gaps(lam)
    return num / ((-1) ** (m - 1) * P)


def companion_symbol(spec: HyperbolicOperatorSpec, t: float, x, xi: float) -> np.ndarray:
    """The first-order system symbol A(t, x, xi), an m x m array.

    Superdiagonal <xi>; last-row entry in column j equals
    a_{m-j} xi^(m-j) <xi>^-(m-1-j).  Its eigenvalues reproduce the
    characteristic roots.
    """
    return _companion(spec.coeff_values(t, x), xi)
