"""Characteristic roots and the first-order companion system.

An operator of order m in one space dimension is described by its
coefficient list a_{m-j}, j = 0..m-1; the characteristic polynomial is

    lam^m - sum_j a_{m-j}(t, x) xi^(m-j) lam^j = 0.

Strict hyperbolicity means the roots are real and separated by a fixed
fraction of <xi> = sqrt(1 + xi^2).  The companion symbol has <xi> on the
superdiagonal and the <xi>-normalized coefficient entries in the last row;
its eigenvalues coincide with the characteristic roots.  Along a time grid
the roots of the mollified symbol come with their exact rates, by implicit
differentiation of the characteristic polynomial.
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
    "SymbolMatrix",
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
class SymbolMatrix:
    """An m x m symbol with a label naming which matrix it is."""

    entries: np.ndarray
    label: str = ""

    @property
    def m(self):
        return self.entries.shape[0]

    def __matmul__(self, other):
        rhs = other.entries if isinstance(other, SymbolMatrix) else other
        return SymbolMatrix(self.entries @ rhs, f"{self.label}*")

    def __str__(self):
        rows = [" ".join(f"{v.real:+.6e}{v.imag:+.6e}j" for v in row) for row in self.entries]
        return f"{self.label} ({self.m}x{self.m}):\n" + "\n".join(rows)


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


def _settle_roots(raw, xi, delta_sep):
    jb = float(jbracket(xi))
    worst = float(np.max(np.abs(raw.imag)))
    if worst > IMAG_TOL * jb:
        raise HyperbolicityViolation(
            f"complex characteristic roots at xi={xi}: max |Im| = {worst:.3e} > {IMAG_TOL * jb:.3e}"
        )
    lam = np.sort(raw.real)
    gaps = np.diff(lam)
    if lam.size > 1 and np.min(gaps) < delta_sep * jb:
        raise NearMultipleRoot(
            f"root gap {np.min(gaps):.3e} below margin {delta_sep * jb:.3e} at xi={xi}"
        )
    return lam


def _roots(b, xi, delta_sep):
    """Settled roots of lam^m = sum_j b_j lam^j for each row of b, shape (n, m).

    Batched eigenvalues of the scalar companion: ones on the superdiagonal,
    the b_j in the last row.
    """
    n, m = b.shape
    comp = np.zeros((n, m, m))
    comp[:, np.arange(m - 1), np.arange(1, m)] = 1.0
    comp[:, m - 1, :] = b
    raw = np.linalg.eigvals(comp)
    return np.array([_settle_roots(r, xi, delta_sep) for r in raw])


def characteristic_roots(spec: HyperbolicOperatorSpec, t: float, x, xi: float) -> RootSet:
    """Real ascending roots of the characteristic polynomial at (t, x, xi).

    Complex or nearly multiple roots raise.
    """
    b = spec.coeff_values(t, x) * xi ** (spec.m - np.arange(spec.m))
    return RootSet(_roots(b[None, :], xi, spec.delta_sep)[0], xi)


def roots_on_times(
    spec: HyperbolicOperatorSpec,
    ts,
    x,
    xi: float,
    mollifier: Mollifier,
    eps: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of the mollified symbol along a time grid, and their time rates.

    The coefficients are mollified at width eps (default 1/<xi>).  Returns
    ``(lam, lam_dot)``, both of shape (len(ts), m).  The rates come from
    implicit differentiation of p(lam) = lam^m - sum_j b_j lam^j:

        lam_k' = sum_j b_j' lam_k^j / prod_{i != k}(lam_k - lam_i),

    whose denominator is p'(lam_k), nonzero because the roots are separated
    by at least delta_sep <xi>.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if eps is None:
        eps = 1.0 / float(jbracket(xi))
    m = spec.m
    powers = xi ** (m - np.arange(m))
    b = np.zeros((2, ts.size, m))  # b_j = a_{m-j} xi^(m-j) and its rate
    for j, c in enumerate(spec.coeffs):
        if c is not None:
            b[:, :, j] = mollify(c, mollifier, eps, ts, x=x)[:2] * powers[j]
    lam = _roots(b[0], xi, spec.delta_sep)
    num = np.sum(b[1][:, None, :] * lam[:, :, None] ** np.arange(m), axis=2)
    gaps = lam[:, :, None] - lam[:, None, :]
    gaps[:, np.arange(m), np.arange(m)] = 1.0
    return lam, num / np.prod(gaps, axis=2)


def companion_symbol(spec: HyperbolicOperatorSpec, t: float, x, xi: float) -> SymbolMatrix:
    """The first-order system symbol A(t, x, xi).

    Superdiagonal <xi>; last-row entry in column j equals
    a_{m-j} xi^(m-j) <xi>^-(m-1-j).  Its eigenvalues reproduce the
    characteristic roots.
    """
    m = spec.m
    jb = float(jbracket(xi))
    vals = spec.coeff_values(t, x)
    A = np.zeros((m, m), dtype=complex)
    A[np.arange(m - 1), np.arange(1, m)] = jb
    for j in range(m):
        A[m - 1, j] = vals[j] * xi ** (m - j) * jb ** (-(m - 1 - j))
    return SymbolMatrix(A, "A")
