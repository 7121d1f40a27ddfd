"""Characteristic roots and the first-order companion system.

An operator of order m in one space dimension is described by its
coefficient list a_{m-j}, j = 0..m-1; the characteristic polynomial is

    lam^m - sum_j a_{m-j}(t, x) xi^(m-j) lam^j = 0.

Strict hyperbolicity means the roots are real and separated by a fixed
fraction of <xi> = sqrt(1 + xi^2).  The companion symbol has <xi> on the
superdiagonal and the <xi>-normalized coefficient entries in the last row;
its eigenvalues coincide with the characteristic roots.
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

    def coeff_values(self, t, x=None, mollifier: Optional[Mollifier] = None, eps=None):
        """Values of a_{m-j}(t, x) for j = 0..m-1; mollified when asked."""
        out = np.zeros(self.m)
        for j, c in enumerate(self.coeffs):
            if c is None:
                continue
            if mollifier is None:
                out[j] = c.value(t, x)
            else:
                if eps is None:
                    raise ValueError("mollified evaluation needs a width eps")
                out[j] = mollify(c, mollifier, eps, t, x=x)
        return out


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


def _poly_coeffs(values, xi, m):
    """Monic coefficient vector [1, -a_1 xi, ..., -a_m xi^m] for np.roots."""
    c = np.zeros(m + 1)
    c[0] = 1.0
    for j in range(m):  # values[j] = a_{m-j}, multiplies lam^j
        c[m - j] = -values[j] * xi ** (m - j)
    return c


def _settle_roots(raw, xi, m, delta_sep):
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


def characteristic_roots(
    spec: HyperbolicOperatorSpec,
    t: float,
    x,
    xi: float,
    mollifier: Optional[Mollifier] = None,
    eps: Optional[float] = None,
) -> RootSet:
    """Real ascending roots of the characteristic polynomial at (t, x, xi).

    With a mollifier the coefficients are regularized first (width eps,
    defaulting to 1/<xi>).  Complex or nearly multiple roots raise.
    """
    if mollifier is not None and eps is None:
        eps = 1.0 / float(jbracket(xi))
    vals = spec.coeff_values(t, x, mollifier, eps)
    raw = np.roots(_poly_coeffs(vals, xi, spec.m))
    return RootSet(_settle_roots(raw, xi, spec.m, spec.delta_sep), xi)


def roots_on_times(
    spec: HyperbolicOperatorSpec,
    ts,
    x,
    xi: float,
    mollifier: Optional[Mollifier] = None,
    eps: Optional[float] = None,
) -> np.ndarray:
    """Roots along a time grid, shape (len(ts), m), via batched eigenvalues."""
    ts = np.asarray(ts, dtype=float)
    if mollifier is not None and eps is None:
        eps = 1.0 / float(jbracket(xi))
    m = spec.m
    vals = np.zeros((ts.size, m))
    for j, c in enumerate(spec.coeffs):
        if c is None:
            continue
        if mollifier is None:
            vals[:, j] = c._time_value(ts) * c._spatial_factor(x)
        else:
            vals[:, j] = np.atleast_1d(mollify(c, mollifier, eps, ts, x=x))
    # scalar companion of lam^m = sum_j b_j lam^j with b_j = a_{m-j} xi^(m-j):
    # ones on the superdiagonal, the b_j in the last row
    comp = np.zeros((ts.size, m, m))
    comp[:, np.arange(m - 1), np.arange(1, m)] = 1.0
    for j in range(m):
        comp[:, m - 1, j] = vals[:, j] * xi ** (m - j)
    raw = np.linalg.eigvals(comp)
    out = np.empty((ts.size, m))
    for i in range(ts.size):
        out[i] = _settle_roots(raw[i], xi, m, spec.delta_sep)
    return out


def companion_symbol(
    spec: HyperbolicOperatorSpec,
    t: float,
    x,
    xi: float,
    mollifier: Optional[Mollifier] = None,
    eps: Optional[float] = None,
) -> SymbolMatrix:
    """The first-order system symbol A(t, x, xi).

    Superdiagonal <xi>; last-row entry in column j equals
    a_{m-j} xi^(m-j) <xi>^-(m-1-j).  Its eigenvalues reproduce the
    characteristic roots.
    """
    if mollifier is not None and eps is None:
        eps = 1.0 / float(jbracket(xi))
    m = spec.m
    jb = float(jbracket(xi))
    vals = spec.coeff_values(t, x, mollifier, eps)
    A = np.zeros((m, m), dtype=complex)
    A[np.arange(m - 1), np.arange(1, m)] = jb
    for j in range(m):
        A[m - 1, j] = vals[j] * xi ** (m - j) * jb ** (-(m - 1 - j))
    return SymbolMatrix(A, "A")
