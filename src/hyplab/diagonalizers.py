"""The diagonalization chain for the companion symbol.

Three transformations, applied to the first-order system at a fixed
phase-space point:

* M1, the Vandermonde matrix in the normalized roots lam_k/<xi>, with its
  inverse assembled from the explicit elementary-symmetric-function formula
  (never by numeric inversion);
* the first-step correction C1 = M1^-1 (D_t M1), whose entries have closed
  forms in the roots and their time derivatives (D_t = -i d/dt), both
  supplied by ``companion.roots_on_times``;
* M2 = I + (off-diagonal of C1)/(lam_p - lam_q), active in the hyperbolic
  zone only;
* the diagonal exponential weights w_p absorbing the remaining diagonal
  derivative terms; their time integrals must stay bounded in frequency for
  a no-loss estimate, which is exactly what the laboratory measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .companion import (
    HyperbolicOperatorSpec,
    NearMultipleRoot,
    RootSet,
    SymbolMatrix,
    roots_on_times,
)
from .coefficients import Mollifier
from .conjugation import _simpson
from .weights import jbracket
from .zones import Zone

__all__ = [
    "DiagonalizerIllConditioned",
    "m1_symbol",
    "m1_inverse_symbol",
    "c1_entries",
    "m2_symbol",
    "M3Weights",
    "m3_weights",
]


class DiagonalizerIllConditioned(Exception):
    """Second diagonalizer entries too large; frequency too low for step two."""


def _gap_products(lam, p, xi):
    """prod_{i != p} (lam_i - lam_p), guarded against underflow."""
    diffs = np.delete(lam, p) - lam[p]
    if diffs.size and np.min(np.abs(diffs)) < 1e-12 * float(jbracket(xi)):
        raise NearMultipleRoot(f"root gap underflow near root {p}")
    return np.prod(diffs) if diffs.size else 1.0


def m1_symbol(roots: RootSet, xi) -> SymbolMatrix:
    """Vandermonde in lam_k/<xi>: row p holds (lam_q/<xi>)^p."""
    jb = float(jbracket(xi))
    z = roots.lam / jb
    V = np.vander(z, roots.m, increasing=True).T.astype(complex)
    return SymbolMatrix(V, "M1")


def m1_inverse_symbol(roots: RootSet, xi) -> SymbolMatrix:
    """Explicit inverse of the Vandermonde.

    Entry (p, q) is (-1)^(q-1) <xi>^(q-1) e_{m-q}(roots without p) divided by
    prod_{i != p}(lam_i - lam_p), where e_k is the k-th elementary symmetric
    function.  Built from the formula, not from a numeric inverse.
    """
    jb = float(jbracket(xi))
    m = roots.m
    lam = roots.lam / jb  # normalized roots; powers of <xi> then cancel
    C = np.zeros((m, m), dtype=complex)
    sign = (-1.0) ** (m - 1)
    for p in range(m):
        others = np.delete(lam, p)
        denom = _gap_products(lam, p, 0.0)  # normalized roots: guard at scale 1
        # coeffs of prod (z - lam_i); poly[k] = (-1)^k e_k
        poly = np.atleast_1d(np.poly(others))
        for q in range(1, m + 1):
            C[p, q - 1] = sign * poly[m - q] / denom
    return SymbolMatrix(C, "M1inv")


def c1_entries(roots: RootSet, roots_dt, xi) -> SymbolMatrix:
    """First-step correction entries (the symbol product M1^-1 D_t M1).

    ``roots_dt`` holds the real time derivatives d/dt lam_k; the operator
    convention D_t = -i d/dt makes every entry purely imaginary:

        e_pp = -D_t lam_p  sum_{i != p} 1/(lam_i - lam_p)
        e_pq = -D_t lam_q  prod_{i != p,q}(lam_i - lam_q) / prod_{i != p}(lam_i - lam_p)
    """
    lam = roots.lam
    dt = -1j * np.asarray(roots_dt, dtype=float)  # D_t lam
    m = roots.m
    E = np.zeros((m, m), dtype=complex)
    for p in range(m):
        denom = _gap_products(lam, p, roots.xi)
        for q in range(m):
            if p == q:
                E[p, p] = -dt[p] * np.sum(1.0 / (np.delete(lam, p) - lam[p]))
            else:
                keep = [i for i in range(m) if i != p and i != q]
                num = np.prod(lam[keep] - lam[q]) if keep else 1.0
                E[p, q] = -dt[q] * num / denom
    return SymbolMatrix(E, "C1")


def m2_symbol(roots: RootSet, roots_dt, xi, zone_tag: Zone) -> SymbolMatrix:
    """Second diagonalizer; identity outside the hyperbolic zone.

    Off-diagonal entries divide the first-step correction by the root gap:
    d_pq = e_pq / (lam_p - lam_q).  Entries of size 1/(2m) or more signal
    that the frequency is too low for the second step.
    """
    m = roots.m
    if zone_tag is not Zone.HYPERBOLIC:
        return SymbolMatrix(np.eye(m, dtype=complex), "M2")
    E = c1_entries(roots, roots_dt, xi).entries
    D = np.eye(m, dtype=complex)
    lam = roots.lam
    for p in range(m):
        for q in range(m):
            if p != q:
                D[p, q] = E[p, q] / (lam[p] - lam[q])
    off = np.max(np.abs(D - np.eye(m)))
    if off >= 1.0 / (2.0 * m):
        raise DiagonalizerIllConditioned(
            f"off-diagonal magnitude {off:.3e} >= 1/(2m) at xi={roots.xi}"
        )
    return SymbolMatrix(D, "M2")


@dataclass(frozen=True)
class M3Weights:
    """Exponential absorption weights along [0, t].

    ``integrals`` are the values of int_0^t D_s lam_p / sum_{i != p}(lam_i -
    lam_p) ds (purely imaginary for real separated roots); ``magnitudes`` are
    |w_p| = |exp(integral)|.  Boundedness of the integrals across a frequency
    sweep is the quantity of interest.
    """

    integrals: np.ndarray
    magnitudes: np.ndarray


def m3_weights(
    spec: HyperbolicOperatorSpec,
    x,
    xi: float,
    t: float,
    quadrature: int = 1024,
    mollifier: Optional[Mollifier] = None,
) -> M3Weights:
    """Composite-Simpson evaluation of the absorption integrals on [0, t].

    Roots and their exact time rates come from the coefficients mollified at
    width 1/<xi> (``roots_on_times``).
    """
    if quadrature < 8:
        raise ValueError("quadrature needs at least 8 intervals")
    mol = mollifier or Mollifier()

    def integrand(ss):
        lam, lam_dot = roots_on_times(spec, ss, x, xi, mol)
        gaps = np.empty_like(lam)
        for p in range(spec.m):
            gaps[:, p] = np.sum(np.delete(lam, p, axis=1) - lam[:, [p]], axis=1)
        return -1j * lam_dot / gaps  # D_s lam_p / sum_i (lam_i - lam_p)

    integrals = _simpson(integrand, 0.0, t, quadrature)
    return M3Weights(integrals=integrals, magnitudes=np.abs(np.exp(integrals)))
