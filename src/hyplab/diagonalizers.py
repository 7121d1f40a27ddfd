"""The diagonalization chain for the companion symbol.

Three transformations and one set of weights, applied to the first-order
system at a fixed phase-space point.  Every step is a formula in the root
gaps G[p, i] = lam_i - lam_p and their products P_p = prod_{i != p} G[p, i],
taken from the one gap matrix ``companion._root_gaps``; every symbol is a
plain complex m x m array.

* M1, the Vandermonde matrix in the normalized roots lam_k/<xi>, with its
  inverse assembled from the explicit elementary-symmetric-function formula
  over the denominators P_p (never by numeric inversion);
* the first-step correction C1 = M1^-1 (D_t M1), whose entries have closed
  forms in the roots and their time derivatives (D_t = -i d/dt), both
  supplied by ``companion.roots_on_times``;
* M2 = I + (off-diagonal of C1)/(lam_p - lam_q), active in the hyperbolic
  zone only;
* the diagonal exponential weights w_p absorbing the remaining diagonal
  derivative terms, over the row sums of G; their time integrals must stay
  bounded in frequency for a no-loss estimate, which is exactly what the
  laboratory measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .companion import HyperbolicOperatorSpec, RootSet, _root_gaps, roots_on_times
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


# root gaps below this fraction of <xi> raise NearMultipleRoot
_UNDERFLOW = 1e-12


class DiagonalizerIllConditioned(Exception):
    """Second diagonalizer entries too large; frequency too low for step two."""


def _vandermonde(z):
    """M1 in the normalized roots z[..., q] = lam_q/<xi>: entry (p, q) is z_q^p, batched over leading axes."""
    return z[..., None, :] ** np.arange(z.shape[-1])[:, None]


def m1_symbol(roots: RootSet) -> np.ndarray:
    """Vandermonde in lam_k/<xi>: row p holds (lam_q/<xi>)^p."""
    return _vandermonde(roots.lam / float(jbracket(roots.xi))).astype(complex)


def m1_inverse_symbol(roots: RootSet) -> np.ndarray:
    """Explicit inverse of the Vandermonde.

    Entry (p, q) is (-1)^(q-1) <xi>^(q-1) e_{m-q}(roots without p) divided by
    prod_{i != p}(lam_i - lam_p), where e_k is the k-th elementary symmetric
    function.  Built from the formula, not from a numeric inverse.
    """
    m = roots.m
    lam = roots.lam / float(jbracket(roots.xi))  # normalized roots; powers of <xi> then cancel
    _, P = _root_gaps(lam, _UNDERFLOW)
    # row p: coefficients of prod_{i != p}(z - lam_i), entry k = (-1)^k e_k
    poly = np.array([np.atleast_1d(np.poly(np.delete(lam, p))) for p in range(m)])
    return ((-1.0) ** (m - 1) * poly[:, ::-1] / P[:, None]).astype(complex)


def _c1(lam, roots_dt, xi):
    """C1 and the reciprocal gaps R[..., p, i] = 1/(lam_i - lam_p), zero on the diagonal.

    Batched over the leading axes of the ascending roots ``lam`` and their
    rates ``roots_dt``.
    """
    m = lam.shape[-1]
    G, P = _root_gaps(lam, _UNDERFLOW * float(jbracket(xi)))
    eye = np.eye(m)
    R = 1.0 / (G + eye) - eye
    dt = -1j * np.asarray(roots_dt, dtype=float)[..., None, :]  # D_t lam_q, along the columns
    E = dt * P[..., None, :] * R / P[..., :, None]
    diag = np.arange(m)
    E[..., diag, diag] = -dt[..., 0, :] * R.sum(axis=-1)
    return E, R


def c1_entries(roots: RootSet, roots_dt) -> np.ndarray:
    """First-step correction entries (the symbol product M1^-1 D_t M1).

    ``roots_dt`` holds the real time derivatives d/dt lam_k; the operator
    convention D_t = -i d/dt makes every entry purely imaginary.  With the
    gap matrix G[p, i] = lam_i - lam_p and P_p = prod_{i != p} G[p, i]:

        e_pp = -D_t lam_p  sum_{i != p} 1/G[p, i]
        e_pq = -D_t lam_q  P_q / ((lam_p - lam_q) P_p)
    """
    return _c1(roots.lam, roots_dt, roots.xi)[0]


def m2_symbol(roots: RootSet, roots_dt, zone_tag: Zone) -> np.ndarray:
    """Second diagonalizer; identity outside the hyperbolic zone.

    Off-diagonal entries divide the first-step correction by the root gap:
    d_pq = e_pq / (lam_p - lam_q).  Entries of size 1/(2m) or more signal
    that the frequency is too low for the second step.
    """
    m = roots.m
    if zone_tag is not Zone.HYPERBOLIC:
        return np.eye(m, dtype=complex)
    E, R = _c1(roots.lam, roots_dt, roots.xi)
    D = np.eye(m) - E * R  # R = -1/(lam_p - lam_q) off the diagonal, zero on it
    off = np.max(np.abs(D - np.eye(m)))
    if off >= 1.0 / (2.0 * m):
        raise DiagonalizerIllConditioned(
            f"off-diagonal magnitude {off:.3e} >= 1/(2m) at xi={roots.xi}"
        )
    return D


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
        G, _ = _root_gaps(lam)
        return -1j * lam_dot / G.sum(axis=-1)  # D_s lam_p / sum_i (lam_i - lam_p)

    integrals = _simpson(integrand, 0.0, t, quadrature)
    return M3Weights(integrals=integrals, magnitudes=np.abs(np.exp(integrals)))
