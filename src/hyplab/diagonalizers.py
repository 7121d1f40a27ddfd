"""The diagonalization chain for the companion symbol.

Three transformations and one set of weights, applied to the first-order
system at fixed phase-space points.  Every step is a formula in the root
gaps G[p, i] = lam_i - lam_p and their products P_p = prod_{i != p} G[p, i],
taken from the one gap matrix ``companion._root_gaps``; for m = 2, M1 and
C1 are closed forms on the one gap g = lam_1 - lam_0 (so P = (g, -g)), each
entry by the general formula's floating-point operations in their order, so
that both give the same bits.  Every symbol takes
ascending roots lam[..., k] batched over leading axes, against which xi
broadcasts, and is complex with trailing (m, m) axes.

* M1, the Vandermonde matrix in the normalized roots lam_k/<xi>, with its
  inverse assembled from the explicit elementary-symmetric-function formula
  over the denominators P_p (never by numeric inversion);
* the first-step correction C1 = M1^-1 (D_t M1), whose entries have closed
  forms in the roots and their time derivatives (D_t = -i d/dt), both
  supplied by ``companion.roots_on_times`` or, unmollified,
  ``companion.characteristic_roots``; C1 = i K with K real, the coupling
  that the integrator's frame also takes from ``_c1``;
* M2 = I + (off-diagonal of C1)/(lam_p - lam_q), the second step in the
  hyperbolic zone;
* the diagonal exponential weights w_p absorbing the remaining diagonal
  derivative terms D_t lam_p / g_p, over the row sums g_p = sum_i G[p, i]
  = S - m lam_p of G, S = sum_i lam_i = xi a_1.  Their time integrals must
  stay bounded in frequency for a no-loss estimate, which is exactly what
  the laboratory measures.  Since lam_p' = (S' - g_p')/m they telescope:

      int_0^t D_s lam_p / g_p ds = (i/m) [log(g_p(t)/g_p(0)) - int_0^t S'/g_p ds],

  and the remainder is zero unless a_1 depends on time.
"""

from __future__ import annotations

import numpy as np

from .companion import HyperbolicOperatorSpec, _gap_floor, _root_gaps, roots_on_times
from .conjugation import _simpson
from .weights import jbracket

__all__ = [
    "DiagonalizerIllConditioned",
    "m1_symbol",
    "m1_inverse_symbol",
    "c1_entries",
    "m2_symbol",
    "m3_weights",
]


# root gaps below this fraction of <xi> raise NearMultipleRoot
_UNDERFLOW = 1e-12

# composite Simpson intervals of the m3 remainder integral (``m3_weights``)
M3_INTERVALS = 1024


class DiagonalizerIllConditioned(Exception):
    """Second diagonalizer entries too large; frequency too low for step two."""


def m1_symbol(lam, xi) -> np.ndarray:
    """Vandermonde in z_q = lam_q/<xi>: entry (p, q) is z_q^p, over the leading axes of lam, against which xi broadcasts."""
    z = lam / jbracket(xi)[..., None]
    return (_m1_2 if z.shape[-1] == 2 else _m1_m)(z)


def _m1_m(z):
    """``m1_symbol`` of the normalized roots z, by powers."""
    return (z[..., None, :] ** np.arange(z.shape[-1])[:, None]).astype(complex)


def _m1_2(z):
    """``_m1_m`` at m = 2, bit for bit: rows 1 and z."""
    M = np.empty(z.shape[:-1] + (2, 2), dtype=complex)
    M[..., 0, :] = 1.0
    M[..., 1, :] = z
    return M


def m1_inverse_symbol(lam, xi) -> np.ndarray:
    """Inverse of ``m1_symbol`` from the explicit formula, not from a numeric inverse; batched like it.

    Row p holds the coefficients, constant term first, of prod_{i != p}(x - z_i)/(z_p - z_i): the
    numerator's from e[1:] -= z_i e[:-1] over ascending i != p (as ``np.poly``), the denominator
    (-1)^(m-1) times the row product of the root gaps.  For m = 2, with g = z_1 - z_0, the rows
    are (z_1, -1)/g and (-z_0, 1)/g.
    """
    z = lam / jbracket(xi)[..., None]  # normalized roots; powers of <xi> cancel
    m = z.shape[-1]
    _, P = _root_gaps(z, _UNDERFLOW)
    e = np.zeros(z.shape + (m,))  # e[..., p, k], highest power first
    e[..., 0] = 1.0
    for i in range(m):
        rows = np.arange(m) != i
        e[..., rows, 1:] -= z[..., i, None, None] * e[..., rows, :-1]
    return ((-1.0) ** (m - 1) * e[..., ::-1] / P[..., None]).astype(complex)


def _c1(lam, roots_dt, xi):
    """The real coupling K = -i C1 and the reciprocal gaps R[..., p, i] = 1/(lam_i - lam_p), zero on the diagonal.

    Batched over the leading axes of the ascending roots ``lam`` and their
    rates ``roots_dt``, against which xi broadcasts: over the gap matrix
    (``_c1_m``), for m = 2 from the entries on the one gap (``_c1_2``).
    """
    if lam.shape[-1] != 2:
        return _c1_m(lam, roots_dt, xi)
    k, _, r = _c1_2(lam, roots_dt, xi)
    K = np.stack(k, axis=-1).reshape(k[0].shape + (2, 2))
    R = np.zeros_like(K)
    R[..., 0, 1] = r
    R[..., 1, 0] = -r
    return K, R


def _c1_m(lam, roots_dt, xi):
    """``_c1`` over the gap matrix G and its row products P."""
    m = lam.shape[-1]
    G, P = _root_gaps(lam, _UNDERFLOW * jbracket(xi))
    eye = np.eye(m)
    R = 1.0 / (G + eye) - eye
    dt = np.asarray(roots_dt, dtype=float)[..., None, :]  # d/dt lam_q, along the columns
    K = -dt * P[..., None, :] * R / P[..., :, None]
    diag = np.arange(m)
    K[..., diag, diag] = dt[..., 0, :] * R.sum(axis=-1)
    return K, R


def _c1_2(lam, roots_dt, xi):
    """``_c1_m`` at m = 2, bit for bit: the entries (K_00, K_01, K_10, K_11), the gap g = lam_1 - lam_0 and r = 1/g.

    With P = (g, -g) and R_01 = -R_10 = r, K_01 = ((-lam_1' P_1) R_01) / P_0 = ((lam_1' g) r) / g,
    K_10 = -(((lam_0' g) r) / g), and the diagonal K_pp = lam_p' (R_p0 + R_p1) = (lam_0' r, -(lam_1' r)).
    """
    g = _gap_floor(lam, _UNDERFLOW * jbracket(xi))[..., 0]
    r = 1.0 / g
    dt = np.asarray(roots_dt, dtype=float)
    d0, d1 = dt[..., 0], dt[..., 1]
    k = (d0 * r, d1 * g * r / g, -(d0 * g * r / g), -(d1 * r))
    return k, g, r


def c1_entries(lam, lam_dot, xi) -> np.ndarray:
    """First-step correction entries (the symbol product M1^-1 D_t M1); batched like ``m1_symbol``.

    ``lam_dot`` holds the real time derivatives d/dt lam_k; the operator
    convention D_t = -i d/dt makes every entry purely imaginary.  With the
    gap matrix G[p, i] = lam_i - lam_p and P_p = prod_{i != p} G[p, i]:

        e_pp = -D_t lam_p  sum_{i != p} 1/G[p, i]
        e_pq = -D_t lam_q  P_q / ((lam_p - lam_q) P_p)
    """
    return 1j * _c1(lam, lam_dot, xi)[0]


def m2_symbol(lam, lam_dot, xi) -> np.ndarray:
    """Second diagonalizer of the hyperbolic zone; batched like ``m1_symbol``.

    Off-diagonal entries divide the first-step correction by the root gap:
    d_pq = e_pq / (lam_p - lam_q).  Entries of size 1/(2m) or more signal
    that the frequency is too low for the second step: the error names the
    frequency of the first such matrix and its largest entry.
    """
    m = lam.shape[-1]
    K, R = _c1(lam, lam_dot, xi)
    D = np.eye(m) - 1j * K * R  # R = -1/(lam_p - lam_q) off the diagonal, zero on it
    off = np.max(np.abs(D - np.eye(m)), axis=(-2, -1))
    bad = off >= 1.0 / (2.0 * m)
    if bad.any():
        k = np.argmax(bad)
        x = float(np.broadcast_to(xi, off.shape).flat[k])
        raise DiagonalizerIllConditioned(f"off-diagonal magnitude {off.flat[k]:.3e} >= 1/(2m) at xi={x}")
    return D


def m3_weights(spec: HyperbolicOperatorSpec, xi, t: float) -> np.ndarray:
    """The absorption integrals on [0, t] in closed form; elementwise in xi.

    With S = sum_i lam_i the denominator sum_i (lam_i - lam_p) is
    g_p = S - m lam_p, and lam_p' = (S' - g_p')/m, so

        int_0^t D_s lam_p / g_p ds = (i/m) [log(g_p(t)/g_p(0)) - int_0^t S'/g_p ds].

    The log term takes the roots at the two ends alone.  S = xi a_1 is
    constant unless a_1 depends on time; only then does composite Simpson on
    ``M3_INTERVALS`` intervals evaluate the remainder.  Roots and their exact
    rates come from the coefficients mollified at width 1/<xi>
    (``roots_on_times``), for every frequency of an array at once.  A g_p
    below the separation margin delta_sep <xi> at either end, or of opposite
    signs at the two ends, puts a pole in the integrand and raises
    ValueError; a pole crossed an even number of times goes unseen.  The
    integrals are purely imaginary (real roots, so |w_p| = 1), and their
    boundedness across a frequency sweep is the quantity of interest.  They
    have the shape of xi plus a last axis of m.
    """
    xi = np.asarray(xi, dtype=float)

    def gap_sums(ss):
        """Root rates and gap sums g_p at the times ss, times first."""
        lam, lam_dot = roots_on_times(spec, ss.reshape(ss.shape + (1,) * xi.ndim), xi)
        return lam_dot, _root_gaps(lam)[0].sum(axis=-1)

    g0, g1 = gap_sums(np.array([0.0, t]))[1]
    vanishes = np.minimum(np.abs(g0), np.abs(g1)) < spec.delta_sep * jbracket(xi)[..., None]
    for bad, what in ((vanishes, "vanishes"), (g0 * g1 <= 0.0, "changes sign")):
        if np.any(bad):
            k = tuple(np.argwhere(bad)[0])
            raise ValueError(
                f"absorption integrand has a pole on [0, {t:g}]: the gap sum of root {k[-1]}"
                f" {what} at xi={float(xi[k[:-1]]):g}"
            )
    log_term = np.log(g1 / g0)
    a1 = spec.coeffs[-1]
    if a1 is not None and a1._term is not None:

        def remainder(ss):
            lam_dot, g = gap_sums(ss)
            # S' / g_p, nodes second to last, so that Simpson's sum runs per
            # frequency as for one frequency
            return np.moveaxis(lam_dot.sum(axis=-1, keepdims=True) / g, 0, -2)

        log_term = log_term - _simpson(remainder, 0.0, t, M3_INTERVALS)
    return 1j / spec.m * log_term
