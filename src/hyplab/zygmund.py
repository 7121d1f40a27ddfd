"""Zygmund and Besov norm estimation for sampled periodic functions.

Works on uniform periodic grids of dyadic size.  Two independent estimators:

* a direct second-difference quotient, implemented literally in the midpoint
  form |u(x) - 2 u((x+y)/2) + u(y)| / |x-y|^(s-[s]) with dyadic separations
  (for s > 1 the quotient is applied to the spectral derivative), plus the
  sup-norm terms;
* a frequency-side estimator from a fixed smooth dyadic partition of unity,
  giving the Besov norms ||(2^(js) ||D_j u||_p)||_q for p, q in {2, inf}.

The (inf, inf) Besov norm and the direct quotient measure the same class;
their ratio depends on the partition and is only certified to sit in a fixed
order-of-magnitude bracket.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridFunction1D",
    "DyadicDecomposition",
    "zygmund_seminorm_direct",
    "zygmund_norm_direct",
    "dyadic_besov_norm",
    "sobolev_norm_direct",
    "norm_equivalence_report",
    "spatial_profile_norm",
]


@dataclass(frozen=True)
class GridFunction1D:
    """Samples of a periodic function on a uniform grid of size 2^J, J >= 6."""

    samples: np.ndarray
    period: float = 2.0 * math.pi

    def __post_init__(self):
        arr = np.asarray(self.samples)
        object.__setattr__(self, "samples", arr)
        n = arr.size
        if n < 64 or (n & (n - 1)) != 0:
            raise ValueError("grid size must be a power of two, at least 64")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        if not (self.period > 0.0):
            raise ValueError("period must be positive")

    @property
    def n(self):
        return self.samples.size

    @classmethod
    def from_callable(cls, fn, n=1024, period=2.0 * math.pi):
        x = np.arange(n) * (period / n)
        return cls(np.asarray(fn(x)), period)


def _smoothstep(x):
    """Quintic ramp: 0 for x <= 0, 1 for x >= 1, C^2 across the joints."""
    x = np.clip(x, 0.0, 1.0)
    return x**3 * (10.0 + x * (-15.0 + 6.0 * x))


@functools.lru_cache(maxsize=32)
def _partition(n, period):
    """Fixed dyadic partition of unity on the discrete frequencies.

    Block j >= 1 is supported on |k| in [2^(j-1), 2^(j+1)] (k in angular
    units 2*pi/period); block 0 is the low-frequency lump.  The ramps
    telescope, so the blocks sum to one identically.
    """
    k = np.fft.fftfreq(n, d=1.0 / n) * (2.0 * math.pi / period)
    ak = np.abs(k)
    jmax = max(int(math.ceil(math.log2(max(ak.max(), 2.0)))), 1)

    def ramp(j):  # 0 below 2^(j-1), 1 above 2^j
        return _smoothstep(ak / 2.0 ** (j - 1) - 1.0)

    ramps = [ramp(j) for j in range(1, jmax + 1)]
    blocks = [1.0 - ramps[0]]
    for j in range(1, jmax):
        blocks.append(ramps[j - 1] - ramps[j])
    blocks.append(ramps[jmax - 1])
    return k, np.array(blocks)


@dataclass
class DyadicDecomposition:
    """Frequency blocks of a grid function under the fixed partition."""

    function: GridFunction1D
    blocks: np.ndarray  # (jmax+1, n) complex block samples

    @classmethod
    def of(cls, u: GridFunction1D):
        _, masks = _partition(u.n, u.period)
        hat = np.fft.fft(u.samples)
        blocks = np.fft.ifft(masks * hat[None, :], axis=1)
        return cls(u, blocks)

    def reconstruction_error(self):
        rec = self.blocks.sum(axis=0)
        scale = max(float(np.max(np.abs(self.function.samples))), 1e-300)
        return float(np.max(np.abs(rec - self.function.samples))) / scale

    def block_sup_norms(self):
        return np.max(np.abs(self.blocks), axis=1)

    def block_l2_norms(self):
        # mean-square convention, consistent with Parseval on fft/n
        return np.sqrt(np.mean(np.abs(self.blocks) ** 2, axis=1))


def _spectral_derivative(u: GridFunction1D) -> np.ndarray:
    k = np.fft.fftfreq(u.n, d=1.0 / u.n) * (2.0 * math.pi / u.period)
    return np.fft.ifft(1j * k * np.fft.fft(u.samples))


def zygmund_seminorm_direct(u: GridFunction1D, s: float):
    """Largest midpoint second-difference quotient over dyadic separations."""
    if not (0.0 < s < 2.0):
        raise ValueError("direct estimator supports s in (0, 2) only")
    frac = s if s <= 1.0 else s - 1.0
    v = u.samples if s <= 1.0 else _spectral_derivative(u)
    dx = u.period / u.n
    best = 0.0
    g = 1
    while 2 * g <= u.n // 2:
        second = np.abs(v - 2.0 * np.roll(v, -g) + np.roll(v, -2 * g))
        best = max(best, float(np.max(second)) / (2.0 * g * dx) ** frac)
        g *= 2
    return best


def zygmund_norm_direct(u: GridFunction1D, s: float):
    """Sup-norm terms plus the second-difference seminorm."""
    norm = float(np.max(np.abs(u.samples)))
    if s > 1.0:
        norm += float(np.max(np.abs(_spectral_derivative(u))))
    return norm + zygmund_seminorm_direct(u, s)


def dyadic_besov_norm(u: GridFunction1D, s: float, p=np.inf, q=np.inf):
    """||(2^(js) ||D_j u||_p)_j||_q for p, q in {2, inf}; low block unweighted."""
    if p not in (2, np.inf) or q not in (2, np.inf):
        raise ValueError("supported integrability/summation exponents are 2 and inf")
    dec = DyadicDecomposition.of(u)
    per_block = dec.block_sup_norms() if p == np.inf else dec.block_l2_norms()
    js = np.arange(per_block.size)
    weighted = per_block * np.where(js == 0, 1.0, 2.0 ** (js * s))
    if q == np.inf:
        return float(np.max(weighted))
    return float(np.sqrt(np.sum(weighted**2)))


def sobolev_norm_direct(u: GridFunction1D, s: float):
    """Fourier-multiplier H^s norm (mean-square convention); cross-check path."""
    k = np.fft.fftfreq(u.n, d=1.0 / u.n) * (2.0 * math.pi / u.period)
    hat = np.fft.fft(u.samples) / u.n
    return float(np.sqrt(np.sum((1.0 + k**2) ** s * np.abs(hat) ** 2)))


def norm_equivalence_report(u: GridFunction1D, s: float) -> dict:
    """Direct and dyadic norms of the same function, with their ratio."""
    direct = zygmund_norm_direct(u, s)
    dyadic = dyadic_besov_norm(u, s, np.inf, np.inf)
    ratio = direct / dyadic if dyadic > 0 else math.inf if direct > 0 else 1.0
    return {"direct": direct, "dyadic": dyadic, "ratio": ratio}


def spatial_profile_norm(spatial, s: float, n=1024) -> float:
    """Dyadic Zygmund norm of a sampled spatial profile b(x)."""
    u = GridFunction1D.from_callable(spatial.value, n=n)
    return dyadic_besov_norm(u, s, np.inf, np.inf)
