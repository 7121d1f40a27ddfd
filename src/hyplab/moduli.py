"""Auxiliary functions and the moduli of continuity they induce.

The laboratory measures time-regularity of coefficients against a catalog of
increasing, concave-type auxiliary functions on an interval (0, r0]:

* ``power_law``       f(r) = r**beta,                 beta in (0, 1]
* ``log_reciprocal``  f(r) = (log(1/r))**(-alpha),    alpha > 0
* ``iterated_log``    f(r) = 1 / log(log(...(1/r))),  depth-fold logarithm

A function in the ``eta`` role encodes a modulus of continuity
mu(r) = r / eta(r) that is strictly weaker than Lipschitz; a function in the
``rho`` role measures how far a first derivative is from C^1 (the identity
``power_law`` with beta = 1 is admissible there, but not as an eta).

Values and derivatives up to order three are evaluated by exact chain rule on
jets (f, f', ..., f^(k)), each formed only to the order k asked, so they are
closed-form, not finite differences, and no unread higher-order term can
overflow.
Finite differences of a bisection inverse (``_bisect``, which also finds
where concavity ends) are kept only as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

__all__ = [
    "AuxiliaryFunction",
    "ModulusOfContinuity",
    "AdmissibilityReport",
    "power_law",
    "log_reciprocal",
    "iterated_log",
    "admissibility_check",
    "decay_rate",
    "decay_rate_pair",
    "fd_derivative",
    "log_grid",
    "concave_domain_end",
    "certification_grid",
]

# the catalog's families and the domain end r0 each takes when none is given;
# log_reciprocal's 0.5 keeps log(1/r) positive with margin and the inverse
# range wide enough for unit-scale experiments
DEFAULT_R0 = {"power_law": 1.0, "log_reciprocal": 0.5, "iterated_log": 0.2}
FAMILIES = tuple(DEFAULT_R0)
ROLES = ("eta", "rho")


# ----------------------------------------------------------------------------
# jets: tuples (f, f', ..., f^(k)), k <= 3, propagated by exact chain rule and
# formed only to the order k asked, so a term no caller reads cannot overflow

def _jet_log_recip(r, k):
    # log(1/r) and its first k derivatives
    jet = (-np.log(r),)
    if k >= 1:
        jet += (-1.0 / r,)
    if k >= 2:
        jet += (1.0 / r**2,)
    if k >= 3:
        jet += (-2.0 / r**3,)
    return jet


def _jet_log(j):
    v, *d = j
    jet = (np.log(v),)
    if len(d) >= 1:
        jet += (d[0] / v,)
    if len(d) >= 2:
        jet += (d[1] / v - (d[0] / v) ** 2,)
    if len(d) >= 3:
        jet += (d[2] / v - 3.0 * d[0] * d[1] / v**2 + 2.0 * (d[0] / v) ** 3,)
    return jet


def _jet_pow(j, e):
    v, *d = j
    jet = (v**e,)
    if len(d) >= 1:
        q = e * v ** (e - 1.0)
        jet += (q * d[0],)
    if len(d) >= 2:
        jet += (e * (e - 1.0) * v ** (e - 2.0) * d[0] ** 2 + q * d[1],)
    if len(d) >= 3:
        jet += (
            e * (e - 1.0) * (e - 2.0) * v ** (e - 3.0) * d[0] ** 3
            + 3.0 * e * (e - 1.0) * v ** (e - 2.0) * d[0] * d[1]
            + q * d[2],
        )
    return jet


@dataclass(frozen=True)
class AuxiliaryFunction:
    """One catalog member, pinned to a role and a domain (0, r0].

    ``param`` is the exponent beta for ``power_law``, the power alpha for
    ``log_reciprocal`` and the (integer) log depth for ``iterated_log``.
    ``r0`` left as None is the family's ``DEFAULT_R0``.
    """

    family: str
    param: float
    role: str = "eta"
    r0: Optional[float] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.r0 is None:
            object.__setattr__(self, "r0", DEFAULT_R0[self.family])
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}, expected one of {ROLES}")
        if not (self.r0 > 0.0):
            raise ValueError("r0 must be positive")
        if self.family == "power_law":
            if not (0.0 < self.param <= 1.0):
                raise ValueError("power_law exponent must lie in (0, 1]")
        elif self.family == "log_reciprocal":
            if not (self.param > 0.0):
                raise ValueError("log_reciprocal power must be positive")
            if self.r0 >= 1.0:
                raise ValueError("log_reciprocal needs r0 < 1 so log(1/r) stays positive")
        else:
            depth = int(self.param)
            if depth != self.param or depth < 1:
                raise ValueError("iterated_log depth must be a positive integer")
            if self._iterated_domain_cap(depth) <= self.r0:
                raise ValueError("r0 too large for iterated_log depth (inner log not positive)")
        with np.errstate(over="ignore"):  # a value past the float range is rejected here
            if not (0.0 < self.range_max < math.inf):
                raise ValueError(f"value {self.range_max:g} at r0={self.r0:g} is not a positive float")

    @staticmethod
    def _iterated_domain_cap(depth):
        # largest r with log^[depth](1/r) > 0, i.e. 1/exp^[depth-1](1)
        x = 1.0
        for _ in range(depth - 1):
            x = math.exp(x)
        return 1.0 / x

    # -- evaluation -----------------------------------------------------

    def _check_domain(self, r):
        r = np.asarray(r, dtype=float)
        ok = (r > 0.0) & (r <= self.r0 * (1.0 + 1e-12))
        if not np.all(ok):
            raise ValueError(f"argument {float(r[~ok].flat[0])} outside (0, r0={self.r0}]")
        return r

    def _check_range(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all((t > 0.0) & (t <= self.range_max * (1.0 + 1e-12))):
            raise ValueError(f"target outside the range (0, {self.range_max}]")
        return t

    def _jet(self, r, k=0):
        # unchecked (f, ..., f^(k)) at an array r: the bisection brackets never leave (0, r0]
        if self.family == "power_law":
            j = (r,) if k == 0 else (r, np.ones_like(r)) + (np.zeros_like(r),) * (k - 1)
            return _jet_pow(j, self.param)
        j = _jet_log_recip(r, k)
        if self.family == "log_reciprocal":
            return _jet_pow(j, -self.param)
        for _ in range(int(self.param) - 1):
            j = _jet_log(j)
        return _jet_pow(j, -1.0)

    def value(self, r):
        """Closed-form value; strictly increasing and positive on (0, r0]."""
        out = self._jet(self._check_domain(r))[0]
        return out if out.shape else float(out)

    def derivative(self, r, k=1):
        """k-th derivative, k in {1, 2, 3}, by exact chain rule."""
        if k not in (1, 2, 3):
            raise ValueError("derivative order must be 1, 2 or 3")
        r = self._check_domain(r)
        out = self._jet(r, k)[k]
        return out if out.shape else float(out)

    @cached_property
    def range_max(self):
        """Largest attainable value, value(r0); the inverse lives on (0, range_max]."""
        return float(self.value(self.r0))

    def inverse(self, t):
        """Solve value(r) = t for r in (0, r0].

        Closed forms exist for every catalog member; ``inverse_bisect`` is an
        independent numeric path that the tables use as the cross-check.
        """
        t = self._check_range(t)
        with np.errstate(over="ignore"):  # an exponent past the float range gives r = 0, rejected below
            if self.family == "power_law":
                r = t ** (1.0 / self.param)
            elif self.family == "log_reciprocal":
                r = np.exp(-(t ** (-1.0 / self.param)))
            else:
                x = 1.0 / t
                for _ in range(int(self.param) - 1):
                    x = np.exp(x)
                r = np.exp(-x)
        if np.any(r <= 0.0):
            raise ValueError("inverse underflowed to zero; target too small for this family")
        return r if r.shape else float(r)

    def inverse_bisect(self, t, *more):
        """Solve value(r) = t by ``_bisect`` on [tiny, r0] (tiny the smallest
        normal float) for all targets at once, returning the midpoint of each
        final bracket; an array gives the same numbers as one call per element.
        A root below tiny raises ValueError, as ``inverse`` does on underflow.

        ``more`` holds further (function, targets) requests, solved in the same
        loop; the call then returns a tuple of roots, one per request, this one
        first.  Every request is checked, in order, before the first split, and
        each split evaluates every distinct function once, on its own
        contiguous slice, so the roots are those of one call per request.
        """
        requests = ((self, t),) + more
        tiny = np.finfo(float).tiny
        ts, slots = [], {}  # checked targets; function -> indices of its requests
        for i, (f, t) in enumerate(requests):
            ts.append(f._check_range(t))
            if np.any(f._jet(np.asarray(tiny))[0] >= ts[-1]):
                raise ValueError("root below the smallest normal float; target too small for this family")
            slots.setdefault(f, []).append(i)
        order = [i for idx in slots.values() for i in idx]
        target = np.concatenate([ts[i].ravel() for i in order])
        edges = np.cumsum([0] + [sum(ts[i].size for i in idx) for idx in slots.values()])
        parts = list(zip(slots, edges[:-1], edges[1:]))

        def below(r):
            return np.concatenate([f._jet(r[a:b])[0] < target[a:b] for f, a, b in parts])

        lo, hi = _bisect(below, np.full(target.shape, tiny), np.repeat([f.r0 for f in slots], np.diff(edges)))
        found = dict(zip(order, np.split(0.5 * (lo + hi), np.cumsum([ts[i].size for i in order])[:-1])))
        roots = [found[i].reshape(t.shape) if t.shape else float(found[i][0]) for i, t in enumerate(ts)]
        return tuple(roots) if more else roots[0]


def power_law(beta, role="eta", r0=None):
    return AuxiliaryFunction("power_law", float(beta), role, r0)


def log_reciprocal(alpha, role="eta", r0=None):
    return AuxiliaryFunction("log_reciprocal", float(alpha), role, r0)


def iterated_log(depth, role="eta", r0=None):
    return AuxiliaryFunction("iterated_log", int(depth), role, r0)


@dataclass(frozen=True)
class ModulusOfContinuity:
    """mu(r) = r / eta(r), the modulus induced by an eta-role function."""

    underlying: AuxiliaryFunction

    def __post_init__(self):
        if self.underlying.role != "eta":
            raise ValueError("a modulus of continuity is induced by an eta-role function")

    def value(self, r):
        return np.asarray(r, dtype=float) / self.underlying.value(r)


# ----------------------------------------------------------------------------
# decay rates of the inverse: the scalar building blocks of the local
# oscillation conditions and of the hyperbolic-zone weights

def decay_rate(eta: AuxiliaryFunction, t):
    """-d/dt ( 1 / eta^{-1}(t) ), in closed form.

    With g = eta^{-1}(t) one has g'(t) = 1/eta'(g), hence the rate equals
    1 / (eta'(g) g^2).  Positive and decreasing in t for catalog members.
    """
    g = eta.inverse(t)
    return 1.0 / (eta.derivative(g, 1) * np.asarray(g) ** 2)


def decay_rate_pair(eta: AuxiliaryFunction, rho: AuxiliaryFunction, t):
    """-d/dt ( 1 / rho(eta^{-1}(t)) ) = rho'(g) / (eta'(g) rho(g)^2)."""
    g = eta.inverse(t)
    return rho.derivative(g, 1) / (eta.derivative(g, 1) * np.asarray(rho.value(g)) ** 2)


def fd_derivative(fn, t, rel_step=2e-4):
    """Fourth-order central difference with a relative step; cross-check path.

    ``fn`` must be elementwise: it gets the stencil stacked, shape (4,) + t.shape.
    """
    t = np.asarray(t, dtype=float)
    h = np.maximum(np.abs(t), 1e-12) * rel_step
    f2, f1, b1, b2 = fn(np.stack((t + 2 * h, t + h, t - h, t - 2 * h)))
    return (-f2 + 8.0 * f1 - 8.0 * b1 + b2) / (12.0 * h)


def log_grid(lo, hi, n):
    if not (0.0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    return np.geomspace(lo, hi, int(n))


def _bisect(below, lo, hi):
    """Split brackets [lo, hi] of positive floats, ``below`` true at lo and
    false at hi, at sqrt(lo)*sqrt(hi) (lo*hi underflows near the smallest
    normal float) until no midpoint falls strictly inside: each ends 1-3 ulps
    wide, within 64 splits from that float to 1.  Each moves on its own.
    """
    while True:
        mid = np.sqrt(lo) * np.sqrt(hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            return lo, hi
        up = below(np.where(live, mid, lo))  # a spent bracket's midpoint may round past hi
        lo = np.where(live & up, mid, lo)
        hi = np.where(live & ~up, mid, hi)


def concave_domain_end(f: AuxiliaryFunction) -> float:
    """Largest r up to r0 with the role's concavity clause holding on (0, r].

    The log families are concave only for small r (below exp(-(alpha+1)) for
    a single log); ``_bisect`` locates the boundary on the sign of f'' in
    [r0 * 1e-12, r0], to the last float.  An eta needs f'' < 0 strictly; a
    rho admits f'' = 0 (the identity).
    """
    ok = (lambda r: f._jet(r, 2)[2] < 0.0) if f.role == "eta" else (lambda r: f._jet(r, 2)[2] <= 1e-300)
    hi = f.r0
    if ok(hi):
        return hi
    lo = hi * 1e-12
    if not ok(lo):
        raise ValueError("no concavity region found near 0")
    return float(_bisect(ok, lo, hi)[0])


def certification_grid(f: AuxiliaryFunction):
    """Log-spaced grid of 96 points inside the concave part of the domain."""
    hi = concave_domain_end(f)
    return log_grid(hi * 1e-7, hi * (1.0 - 1e-9), 96)


# ----------------------------------------------------------------------------
# admissibility certification on a finite grid

@dataclass
class ClauseResult:
    passed: bool
    detail: str = ""


@dataclass
class AdmissibilityReport:
    function: AuxiliaryFunction
    clauses: dict
    constants: dict

    @property
    def passed(self):
        return all(c.passed for c in self.clauses.values())

    def summary(self):
        lines = [f"{self.function.family}({self.function.param}) as {self.function.role}:"]
        for name, c in self.clauses.items():
            mark = "ok" if c.passed else "FAIL"
            lines.append(f"  {name:<22} {mark}  {c.detail}")
        for k, v in self.constants.items():
            lines.append(f"  {k:<22} {v:.6g}")
        return "\n".join(lines)


def admissibility_check(f: AuxiliaryFunction, grid) -> AdmissibilityReport:
    """Certify the defining clauses of an auxiliary function on a log grid.

    The grid must hold at least 64 points inside (0, r0].  Certification is
    numerical, clause by clause; each clause's detail names its extreme value.
    Note the catalog's log families are concave only for r below
    exp(-(alpha+1)); certification grids for them should stay under that cap
    even when r0 itself is larger.
    """
    r = np.sort(np.asarray(grid, dtype=float))
    if r.size < 64:
        raise ValueError("admissibility grid needs at least 64 points")
    if r[0] <= 0.0 or r[-1] > f.r0 * (1.0 + 1e-12):
        raise ValueError("admissibility grid must lie inside (0, r0]")

    val, d1, d2, d3 = f._jet(r, 3)

    clauses = {}

    clauses["positive"] = ClauseResult(not np.any(val <= 0.0), f"min value {val.min():.3g}")
    clauses["increasing"] = ClauseResult(not np.any(d1 <= 0.0), f"min f' {d1.min():.3g}")

    # vanishing limit at 0+: values on the decreasing grid head to 0 (log
    # families decay glacially, so only a clear downward trend is required)
    shrink = val[1] > val[0] > 0.0 and val[0] < 0.75 * val[-1]
    clauses["vanishes_at_zero"] = ClauseResult(bool(shrink), f"value at r_min {val[0]:.3g}")

    if f.role == "eta":
        bad = d2 >= 0.0
        detail = f"max f'' {d2.max():.3g} (strict concavity required)"
    else:
        tol = 1e-12 * np.max(np.abs(d2)) if np.max(np.abs(d2)) > 0 else 1e-12
        bad = d2 > tol
        detail = f"max f'' {d2.max():.3g} (non-positive required)"
    clauses["concave"] = ClauseResult(not np.any(bad), detail)

    constants = {}
    for k, dk in ((1, d1), (2, d2), (3, d3)):
        constants[f"C_{k}"] = float(np.max(np.abs(dk) * r ** (k - 1) / d1))

    if f.role == "eta":
        mu = r / val
        diffs = np.diff(mu)
        clauses["modulus_increasing"] = ClauseResult(not np.any(diffs <= 0.0), f"min d(mu) {diffs.min():.3g}")
        ok = mu[0] < mu[1] and mu[0] < 0.5 * mu[-1]
        clauses["modulus_vanishes"] = ClauseResult(bool(ok), f"mu at r_min {mu[0]:.3g}")

    return AdmissibilityReport(f, clauses, constants)
