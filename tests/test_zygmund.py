import math

import numpy as np
import pytest

from hyplab.coefficients import SpatialProfile
from hyplab.weights import fit_loglog_slope
from hyplab.zygmund import (
    DyadicDecomposition,
    GridFunction1D,
    dyadic_besov_norm,
    norm_equivalence_report,
    sobolev_norm_direct,
    spatial_profile_norm,
    zygmund_norm_direct,
    zygmund_seminorm_direct,
)


def lacunary(s0, jmax=10):
    return GridFunction1D.from_callable(
        lambda x: sum(2.0 ** (-j * s0) * np.cos(2.0**j * x) for j in range(jmax + 1)),
        n=4096,
    )


def test_grid_validation():
    with pytest.raises(ValueError):
        GridFunction1D(np.zeros(100))  # not a power of two
    with pytest.raises(ValueError):
        GridFunction1D(np.zeros(32))  # too small
    with pytest.raises(ValueError):
        GridFunction1D(np.full(64, np.nan))


def test_reconstruction():
    u = lacunary(0.7)
    assert DyadicDecomposition.of(u).reconstruction_error() < 1e-9


def test_direct_seminorm_odd_symmetry_and_constant():
    u = GridFunction1D.from_callable(np.sin, n=256)
    v = u.samples
    g = 8
    # centered second difference vanishes where the function is odd about the center
    center = 64  # x = pi/2 is even about sin? no: sin is symmetric; use x=0 odd point
    second = v[(center - g) % 256] - 2 * v[center] + v[(center + g) % 256]
    # about x = 0 (index 0) sin is odd: second difference cancels
    second0 = v[-g] - 2 * v[0] + v[g]
    assert abs(second0) < 1e-12
    c = GridFunction1D(np.full(64, 3.25))
    assert zygmund_seminorm_direct(c, 0.5) == 0.0
    assert zygmund_norm_direct(c, 0.5) == pytest.approx(3.25)


def test_direct_seminorm_cosine_closed_form():
    # for u = cos on period 2*pi, the midpoint quotient at half-separation h
    # equals 2 cos(xbar) (1 - cos h) / (2h)^(s-[s]); at s = 1 the maximum over
    # the grid is attained at the largest dyadic scale
    u = GridFunction1D.from_callable(np.cos, n=1024)
    s = 1.0
    got = zygmund_seminorm_direct(u, s)
    n, dx = 1024, 2 * math.pi / 1024
    best = 0.0
    g = 1
    while 2 * g <= n // 2:
        h = g * dx
        best = max(best, 2.0 * (1.0 - math.cos(h)) / (2.0 * h))
        g *= 2
    assert got == pytest.approx(best, rel=1e-6)


def test_single_block_cosine():
    for j in (3, 5, 7):
        u = GridFunction1D.from_callable(lambda x, j=j: np.cos(2.0**j * x), n=2048)
        s = 0.8
        val = dyadic_besov_norm(u, s)
        assert 0.5 * 2.0 ** (j * s) <= val <= 2.0 * 2.0 ** (j * s)


def test_lacunary_block_slope():
    for s0 in (0.7, 1.2):
        u = lacunary(s0)
        sups = DyadicDecomposition.of(u).block_sup_norms()
        js = np.arange(1, 11)  # blocks carrying the lacunary frequencies
        slope, _ = fit_loglog_slope(2.0**js, sups[js])
        assert slope == pytest.approx(-s0, abs=0.05)


def test_besov_norm_p2_matches_sobolev():
    u = lacunary(0.9)
    s = 0.9
    dyadic = dyadic_besov_norm(u, s, p=2, q=2)
    direct = sobolev_norm_direct(u, s)
    assert 0.25 <= dyadic / direct <= 4.0


def test_besov_rejects_unsupported_exponents():
    u = lacunary(0.7)
    with pytest.raises(ValueError):
        dyadic_besov_norm(u, 0.7, p=1)
    with pytest.raises(ValueError):
        zygmund_seminorm_direct(u, 2.5)


def test_norm_scaling_is_exact():
    u = lacunary(0.7)
    v = GridFunction1D(u.samples * 3.0, u.period)
    for s in (0.5, 1.3):
        assert zygmund_norm_direct(v, s) == pytest.approx(3.0 * zygmund_norm_direct(u, s), rel=1e-12)
        assert dyadic_besov_norm(v, s) == pytest.approx(3.0 * dyadic_besov_norm(u, s), rel=1e-12)


def test_dyadic_monotone_in_s():
    u = lacunary(0.7)
    ss = np.linspace(0.2, 1.8, 9)
    vals = [dyadic_besov_norm(u, s) for s in ss]
    assert np.all(np.diff(vals) >= -1e-12)


def test_norm_equivalence_bracket():
    for s0, s in ((0.7, 0.7), (1.2, 1.2)):
        rep = norm_equivalence_report(lacunary(s0), s)
        assert 1.0 / 16.0 <= rep["ratio"] <= 16.0
    # cosine family: ratio drifts by less than 4x across scales
    ratios = []
    for j in range(3, 9):
        u = GridFunction1D.from_callable(lambda x, j=j: np.cos(2.0**j * x), n=4096)
        ratios.append(norm_equivalence_report(u, 0.9)["ratio"])
    assert max(ratios) / min(ratios) < 4.0
    const = norm_equivalence_report(GridFunction1D(np.full(128, 2.5)), 0.9)
    assert const["ratio"] == pytest.approx(1.0, abs=1e-6)


def test_spatial_profile_norm_stability():
    sp = SpatialProfile(s=1.2, amplitude=0.25)
    at_own_index = [spatial_profile_norm(sp, 1.2, n=n) for n in (1024, 2048)]
    assert abs(at_own_index[1] / at_own_index[0] - 1.0) < 0.10
    above = [spatial_profile_norm(sp, 1.5, n=n) for n in (1024, 2048)]
    assert above[1] / above[0] > 1.15  # membership fails above the true index
    zero = SpatialProfile(s=1.2, amplitude=0.0)
    assert spatial_profile_norm(zero, 1.2) == pytest.approx(0.0, abs=1e-15)
