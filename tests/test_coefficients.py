import math

import numpy as np
import pytest

from hyplab.coefficients import (
    CoefficientSpec,
    Mollifier,
    SpatialProfile,
    mollify,
    oscillation_class,
    verify_reg_bounds,
)
from hyplab.moduli import fd_derivative, log_reciprocal, power_law
from hyplab.weights import fit_loglog_slope, jbracket
from hyplab.zones import ZoneParams

MOL = Mollifier()


def test_value_examples():
    osc = CoefficientSpec("log_power_oscillation", base=2.0, delta=0.5)
    assert osc.value(math.exp(-1)) == pytest.approx(2.0 + 0.5 * math.sin(1.0), rel=1e-12)
    assert CoefficientSpec("constant").value(0.123) == 2.0
    with pytest.raises(ValueError):
        osc.value(0.0)


def test_uniform_ellipticity():
    for spec in (
        CoefficientSpec("log_power_oscillation", delta=0.9, gamma_osc=1.5),
        CoefficientSpec("holder_rough", delta=0.9, alpha=0.3),
    ):
        ts = np.geomspace(1e-6, 0.99, 4001)
        vals = spec.value(ts)
        assert np.all(vals >= spec.base - spec.delta - 1e-9)
        assert np.all(vals <= spec.base + spec.delta + 1e-9)


def test_invalid_specs():
    with pytest.raises(ValueError):
        CoefficientSpec("log_power_oscillation", base=2.0, delta=1.0)  # delta >= base/2
    with pytest.raises(ValueError):
        CoefficientSpec("unknown")
    with pytest.raises(ValueError):
        CoefficientSpec("holder_rough", alpha=1.0)
    with pytest.raises(ValueError):
        SpatialProfile(amplitude=0.6)


def test_oscillation_classes():
    assert oscillation_class(0.0) == "very_slow"
    assert oscillation_class(0.5) == "slow"
    assert oscillation_class(1.0) == "fast"
    assert oscillation_class(1.5) == "very_fast"
    with pytest.raises(ValueError):
        oscillation_class(-0.1)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.5])
def test_log_power_derivative_saturates_growth(gamma):
    spec = CoefficientSpec("log_power_oscillation", delta=0.5, gamma_osc=gamma)
    ts = np.geomspace(1e-5, 0.4, 4001)
    d1 = np.abs(spec.time_derivative(ts, 1))
    envelope = (np.log(1.0 / ts)) ** gamma / ts
    measured = np.max(d1 / envelope)
    assert measured <= 0.5 * (1.0 + gamma) + 1e-9
    assert measured == pytest.approx(0.5 * (1.0 + gamma), rel=0.02)
    # second derivative stays below the squared envelope
    d2 = np.abs(spec.time_derivative(ts, 2))
    assert np.isfinite(np.max(d2 / envelope**2))
    assert np.max(d2 / envelope**2) < 10.0


@pytest.mark.parametrize(
    "spec",
    [
        CoefficientSpec("constant"),
        CoefficientSpec("holder_rough", delta=0.5, alpha=0.5),
        CoefficientSpec("log_power_oscillation", delta=0.5, gamma_osc=0.0),
        CoefficientSpec("log_power_oscillation", delta=0.5, gamma_osc=1.5),
    ],
    ids=["constant", "holder_rough", "log_power_g0", "log_power_g1.5"],
)
def test_rate_bound_nonincreasing_envelope(spec):
    # the integrator reads the envelope only at each sample interval's start
    ts = np.geomspace(1e-6, 2.0, 2001)
    r = spec.rate_bound(ts)
    assert r.shape == ts.shape and np.all(r >= 0.0)
    assert np.all(np.diff(r) <= 0.0)
    # and it bounds |a'| wherever the profile is not frozen
    live = ts < 1.0 - 1e-9 if spec.gamma_osc > 0.0 else ts > 0.0
    assert np.all(np.abs(spec.time_derivative(ts[live], 1)) <= r[live] * (1.0 + 1e-12))


@pytest.mark.parametrize(
    "spec",
    [
        CoefficientSpec("constant"),
        CoefficientSpec("holder_rough", delta=0.5, alpha=0.5),
        CoefficientSpec("log_power_oscillation", delta=0.5, gamma_osc=0.0),
        CoefficientSpec("log_power_oscillation", delta=0.5, gamma_osc=0.5),
        CoefficientSpec("log_power_oscillation", delta=0.5, gamma_osc=1.5),
    ],
    ids=["constant", "holder_rough", "log_power_g0", "log_power_g0.5", "log_power_g1.5"],
)
def test_second_rate_bound_envelope(spec):
    # the frame's node bound reads |a''| through this envelope
    ts = np.geomspace(1e-6, 2.0, 2001)
    r2 = spec.rate_bound(ts, 2)
    assert r2.shape == ts.shape and np.all(np.isfinite(r2)) and np.all(r2 >= 0.0)
    live = ts < 1.0 - 1e-9 if spec.gamma_osc > 0.0 else ts > 0.0
    assert np.all(np.abs(spec.time_derivative(ts[live], 2)) <= r2[live] * (1.0 + 1e-12))
    if spec.gamma_osc > 0.0:
        assert np.all(r2[ts >= 1.0] == 0.0)  # frozen there
    with pytest.raises(ValueError):
        spec.rate_bound(ts, 3)


@pytest.mark.parametrize("profile,kw", [
    ("log_power_oscillation", dict(delta=0.5, gamma_osc=0.7)),
    # depth reduced so the finite-difference step resolves the top lacunary scale
    ("holder_rough", dict(delta=0.5, alpha=0.5, depth=10)),
])
def test_closed_form_derivatives_match_fd(profile, kw):
    spec = CoefficientSpec(profile, **kw)
    ts = np.linspace(0.21, 0.5, 7)
    fd1 = fd_derivative(lambda s: spec.value(s), ts, rel_step=1e-5)
    assert np.max(np.abs(fd1 / spec.time_derivative(ts, 1) - 1.0)) < 1e-5
    fd2 = fd_derivative(lambda s: spec.time_derivative(s, 1), ts, rel_step=1e-5)
    assert np.max(np.abs(fd2 / spec.time_derivative(ts, 2) - 1.0)) < 1e-4


def test_mollifier_mass_and_shape():
    y, w0, w1, w2 = MOL._grids()
    assert abs(w0.sum() - 1.0) < 1e-14
    assert abs(w1.sum()) < 1e-15 and abs(w2.sum()) < 1e-15
    psi = MOL.profile(np.linspace(-1.2, 1.2, 481))
    assert np.all(psi >= 0.0) and np.all(psi <= 1.0)
    assert MOL.profile(1.0) == 0.0 and MOL.profile(-1.05) == 0.0
    with pytest.raises(ValueError):
        Mollifier(nodes=32)


def test_mollify_constant_exact():
    spec = CoefficientSpec("constant", base=2.0)
    for eps in (0.3, 1e-3):
        assert mollify(spec, MOL, eps, 0.17)[0] == pytest.approx(2.0, abs=1e-12)
        assert mollify(spec, MOL, eps, 0.0)[0] == pytest.approx(2.0, abs=1e-12)


def test_mollify_kills_linear_moment():
    # an even mollifier reproduces linear functions away from the window ends
    class Linear(CoefficientSpec):
        def _time_value(self, t):
            return np.asarray(t, dtype=float) + 1.0

    spec = Linear("constant", base=1.0)
    got = mollify(spec, MOL, 0.05, np.array([0.3, 0.5]))[0]
    assert np.max(np.abs(got - np.array([1.3, 1.5]))) < 1e-8


@pytest.mark.parametrize("alpha, x", [(0.3, None), (0.5, None), (0.9, None), (0.5, 0.7)])
def test_mollify_lacunary_closed_form_matches_window(alpha, x):
    # the closed-form window sums reproduce the midpoint rule on both sides of
    # t = eps, and the rows whose window reaches the t = 0 freeze keep it
    spatial = SpatialProfile() if x is not None else None
    spec = CoefficientSpec("holder_rough", delta=0.5, alpha=alpha, spatial=spatial)
    y, *weights = MOL._grids()
    for eps in (0.1, 1e-3, 1e-5):
        t = np.concatenate([np.linspace(0.0, 3.0 * eps, 31), np.geomspace(eps, 0.9, 41)])
        vals = spec.extended_time_value(t[:, None] - eps * y)
        want = np.stack([vals @ w / eps**k for k, w in enumerate(weights)]) * spec._spatial_factor(x)
        got = mollify(spec, MOL, eps, t, x=x)
        sup = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-9 * sup), (alpha, eps)


def test_mollify_bounded_by_sup():
    spec = CoefficientSpec("log_power_oscillation", delta=0.9, gamma_osc=1.0)
    ts = np.linspace(0.0, 0.5, 101)
    vals = mollify(spec, MOL, 0.02, ts)[0]
    assert np.max(np.abs(vals)) <= spec.sup_abs + 1e-12


def test_mollify_converges_pointwise():
    spec = CoefficientSpec("holder_rough", delta=0.5, alpha=0.5)
    t = 0.31
    errs = [abs(mollify(spec, MOL, eps, t)[0] - spec.value(t)) for eps in (0.1, 0.02, 0.004)]
    assert errs[0] > errs[1] > errs[2]


def test_mollify_loglip_rate_constant_is_finite():
    spec = CoefficientSpec("log_power_oscillation", delta=0.5, gamma_osc=0.0)
    eta = log_reciprocal(1.0)
    cs = []
    for eps in (0.01, 0.003, 0.001):
        ts = np.geomspace(2 * eps, 0.5, 33)
        jet = mollify(spec, MOL, eps, ts)
        err = np.max(np.abs(jet[0] - spec.value(ts)))
        cs.append(err / (eps / eta.value(eps)))
        # rows 1 and 2 of the jet are the time derivatives of row 0
        h = eps / 256.0
        lo, hi = mollify(spec, MOL, eps, ts - h)[0], mollify(spec, MOL, eps, ts + h)[0]
        fd1 = (hi - lo) / (2.0 * h)
        fd2 = (hi - 2.0 * jet[0] + lo) / h**2
        assert np.max(np.abs(fd1 - jet[1])) < 1e-4 * np.max(np.abs(jet[1]))
        assert np.max(np.abs(fd2 - jet[2])) < 1e-4 * np.max(np.abs(jet[2]))
    assert np.all(np.isfinite(cs))


def test_mollified_derivative_rates_holder():
    # |a_eps - a| ~ eps^alpha and |d_t a_eps| ~ eps^(alpha-1) for the rough family
    alpha = 0.5
    spec = CoefficientSpec("holder_rough", delta=0.5, alpha=alpha)
    eps_grid = 1.0 / jbracket(np.geomspace(2**6, 2**12, 13))
    ts = np.linspace(0.05, 0.45, 41)
    sup_diff, sup_d1 = [], []
    for eps in eps_grid:
        a_eps, d1_eps, _ = mollify(spec, MOL, eps, ts)
        sup_diff.append(np.max(np.abs(a_eps - spec.value(ts))))
        sup_d1.append(np.max(np.abs(d1_eps)))
    s_diff, _ = fit_loglog_slope(eps_grid, sup_diff)
    s_d1, _ = fit_loglog_slope(eps_grid, sup_d1)
    assert s_diff == pytest.approx(alpha, abs=0.1)
    assert s_d1 == pytest.approx(alpha - 1.0, abs=0.1)


def test_verify_reg_bounds_constant_spec_all_zero_diffs():
    spec = CoefficientSpec("constant")
    eta = log_reciprocal(1.0)
    rho = power_law(1.0, role="rho")
    zp = ZoneParams(N=2.0, M=2.0, T=0.5)
    rep = verify_reg_bounds(spec, eta, rho, zp, np.geomspace(4, 64, 7), np.geomspace(0.01, 0.5, 9))
    for name in ("ii", "iii", "iv", "v", "vi"):
        assert rep.clauses[name].max_ratio == pytest.approx(0.0, abs=1e-12)
    assert rep.clauses["i"].max_ratio == pytest.approx(2.0, rel=1e-9)


def test_verify_reg_bounds_matched_holder_clause_ii_stable():
    spec = CoefficientSpec("holder_rough", delta=0.5, alpha=0.5)
    eta = power_law(0.5)
    rho = power_law(1.0, role="rho")
    zp = ZoneParams(N=2.0, M=4.0, T=0.5)
    xi = np.geomspace(2**5, 2**12, 15)
    rep = verify_reg_bounds(spec, eta, rho, zp, xi, np.geomspace(0.02, 0.5, 17))
    c2 = rep.clauses["ii"]
    assert np.isfinite(c2.max_ratio) and c2.max_ratio > 0
    top = c2.ratio_by_xi[xi >= xi[-1] / 10.0]
    assert np.max(top) / np.min(top) < 2.0


def test_verify_reg_bounds_loglip_oscillation_clause_iv_bounded():
    spec = CoefficientSpec("log_power_oscillation", delta=0.5, gamma_osc=0.0)
    eta = log_reciprocal(1.0)
    rho = power_law(1.0, role="rho")
    zp = ZoneParams(N=2.0, M=2.0, T=0.5)
    xi = np.geomspace(4, 2**12, 13)
    rep = verify_reg_bounds(spec, eta, rho, zp, xi, np.geomspace(0.02, 0.5, 17))
    c4 = rep.clauses["iv"]
    assert np.isfinite(c4.max_ratio)
    assert c4.top_decade_growth < 2.0


def test_spatial_profile_factor():
    sp = SpatialProfile(s=1.2, amplitude=0.25)
    xs = np.linspace(0, 2 * np.pi, 257)
    assert np.max(np.abs(sp.value(xs))) <= 0.25 + 1e-12
    spec = CoefficientSpec("constant", spatial=sp)
    assert spec.value(0.1, x=0.0) == pytest.approx(2.0 * (1.0 + sp.value(0.0)), rel=1e-12)
    assert spec.value(0.1) == 2.0  # no x given: time part only
