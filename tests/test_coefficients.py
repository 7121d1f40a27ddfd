import math

import numpy as np
import pytest

from hyplab import coefficients
from hyplab.coefficients import (
    MOLLIFIER_NODES,
    CoefficientSpec,
    SpatialProfile,
    _mollifier_grids,
    mollify,
    oscillation_class,
    verify_reg_bounds,
)
from hyplab.moduli import fd_derivative, log_reciprocal, power_law
from hyplab.weights import _top_decade_fit, fit_loglog_slope, jbracket
from hyplab.zones import ZoneParams


def test_value_examples():
    osc = CoefficientSpec("log_power_oscillation", base=2.0, delta=0.5)
    assert osc.value(math.exp(-1)) == pytest.approx(2.0 + 0.5 * math.sin(1.0), rel=1e-12)
    assert CoefficientSpec("constant").value(0.123) == 2.0
    with pytest.raises(ValueError):
        osc.value(0.0)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.5])
def test_log_power_phase_is_the_signed_power_bit_for_bit(gamma):
    # the phase skips sign, abs and the power where they change nothing:
    # at gamma = 0 on both sides of t = 1, and where gamma > 0 (then t < 1)
    spec = CoefficientSpec("log_power_oscillation", base=2.0, delta=0.5, gamma_osc=gamma)
    t = np.geomspace(1e-12, 0.999, 4001)
    if gamma == 0.0:
        t = np.concatenate((t, [1.0], np.geomspace(1.001, 1e6, 500)))
    logs = np.log(1.0 / t)
    old = spec.base + spec.delta * np.sin(np.sign(logs) * np.abs(logs) ** (1.0 + gamma))
    assert np.array_equal(spec.value(t), old)


def test_time_derivative_past_the_log_power_end_raises_like_value():
    spec = CoefficientSpec("log_power_oscillation", delta=0.5, gamma_osc=0.5)
    for t in (1.0, 1.5):
        for call in (spec.value, spec.time_derivative, lambda t: spec.time_derivative(t, 2)):
            with pytest.raises(ValueError, match="needs t < 1"):
                call(t)


def test_time_jet_rows_do_not_depend_on_the_order_asked():
    # seeded draws over the three profiles: the jet to order k is the first
    # k + 1 rows of the order-2 jet, and its value row is the profile's closed
    # form, bit for bit
    rng = np.random.default_rng(20240523)
    for _ in range(30):
        profile = rng.choice(coefficients.PROFILES)
        base = rng.uniform(0.5, 4.0)
        spec = CoefficientSpec(
            profile,
            base=base,
            delta=rng.uniform(0.0, 0.5 * base),
            gamma_osc=rng.choice([0.0, rng.uniform(0.0, 2.0)]),
            alpha=rng.uniform(0.05, 0.95),
            depth=int(rng.integers(1, 19)),
        )
        t = 10.0 ** rng.uniform(-12.0, np.log10(min(spec.t_end, 10.0)) - 1e-3, 200)
        full = spec._time_jet(t, 2)
        for k in range(3):
            jet = spec._time_jet(t, k)
            assert len(jet) == k + 1 and all(a.tobytes() == b.tobytes() for a, b in zip(jet, full)), (spec, k)
        if profile == "constant":
            want = np.full_like(t, spec.base)
        elif profile == "log_power_oscillation":
            logs = np.log(1.0 / t)
            want = spec.base + spec.delta * np.sin(logs ** (1.0 + spec.gamma_osc) if spec.gamma_osc > 0.0 else logs)
        else:
            freqs, amps = spec._term.modes()
            acc = np.zeros_like(t)
            for w, c in zip(freqs, amps):
                acc += c * np.cos(w * t)
            want = spec.base + spec.delta * acc / np.sum(amps)
        assert spec.value(t).tobytes() == want.tobytes(), spec


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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(base=np.inf), "base must be positive and finite, got inf"),
        (dict(base=np.nan), "base must be positive and finite, got nan"),
        (dict(gamma_osc=np.nan), "gamma_osc must be nonnegative and finite, got nan"),
        (dict(gamma_osc=np.inf), "gamma_osc must be nonnegative and finite, got inf"),
        (dict(gamma_osc=-0.5), "gamma_osc must be nonnegative and finite, got -0.5"),
        (dict(depth=-1), "depth must be a nonnegative integer, got -1"),
        (dict(depth=2.5), "depth must be a nonnegative integer, got 2.5"),
        (dict(depth=1100), "depth must be at most 1023, where 2\\^depth overflows, got 1100"),
    ],
    ids=[
        "base_inf", "base_nan", "gamma_nan", "gamma_inf", "gamma_negative", "depth_negative", "depth_fractional", "depth_overflow"
    ],
)
def test_coefficient_spec_rejects_bad_fields(kwargs, message):
    # a library caller gets a ValueError naming the field, not a LinAlgError, NaN values or a resized sum
    profile = "holder_rough" if "depth" in kwargs else "log_power_oscillation"
    with pytest.raises(ValueError, match=message):
        CoefficientSpec(profile, **kwargs)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CoefficientSpec("constant").time_derivative(0.1, 3), "derivative order must be 1 or 2"),
        (
            lambda: verify_reg_bounds(
                CoefficientSpec("constant"), log_reciprocal(1.0), power_law(1.0, role="rho"),
                ZoneParams(N=2.0, M=2.0, T=0.5), np.geomspace(4, 64, 7), np.array([0.0, 0.25]),
            ),
            r"t grid must lie in \(0, T\]",
        ),
    ],
    ids=["derivative_order_3", "reg_bounds_t_at_zero"],
)
def test_coefficient_input_checks_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
    y, w0, w1, w2 = _mollifier_grids()
    assert y.size == MOLLIFIER_NODES
    assert np.all(w0 > 0.0) and np.array_equal(w0, w0[::-1])  # even bump, positive inside its support
    assert abs(w0.sum() - 1.0) < 1e-14
    assert abs(w1.sum()) < 1e-15 and abs(w2.sum()) < 1e-15


def test_mollify_constant_exact():
    spec = CoefficientSpec("constant", base=2.0)
    for eps in (0.3, 1e-3):
        assert mollify(spec, eps, 0.17)[0] == pytest.approx(2.0, abs=1e-12)
        assert mollify(spec, eps, 0.0)[0] == pytest.approx(2.0, abs=1e-12)


def test_mollify_kills_linear_moment():
    # an even mollifier reproduces linear functions away from the window ends
    class Linear(CoefficientSpec):
        def _time_jet(self, t, k=0):
            v = np.asarray(t, dtype=float) + 1.0
            return (v,) + (np.zeros_like(v),) * k

    spec = Linear("constant", base=1.0)
    got = mollify(spec, 0.05, np.array([0.3, 0.5]))[0]
    assert np.max(np.abs(got - np.array([1.3, 1.5]))) < 1e-8


@pytest.mark.parametrize(
    "alpha, spatial", [(0.3, None), (0.5, None), (0.9, None), pytest.param(0.5, SpatialProfile(), id="0.5-spatial")]
)
def test_mollify_lacunary_closed_form_matches_window(alpha, spatial):
    # the closed-form window sums reproduce the midpoint rule on both sides of
    # t = eps, and the rows whose window reaches the t = 0 freeze keep it; a
    # spatial factor does not enter the time mollification
    spec = CoefficientSpec("holder_rough", delta=0.5, alpha=alpha, spatial=spatial)
    y, *weights = _mollifier_grids()
    for eps in (0.1, 1e-3, 1e-5):
        t = np.concatenate([np.linspace(0.0, 3.0 * eps, 31), np.geomspace(eps, 0.9, 41)])
        vals = spec.extended_time_value(t[:, None] - eps * y)
        want = np.stack([vals @ w / eps**k for k, w in enumerate(weights)])
        got = mollify(spec, eps, t)
        sup = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-9 * sup), (alpha, eps)


def test_mollify_bounded_by_sup():
    spec = CoefficientSpec("log_power_oscillation", delta=0.9, gamma_osc=1.0)
    ts = np.linspace(0.0, 0.5, 101)
    vals = mollify(spec, 0.02, ts)[0]
    assert np.max(np.abs(vals)) <= spec.sup_abs + 1e-12


def test_mollify_converges_pointwise():
    spec = CoefficientSpec("holder_rough", delta=0.5, alpha=0.5)
    t = 0.31
    errs = [abs(mollify(spec, eps, t)[0] - spec.value(t)) for eps in (0.1, 0.02, 0.004)]
    assert errs[0] > errs[1] > errs[2]


def test_mollify_loglip_rate_constant_is_finite():
    spec = CoefficientSpec("log_power_oscillation", delta=0.5, gamma_osc=0.0)
    eta = log_reciprocal(1.0)
    cs = []
    for eps in (0.01, 0.003, 0.001):
        ts = np.geomspace(2 * eps, 0.5, 33)
        jet = mollify(spec, eps, ts)
        err = np.max(np.abs(jet[0] - spec.value(ts)))
        cs.append(err / (eps / eta.value(eps)))
        # rows 1 and 2 of the jet are the time derivatives of row 0
        h = eps / 256.0
        lo, hi = mollify(spec, eps, ts - h)[0], mollify(spec, eps, ts + h)[0]
        fd1 = (hi - lo) / (2.0 * h)
        fd2 = (hi - 2.0 * jet[0] + lo) / h**2
        assert np.max(np.abs(fd1 - jet[1])) < 1e-4 * np.max(np.abs(jet[1]))
        assert np.max(np.abs(fd2 - jet[2])) < 1e-4 * np.max(np.abs(jet[2]))
    assert np.all(np.isfinite(cs))


def test_mollify_rate_rows_holder():
    # |a_eps - a| ~ eps^alpha and |d_t a_eps| ~ eps^(alpha-1) for the rough family
    alpha = 0.5
    spec = CoefficientSpec("holder_rough", delta=0.5, alpha=alpha)
    eps_grid = 1.0 / jbracket(np.geomspace(2**6, 2**12, 13))
    ts = np.linspace(0.05, 0.45, 41)
    sup_diff, sup_d1 = [], []
    for eps in eps_grid:
        a_eps, d1_eps, _ = mollify(spec, eps, ts)
        sup_diff.append(np.max(np.abs(a_eps - spec.value(ts))))
        sup_d1.append(np.max(np.abs(d1_eps)))
    s_diff, _ = fit_loglog_slope(eps_grid, sup_diff)
    s_d1, _ = fit_loglog_slope(eps_grid, sup_d1)
    assert s_diff == pytest.approx(alpha, abs=0.1)
    assert s_d1 == pytest.approx(alpha - 1.0, abs=0.1)


# times reaching below the t = 0 freeze (window rule) and above it (closed
# form for holder_rough; the Chebyshev interpolant for the log-power case
# where its window is analytic with margin, see
# test_batch_log_power_windows_take_both_paths), at widths from 1/<16> to
# 1/<4096>
BATCH_SPECS = [
    CoefficientSpec("holder_rough", delta=0.5, alpha=0.5),
    CoefficientSpec("log_power_oscillation", delta=0.5, gamma_osc=1.5),
    CoefficientSpec("holder_rough", delta=0.5, alpha=0.3, spatial=SpatialProfile()),
]
BATCH_EPS = 1.0 / jbracket(np.geomspace(16, 4096, 7))
BATCH_T = np.concatenate([np.linspace(0.0, 0.05, 41), np.geomspace(0.05, 0.9, 40)])


def _assert_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want), np.max(np.abs(got - want) / np.abs(want))


@pytest.mark.parametrize("spec", BATCH_SPECS, ids=["holder", "log_power", "holder_spatial"])
def test_mollify_widths_per_row_match_one_call_per_width(spec):
    want = np.stack([mollify(spec, eps, BATCH_T) for eps in BATCH_EPS], axis=1)
    _assert_equal(mollify(spec, BATCH_EPS[:, None], BATCH_T), want)
    # widths along the other axis, and one width per time
    _assert_equal(mollify(spec, BATCH_EPS, BATCH_T[:, None]), want.transpose(0, 2, 1))
    eps_flat = np.repeat(BATCH_EPS, BATCH_T.size)
    _assert_equal(mollify(spec, eps_flat, np.tile(BATCH_T, BATCH_EPS.size)), want.reshape(3, -1))


@pytest.mark.parametrize("spec", BATCH_SPECS, ids=["holder", "log_power", "holder_spatial"])
def test_mollify_does_not_depend_on_the_block_size(monkeypatch, spec):
    # at 600 points a block holds 2 windows of 256 nodes and 15 rows of
    # cosines and sines, so every width's times split across blocks
    ref = mollify(spec, BATCH_EPS[:, None], BATCH_T)
    monkeypatch.setattr(coefficients, "BLOCK", 600)
    _assert_equal(mollify(spec, BATCH_EPS[:, None], BATCH_T), ref)


@pytest.mark.parametrize("spec", BATCH_SPECS, ids=["holder", "log_power", "holder_spatial"])
def test_mollify_shuffled_pairs_permute_the_jet(spec):
    # the flattened (eps, t) pairs in a seeded random order, so that every
    # block mixes widths and times
    eps, t = (a.ravel() for a in np.broadcast_arrays(BATCH_EPS[:, None], BATCH_T))
    perm = np.random.default_rng(27).permutation(t.size)
    _assert_equal(mollify(spec, eps[perm], t[perm]), mollify(spec, eps, t)[:, perm])


def test_batch_log_power_windows_take_both_paths():
    # the call-mate tests above cover the interpolant and the midpoint rule
    # together only while the log-power case has windows on both
    eps, t = (a.ravel() for a in np.broadcast_arrays(BATCH_EPS[:, None], BATCH_T))
    analytic = BATCH_SPECS[1]._term.windows(eps, t)
    assert 0 < np.count_nonzero(analytic) < t.size


def test_mollify_of_no_times_is_empty():
    spec = CoefficientSpec("holder_rough", delta=0.5)
    assert mollify(spec, 0.01, t=np.array([])).shape == (3, 0)
    assert mollify(spec, np.array([]), t=0.1).shape == (3, 0)


def test_mollify_lacunary_closed_form_matches_window_at_random_pairs():
    # seeded draws of alpha and of (eps, t) pairs of mixed widths in one
    # call, all with windows above the t = 0 freeze, against the direct
    # midpoint rule on each window
    rng = np.random.default_rng(20261019)
    y, *weights = _mollifier_grids()
    for _ in range(8):
        spec = CoefficientSpec("holder_rough", delta=0.5, alpha=rng.uniform(0.05, 0.95))
        eps = 10.0 ** rng.uniform(-5.0, -1.0, 200)
        t = eps + 10.0 ** rng.uniform(np.log10(eps), 0.0)
        got = mollify(spec, eps, t=t)
        vals = spec.extended_time_value(t[:, None] - eps[:, None] * y)
        want = np.stack([vals @ w / eps**k for k, w in enumerate(weights)])
        sup = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-9 * sup), spec.alpha


def test_mollify_log_power_interpolant_within_the_rules_roundoff(monkeypatch):
    # seeded windows on which the interpolant stands in for the coefficient,
    # against the midpoint rule itself (interpolant off): every jet row
    # within the rule's summation bound n u sum|w_k| sup|a| over eps^k, with
    # the t rate_bound(t - eps) term for the rounding of its node times
    # t - eps y (at gamma = 3 and eps/t < 1e-3 that rounding alone exceeds
    # the sup|a| term)
    rng = np.random.default_rng(20261020)
    _, *weights = _mollifier_grids()
    w_abs = np.array([np.abs(w).sum() for w in weights])[:, None]
    windows = 0
    for gamma in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
        spec = CoefficientSpec("log_power_oscillation", delta=0.5, gamma_osc=gamma)
        t = 10.0 ** rng.uniform(-10.0, 0.0, 20000)
        eps = t * 10.0 ** rng.uniform(-8.0, np.log10(coefficients.ANALYTIC_RATIO), t.size)
        # and windows reaching up to 1e-6 (1 - t) short of s = 1, where only
        # the limit eps <= (1 - t)/4 keeps them off the interpolant if gamma > 0
        near = 10.0 ** rng.uniform(-3.0, -0.3, 5000)
        t, eps = np.append(t, 1.0 - near), np.append(eps, near * (1.0 - 10.0 ** rng.uniform(-6.0, 0.0, near.size)))
        keep = spec._term.windows(eps, t)
        t, eps = t[keep], eps[keep]
        windows += t.size
        got = mollify(spec, eps, t)
        with monkeypatch.context() as m:
            m.setattr(coefficients, "ANALYTIC_RATIO", 0.0)
            want = mollify(spec, eps, t)
        scale = spec.sup_abs + t * spec.rate_bound(t - eps)
        bound = MOLLIFIER_NODES * np.finfo(float).eps * w_abs * scale / eps ** np.arange(3)[:, None]
        assert np.all(np.abs(got - want) <= bound), gamma
    assert windows >= 10**5


@pytest.mark.parametrize("gamma", [0.5, 1.5])
def test_verify_reg_bounds_same_with_interpolant_off(monkeypatch, gamma):
    # every shipped config has gamma = 0; loglip's grids with a faster phase
    spec = CoefficientSpec("log_power_oscillation", delta=0.5, gamma_osc=gamma)
    xi, ts = np.geomspace(4, 4096, 25), np.geomspace(0.01, 0.5, 48)
    assert np.any(spec._term.windows(*(a.ravel() for a in np.broadcast_arrays(1.0 / jbracket(xi)[:, None], ts))))
    args = (spec, log_reciprocal(1.0), power_law(1.0, role="rho"), ZoneParams(N=2.0, M=2.0, T=0.5), xi, ts, 48)
    on = verify_reg_bounds(*args)
    monkeypatch.setattr(coefficients, "ANALYTIC_RATIO", 0.0)
    off = verify_reg_bounds(*args)
    for name, c in off.items():
        # iii and vi peak at the top frequency, where a_eps - a and
        # d_t^2 a_eps are ~1e-8 of the rule's sums: the rule's own rounding
        # (about 4e-16 there) then reads ~5e-8 of them
        rel = 1e-6 if name in ("iii", "vi") else 1e-9
        got = on[name]
        assert (got.argmax_t, got.argmax_xi) == (c.argmax_t, c.argmax_xi), name
        assert got.max_ratio == pytest.approx(c.max_ratio, rel=rel), name
        assert got.top_decade_growth == pytest.approx(c.top_decade_growth, rel=rel), name


def test_mollify_rejects_a_nonpositive_width():
    spec = CoefficientSpec("holder_rough", delta=0.5)
    with pytest.raises(ValueError, match="width must be positive"):
        mollify(spec, np.array([0.01, 0.0]), np.array([0.1, 0.2]))


def test_mollify_names_a_width_whose_square_underflows():
    # the d_t^2 row divides by eps^2, which is 0 at eps = 1e-300; a width
    # whose square is subnormal still mollifies
    spec = CoefficientSpec("log_power_oscillation", delta=0.5)
    with pytest.raises(ValueError, match="1e-300"):
        mollify(spec, 1e-300, 0.1)
    assert np.all(np.isfinite(mollify(spec, 1e-160, 0.1)))


@pytest.mark.parametrize(
    "spec, eta, M",
    [
        (CoefficientSpec("holder_rough", delta=0.5, alpha=0.5), power_law(0.5), 4.0),
        (CoefficientSpec("log_power_oscillation", delta=0.5, gamma_osc=0.0), log_reciprocal(1.0), 2.0),
    ],
    ids=["holder", "log_power"],
)
def test_verify_reg_bounds_frequency_does_not_depend_on_its_grid_mates(spec, eta, M):
    rho = power_law(1.0, role="rho")
    zp = ZoneParams(N=2.0, M=M, T=0.5)
    xi = np.geomspace(M, 4096, 19)
    ts = np.geomspace(0.02, 0.5, 17)
    full = verify_reg_bounds(spec, eta, rho, zp, xi, ts)
    # every fourth frequency, plus each clause's peak frequency
    peaks = {int(np.flatnonzero(xi == c.argmax_xi)[0]) for c in full.values()}
    keep = sorted(set(range(0, xi.size, 4)) | peaks)
    part = verify_reg_bounds(spec, eta, rho, zp, xi[keep], ts)
    for name, c in full.items():
        got, want = part[name].ratio_by_xi, c.ratio_by_xi[keep]
        measured = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), measured), name
        assert np.array_equal(got[measured], want[measured]), name
        p = part[name]
        assert (p.max_ratio, p.argmax_t, p.argmax_xi) == (c.max_ratio, c.argmax_t, c.argmax_xi), name
    # the hyperbolic zone dies below some frequency; those clauses are not measured there
    assert np.isnan(full["iii"].ratio_by_xi[0]) and np.isfinite(full["iii"].ratio_by_xi[-1])


def test_verify_reg_bounds_ties_go_to_the_earliest_frequency_and_time():
    # a constant meets every difference bound with zero: each clause peaks
    # at its first measured frequency, at that frequency's first time
    eta = log_reciprocal(1.0)
    rho = power_law(1.0, role="rho")
    zp = ZoneParams(N=2.0, M=2.0, T=0.5)
    xi, ts = np.geomspace(4, 4096, 10), np.geomspace(0.01, 0.5, 9)
    rep = verify_reg_bounds(CoefficientSpec("constant"), eta, rho, zp, xi, ts)
    for name in ("ii", "iv"):
        assert (rep[name].argmax_t, rep[name].argmax_xi) == (ts[0], xi[0])
    for name in ("iii", "v", "vi"):
        c = rep[name]
        first = int(np.flatnonzero(np.isfinite(c.ratio_by_xi))[0])
        assert c.max_ratio == 0.0 and c.argmax_xi == xi[first] and c.argmax_t > ts[0]


def test_verify_reg_bounds_growth_needs_three_measured_points():
    spec = CoefficientSpec("holder_rough", delta=0.5, alpha=0.5)
    eta = power_law(0.5)
    rho = power_law(1.0, role="rho")
    zp = ZoneParams(N=2.0, M=4.0, T=0.5)
    ts = np.geomspace(0.02, 0.5, 17)
    sparse = np.array([64.0, 512.0, 4096.0])  # two points in the top decade
    rep = verify_reg_bounds(spec, eta, rho, zp, sparse, ts)
    assert all(np.isnan(c.top_decade_growth) for c in rep.values())
    assert np.isfinite(rep["ii"].max_ratio)
    # the clauses carry the fit's own reason
    with pytest.raises(ValueError) as gate:
        _top_decade_fit(sparse, np.ones(3), 1, 3)
    assert all(c.growth_error == str(gate.value) for c in rep.values())
    rep = verify_reg_bounds(spec, eta, rho, zp, np.geomspace(64.0, 4096.0, 9), ts)
    assert all(np.isfinite(c.top_decade_growth) and c.growth_error == "" for c in rep.values())
    # below xi = 100 the zone boundary 2 eta(1/xi) reaches T = 0.2: the
    # hyperbolic-zone clauses measure nothing, and say so
    rep = verify_reg_bounds(spec, eta, rho, ZoneParams(N=2.0, M=4.0, T=0.2), np.geomspace(16.0, 64.0, 9), ts[ts <= 0.2])
    for name, c in rep.items():
        peak = (c.max_ratio, c.argmax_t, c.argmax_xi, c.top_decade_growth)
        assert np.all(np.isnan(peak)) == (name in ("iii", "v", "vi")), (name, peak)
        assert np.all(np.isnan(c.ratio_by_xi)) == (name in ("iii", "v", "vi"))


@pytest.mark.parametrize("amplitude", [0.0, 0.25, 0.49])
def test_verify_reg_bounds_spatial_factor_scales_every_ratio_by_its_sup(amplitude):
    # sup_x |1 + b(x)| = 1 + amplitude multiplies every measured row, and
    # every bound is spatially flat
    eta = log_reciprocal(1.0)
    args = (eta, power_law(1.0, role="rho"), ZoneParams(N=2.0, M=2.0, T=0.5), np.geomspace(4, 4096, 13))
    ts = np.geomspace(0.02, 0.5, 17)
    flat = CoefficientSpec("log_power_oscillation", delta=0.5)
    spatial = CoefficientSpec("log_power_oscillation", delta=0.5, spatial=SpatialProfile(s=0.3, amplitude=amplitude))
    want = verify_reg_bounds(flat, *args, ts)
    got = verify_reg_bounds(spatial, *args, ts)
    for name, c in want.items():
        assert c.max_ratio > 0.0, name
        assert got[name].max_ratio == pytest.approx((1.0 + amplitude) * c.max_ratio, rel=1e-12), name


def test_verify_reg_bounds_rejects_a_descending_grid():
    zp = ZoneParams(N=2.0, M=2.0, T=0.5)
    args = (CoefficientSpec("constant"), log_reciprocal(1.0), power_law(1.0, role="rho"), zp)
    with pytest.raises(ValueError, match="strictly increasing"):
        verify_reg_bounds(*args, np.geomspace(4, 64, 7)[::-1], np.geomspace(0.01, 0.5, 9))


def test_verify_reg_bounds_constant_spec_all_zero_diffs():
    spec = CoefficientSpec("constant")
    eta = log_reciprocal(1.0)
    rho = power_law(1.0, role="rho")
    zp = ZoneParams(N=2.0, M=2.0, T=0.5)
    rep = verify_reg_bounds(spec, eta, rho, zp, np.geomspace(4, 64, 7), np.geomspace(0.01, 0.5, 9))
    for name in ("ii", "iii", "iv", "v", "vi"):
        assert rep[name].max_ratio == pytest.approx(0.0, abs=1e-12)
    assert rep["i"].max_ratio == pytest.approx(2.0, rel=1e-9)


def test_verify_reg_bounds_matched_holder_clause_ii_stable():
    spec = CoefficientSpec("holder_rough", delta=0.5, alpha=0.5)
    eta = power_law(0.5)
    rho = power_law(1.0, role="rho")
    zp = ZoneParams(N=2.0, M=4.0, T=0.5)
    xi = np.geomspace(2**5, 2**12, 15)
    rep = verify_reg_bounds(spec, eta, rho, zp, xi, np.geomspace(0.02, 0.5, 17))
    c2 = rep["ii"]
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
    c4 = rep["iv"]
    assert np.isfinite(c4.max_ratio)
    assert c4.top_decade_growth < 2.0


def test_spatial_profile_is_the_normalized_lacunary_sum():
    # seeded (s, amplitude) against amplitude sum_{j=1}^{10} 2^(-js) cos(2^j x) / sum 2^(-js),
    # within a few ulps of the amplitude; at x = 0 the value is the amplitude that _spatial_sup takes as sup|b|
    rng = np.random.default_rng(20261021)
    js = np.arange(1, 11)
    x = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 2000)
    for _ in range(20):
        s, amplitude = rng.uniform(0.01, 1.99), rng.uniform(0.0, 0.5)
        sp = SpatialProfile(s=s, amplitude=amplitude)
        amps = 2.0 ** (-js * s)
        want = amplitude * (amps @ np.cos(np.multiply.outer(2.0**js, x))) / amps.sum()
        ulps = 8.0 * np.finfo(float).eps * amplitude
        assert np.max(np.abs(sp.value(x) - want)) <= ulps, (s, amplitude)
        assert abs(sp.value(0.0) - amplitude) <= ulps, (s, amplitude)
        assert CoefficientSpec("constant", spatial=sp)._spatial_sup == 1.0 + amplitude


def test_spatial_profile_factor():
    sp = SpatialProfile(s=1.2, amplitude=0.25)
    xs = np.linspace(0, 2 * np.pi, 257)
    assert np.max(np.abs(sp.value(xs))) <= 0.25 + 1e-12
    spec = CoefficientSpec("constant", spatial=sp)
    assert spec.value(0.1) == 2.0  # the time part only
