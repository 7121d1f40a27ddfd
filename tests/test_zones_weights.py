import math

import numpy as np
import pytest

from hyplab.coefficients import CoefficientSpec, verify_reg_bounds
from hyplab.conjugation import ThetaSpec, theta_integral_bound
from hyplab.energy import EnergyTrace, estimate_loss
from hyplab.moduli import fd_derivative, iterated_log, log_grid, log_reciprocal, power_law
from hyplab.weights import (
    _fit_orders,
    _top_window,
    classify,
    fit_loglog_slope,
    jbracket,
    weight_w1,
    weight_w2,
    weight_w3,
    zygmund_index_bound,
)
from hyplab.zones import Zone, ZoneParams, validate_zone, zone_boundary, zone_floor, zone_of


def test_zone_boundary_values():
    eta = power_law(0.5)
    zp = ZoneParams(N=2.0, M=4.0, T=1.0)
    assert zone_boundary(eta, zp, 16.0) == pytest.approx(0.5, rel=1e-12)
    assert zone_boundary(eta, zp, 1e4) == pytest.approx(0.02, rel=1e-12)
    with pytest.raises(ValueError):
        zone_boundary(eta, zp, 2.0)


def test_zone_boundary_decreasing():
    eta = log_reciprocal(1.0)
    zp = ZoneParams(N=2.0, M=2.0, T=1.0)
    xs = np.geomspace(2.0, 1e5, 40)
    assert np.all(np.diff(zone_boundary(eta, zp, xs)) < 0)


def test_zone_of_boundary_goes_hyperbolic():
    eta = power_law(0.5)
    zp = ZoneParams(N=2.0, M=4.0, T=1.0)
    assert zone_of(0.0, 16.0, eta, zp) is Zone.PSEUDODIFFERENTIAL
    assert zone_of(0.5, 16.0, eta, zp) is Zone.HYPERBOLIC
    assert zone_of(0.499, 16.0, eta, zp) is Zone.PSEUDODIFFERENTIAL


def test_zone_of_monotone_in_t():
    eta = power_law(0.5)
    zp = ZoneParams(N=2.0, M=4.0, T=1.0)
    seen_hyp = False
    for t in np.linspace(0.0, 1.0, 41):
        z = zone_of(t, 64.0, eta, zp)
        if z is Zone.HYPERBOLIC:
            seen_hyp = True
        assert not (seen_hyp and z is Zone.PSEUDODIFFERENTIAL)
    assert seen_hyp


def test_zone_floor_and_validation():
    assert zone_floor(power_law(0.5)) == 4.0
    assert zone_floor(log_reciprocal(1.0)) == 2.0
    with pytest.raises(ValueError):
        validate_zone(power_law(0.5), ZoneParams(N=2.0, M=2.0, T=1.0))


def test_w1_values():
    assert weight_w1(log_reciprocal(1.0), math.sqrt(math.e**20 - 1.0)) == pytest.approx(10.0, rel=1e-9)
    xi = math.sqrt(100.0**2 - 1.0)  # <xi> = 100
    assert weight_w1(power_law(0.5), xi) == pytest.approx(10.0, rel=1e-12)


def test_w3_closed_form_power_law_identity_rho():
    alpha = 0.5
    eta = power_law(1.0 - alpha)
    rho = power_law(1.0, role="rho")
    xi = 1e4
    jb = jbracket(xi)
    ts = np.linspace(0.1, 0.9, 9)  # deep inside the hyperbolic zone
    target = (1.0 / (1.0 - alpha)) * (ts - 1.0 / jb) ** (-(2.0 - alpha) / (1.0 - alpha)) / jb
    got = weight_w3(eta, rho, xi, ts)
    assert np.max(np.abs(got / target - 1.0)) < 1e-6


def weight_w2_fd(eta, xi_abs, t, rel_step=2e-4):
    """Oracle: W2 by finite differences of the inner map."""
    jb = jbracket(xi_abs)
    return fd_derivative(lambda s: -1.0 / np.asarray(eta.inverse(s - 1.0 / jb)), t, rel_step) / jb


def weight_w3_fd(eta, rho, xi_abs, t, rel_step=2e-4):
    """Oracle: W3 by finite differences of the inner map."""
    jb = jbracket(xi_abs)
    inner = lambda s: -1.0 / np.asarray(rho.value(eta.inverse(s - 1.0 / jb)))
    return np.asarray(rho.value(1.0 / jb)) * fd_derivative(inner, t, rel_step)


def test_w2_w3_match_finite_differences():
    eta = power_law(0.5)
    rho = power_law(0.7, role="rho")
    xi = 300.0
    ts = np.linspace(0.1, 0.4, 5)
    assert np.max(np.abs(weight_w2_fd(eta, xi, ts) / weight_w2(eta, xi, ts) - 1.0)) < 1e-5
    got = weight_w3_fd(eta, rho, xi, ts) / weight_w3(eta, rho, xi, ts)
    assert np.max(np.abs(got - 1.0)) < 1e-5
    eta = log_reciprocal(1.0)
    ts = np.linspace(0.3, 0.45, 4)
    assert np.max(np.abs(weight_w2_fd(eta, xi, ts) / weight_w2(eta, xi, ts) - 1.0)) < 1e-5


def test_weight_side_condition_errors():
    eta = power_law(0.5)
    with pytest.raises(ValueError):
        weight_w2(eta, 100.0, 0.001)  # below eta(1/<xi>) = 0.1


@pytest.mark.parametrize(
    "call, message",
    [
        # eta(1/<16>) = 0.047 <= t = 0.05 <= 1/<16> = 0.062
        (lambda: weight_w2(log_reciprocal(3.0), 16.0, 0.05), "t - 1/<xi> not positive"),
        (lambda: weight_w2(power_law(0.5), 100.0, 2.0), r"t - 1/<xi> beyond eta\(r0\)"),
        (lambda: fit_loglog_slope([2.0], [3.0]), "need at least two points for a slope"),
        (lambda: zygmund_index_bound(0.5, 0.0), "eps must be positive"),
        # 1/M exceeds r0 = 1e-20 for every M up to 2^60 = 1.2e18
        (lambda: zone_floor(power_law(0.5, r0=1e-20)), r"no admissible frequency floor below 2\^60"),
        (lambda: zone_of(0.6, 16.0, power_law(0.5), ZoneParams(T=0.5)), r"t=0.6 outside \[0, T=0.5\]"),
    ],
    ids=[
        "w2_shift_not_positive", "w2_shift_past_range", "one_point_slope", "eps_zero", "no_zone_floor",
        "t_past_horizon",
    ],
)
def test_weight_and_zone_input_checks_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


GRID = np.geomspace(1e3, 1e6, 25)


RHO_ID = power_law(1.0, role="rho")
KINDS = ("w1", "w2", "w3")


def _orders(eta, rho, zp, xi, t_samples=48):
    """The fitted orders (m1, m2, m3) that classify reports."""
    rep = classify(eta, rho, zp, xi, 0.01, t_samples=t_samples)
    return rep.m0_w1, rep.m0_w2, rep.m0_w3


def test_classify_orders_power_law():
    for alpha in (0.2, 0.5):
        eta = power_law(1.0 - alpha)
        zp = ZoneParams(N=2.0, M=zone_floor(eta), T=0.5)
        for m in _orders(eta, RHO_ID, zp, GRID):
            assert m == pytest.approx(1.0 - alpha, abs=0.05)


def _classify_orders_loop(eta, rho, zp, xi, t_samples=48):
    """Oracle: classify's orders (m1, m2, m3), one frequency and its own t-grid at a time.

    It restates the grid's span check and the fit's minimum-point gate, and
    fits W1, W2 and W3 in that order, so that it raises where classify does.
    Each frequency is a one-element array, not a scalar: numpy's scalar power
    may round differently from its array loop (by 1 ulp at some log-family
    window starts).
    """
    if xi[-1] / xi[0] < 1e3 * (1.0 - 1e-9):
        raise ValueError("frequency grid must span at least three decades")

    def order(weight):
        sup = np.full_like(xi, np.nan)
        for i in range(xi.size):
            x = xi[i : i + 1]
            jb = jbracket(x)
            t_lo = np.maximum(zone_boundary(eta, zp, x), eta.value(1.0 / jb) + 2.0 / jb)
            if weight is None:
                sup[i] = weight_w1(eta, x)[0]
            elif t_lo[0] < zp.T * (1.0 - 1e-12):
                sup[i] = np.max(weight(x, np.geomspace(t_lo, zp.T, t_samples, axis=-1)[0]))
        mask = _top_window(xi, 2.0) & np.isfinite(sup)
        if mask.sum() < 8:
            raise ValueError("need at least 8 points in the top two decades")
        slope, _ = fit_loglog_slope(jbracket(xi[mask]), sup[mask])
        return max(slope, 0.0)

    return (
        order(None),
        order(lambda x, ts: weight_w2(eta, x, ts)),
        order(lambda x, ts: weight_w3(eta, rho, x, ts)),
    )


@pytest.mark.parametrize("eta", [log_reciprocal(1.0), power_law(0.5)], ids=["loglip", "holder"])
@pytest.mark.parametrize(
    "kind,rho",
    [("w1", RHO_ID), ("w2", RHO_ID), ("w3", RHO_ID), ("w3", power_law(0.7, role="rho"))],
    ids=["w1", "w2", "w3-id", "w3-rho07"],
)
def test_estimate_order_batched_matches_scalar_loop(eta, kind, rho):
    zp = ZoneParams(N=2.0, M=zone_floor(eta), T=0.5)
    k = KINDS.index(kind)
    assert _orders(eta, rho, zp, GRID)[k] == _classify_orders_loop(eta, rho, zp, GRID)[k]
    # from the floor up, the lowest frequencies have an empty window [t_xi, T];
    # for the log family some of them fall inside the top two decades
    low = np.geomspace(zp.M, zp.M * 1e3, 31)
    assert zone_boundary(eta, zp, low[0]) >= zp.T
    assert _orders(eta, rho, zp, low, t_samples=33)[k] == _classify_orders_loop(eta, rho, zp, low, t_samples=33)[k]


@pytest.mark.parametrize("eta", [log_reciprocal(1.0), power_law(0.5)], ids=["loglip", "holder"])
def test_fit_orders_over_two_rhos_equal_single_rho_fits(eta):
    # W1 and W2 are fitted once for both rho, and each rho's W3 as if alone
    zp = ZoneParams(N=2.0, M=zone_floor(eta), T=0.5)
    rho07 = power_law(0.7, role="rho")
    m1, m2, m3_id, m3_07 = _fit_orders(eta, (RHO_ID, rho07), zp, GRID)
    assert np.array_equal((m1, m2, m3_id), _fit_orders(eta, (RHO_ID,), zp, GRID))
    assert np.array_equal((m1, m2, m3_07), _fit_orders(eta, (rho07,), zp, GRID))


ETAS = (log_reciprocal(1.0), log_reciprocal(2.0), power_law(0.3), power_law(0.5), power_law(0.8))
RHOS = (RHO_ID, power_law(0.7, role="rho"), log_reciprocal(1.0, role="rho"), iterated_log(2, role="rho"))


def test_classify_orders_match_scalar_loop_on_random_grids():
    # catalog (eta, rho) pairs on random increasing grids from the zone floor
    # up: short spans, thin top decades, empty windows and rho's domain end
    # all occur, and classify must fail where the oracle fails
    rng = np.random.default_rng(2023)
    outcomes = set()
    for _ in range(60):
        eta, rho = ETAS[rng.integers(len(ETAS))], RHOS[rng.integers(len(RHOS))]
        zp = ZoneParams(N=2.0, M=zone_floor(eta), T=0.5)
        decades = rng.uniform(2.5, 5.0)
        logs = np.concatenate(([0.0], np.sort(rng.uniform(0.0, decades, rng.integers(4, 40))), [decades]))
        xi = np.unique(zp.M * 10.0 ** (rng.uniform(0.0, 2.0) + logs))
        t_samples = int(rng.integers(2, 65))
        try:
            expected = _classify_orders_loop(eta, rho, zp, xi, t_samples)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                _orders(eta, rho, zp, xi, t_samples)
            assert str(got.value) == str(exc)
            outcomes.add(str(exc).split()[0])
        else:
            assert _orders(eta, rho, zp, xi, t_samples) == expected
            outcomes.add("fit")
    assert outcomes == {"fit", "frequency", "need", "argument"}


def test_classify_order_loglip_small_and_shrinking():
    zp = ZoneParams(N=2.0, M=2.0, T=0.5)
    m_small = _orders(log_reciprocal(1.0), RHO_ID, zp, GRID)[0]
    assert 0.0 < m_small <= 0.1
    # extending the grid pushes the fitted order further down
    m_smaller = _orders(log_reciprocal(1.0), RHO_ID, zp, np.geomspace(1e3, 1e9, 49))[0]
    assert m_smaller < m_small


def test_classify_order_flat_fit_clamps_to_zero():
    slope, _ = fit_loglog_slope(GRID, np.full_like(GRID, 3.7))
    assert max(slope, 0.0) == pytest.approx(0.0, abs=1e-12)
    # the log family's W2 falls with <xi>: its order is the clamp's exact zero
    assert _orders(log_reciprocal(1.0), RHO_ID, ZoneParams(N=2.0, M=2.0, T=0.5), GRID)[1] == 0.0


def test_classify_orders_need_enough_points():
    zp = ZoneParams(N=2.0, M=2.0, T=0.5)
    with pytest.raises(ValueError):
        _orders(log_reciprocal(1.0), RHO_ID, zp, np.geomspace(1e3, 1e6, 9))  # only ~6 points in top two decades


def _order_fit(n):
    zp = ZoneParams(N=2.0, M=2.0, T=0.5)
    return _orders(log_reciprocal(1.0), RHO_ID, zp, np.concatenate(([1e3], np.geomspace(1e4, 1e6, n))))


def _loss_fit(n):
    traces = [EnergyTrace.from_history(x, [0.0, 1.0], [1.0, x**0.25]) for x in np.geomspace(1e2, 1e4, n)]
    return estimate_loss(traces).nu0_hat


def _theta_fit(n):
    ts = ThetaSpec(log_reciprocal(1.0), power_law(1.0, role="rho"), ZoneParams(N=2.0, M=2.0, T=0.5))
    return theta_integral_bound(ts, np.concatenate(([64.0], np.geomspace(1e2, 1e3, n))))[1]


def _reg_growths(n):
    spec = CoefficientSpec("holder_rough", delta=0.5, alpha=0.5)
    xi = np.concatenate(([64.0], np.geomspace(512.0, 4096.0, n)))
    zp = ZoneParams(N=2.0, M=4.0, T=0.5)
    clauses = verify_reg_bounds(spec, power_law(0.5), power_law(1.0, role="rho"), zp, xi, np.geomspace(0.02, 0.5, 17))
    return np.array([c.top_decade_growth for c in clauses.values()])


@pytest.mark.parametrize(
    "fit, min_points, window",
    [(_order_fit, 8, "two decades"), (_loss_fit, 8, "two decades"), (_theta_fit, 3, "decade"), (_reg_growths, 3, None)],
    ids=["order", "loss", "theta", "reg_bounds"],
)
def test_every_top_decade_fit_gates_at_its_min_points(fit, min_points, window):
    # n points in the top window, one more below it: min_points - 1 fails
    # (a ValueError, or NaN growth for the reg bounds), min_points fits
    if window is None:
        assert np.all(np.isnan(fit(min_points - 1)))
    else:
        with pytest.raises(ValueError, match=f"need at least {min_points} points in the top {window}$"):
            fit(min_points - 1)
    assert np.all(np.isfinite(fit(min_points)))


def test_zygmund_index_bound():
    assert zygmund_index_bound(1.0, 0.01) == pytest.approx(2.0)
    assert zygmund_index_bound(2.0 / 3.0, 0.01) == pytest.approx(1.01)
    assert zygmund_index_bound(0.8, 0.01) == pytest.approx(4.0 / 3.0)
    with pytest.raises(ValueError):
        zygmund_index_bound(1.2, 0.01)
    with pytest.raises(ValueError):
        zygmund_index_bound(0.0, 0.01)
    # nondecreasing, and equal to 1+eps exactly on the early plateau
    ms = np.linspace(0.05, 1.0, 39)
    vals = [zygmund_index_bound(m, 0.05) for m in ms]
    assert np.all(np.diff(vals) >= 0.0)
    assert all(v == pytest.approx(1.05) for m, v in zip(ms, vals) if 2 * m / (2 - m) <= 1.05)


def test_classify_summary_rows():
    eps = 0.01
    rho = power_law(1.0, role="rho")
    rep = classify(log_reciprocal(1.0), rho, ZoneParams(N=2.0, M=2.0, T=0.5), GRID, eps)
    assert rep.s_min == pytest.approx(1.0 + eps)

    rep = classify(power_law(0.5), rho, ZoneParams(N=2.0, M=4.0, T=0.5), GRID, eps)
    assert rep.s_min == pytest.approx(1.0 + eps)
    assert rep.m0 == pytest.approx(0.5, abs=0.05)

    rep = classify(power_law(0.8), rho, ZoneParams(N=2.0, M=32.0, T=0.5), GRID, eps)
    assert rep.s_min == pytest.approx(4.0 / 3.0, abs=0.15)
    assert rep.m0 == pytest.approx(0.8, abs=0.05)
    assert set(rep.to_json()) == {"m0_w1", "m0_w2", "m0_w3", "m0", "s_min", "eps"}
