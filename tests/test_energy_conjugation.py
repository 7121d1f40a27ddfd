import numpy as np
import pytest

from hyplab import energy
from hyplab.coefficients import CoefficientSpec
from hyplab.companion import HyperbolicOperatorSpec
from hyplab.conjugation import (
    ThetaSpec,
    integrate_theta0,
    ramp_chi,
    theta,
    theta0,
    theta_integral_bound,
)
from hyplab.energy import (
    EnergyTrace,
    FrequencyExperiment,
    closed_form_constant_trace,
    estimate_loss,
    evolve_frequency,
    sobolev_energy,
)
from hyplab.moduli import log_reciprocal, power_law
from hyplab.weights import jbracket, weight_w2, weight_w3
from hyplab.zones import ZoneParams

CONST_OP = HyperbolicOperatorSpec(2, (CoefficientSpec("constant", base=1.0), None))
ETA_LL = log_reciprocal(1.0)


def small_experiment(**kw):
    args = dict(
        operator=CONST_OP,
        xi_grid=np.geomspace(4.0, 512.0, 12),
        zone=ZoneParams(2.0, 2.0, 1.0),
        eta=ETA_LL,
    )
    args.update(kw)
    return FrequencyExperiment(**args)


def test_experiment_validation():
    with pytest.raises(ValueError):
        small_experiment(xi_grid=np.geomspace(4.0, 64.0, 8))  # under two decades
    with pytest.raises(ValueError):
        small_experiment(xi_grid=np.geomspace(1.0, 512.0, 12))  # below M
    with pytest.raises(ValueError):
        small_experiment(n_samples=64)
    spatial_op = HyperbolicOperatorSpec(
        2,
        (CoefficientSpec("constant", spatial=__import__("hyplab.coefficients", fromlist=["SpatialProfile"]).SpatialProfile()), None),
    )
    with pytest.raises(ValueError):
        small_experiment(operator=spatial_op)


def test_zero_initial_vector_gives_zero_trace():
    exp = small_experiment()
    tr = evolve_frequency(exp, exp.xi_grid[0], u0=np.zeros(2, dtype=complex))
    assert np.all(tr.norms == 0.0)
    assert tr.amplification == 0.0


def test_constant_coefficients_match_plane_wave_oracle():
    op = HyperbolicOperatorSpec(2, (CoefficientSpec("constant", base=4.0), None))
    exp = small_experiment(operator=op)
    for xi in exp.xi_grid[::4]:
        tr = evolve_frequency(exp, xi)
        oracle = closed_form_constant_trace(exp, xi)
        assert np.max(np.abs(tr.norms - oracle.norms) / np.max(oracle.norms)) < 1e-6
        assert tr.amplification == pytest.approx(oracle.amplification, rel=1e-6)


def test_constant_amplification_frequency_independent():
    # unit speed: the norm peaks at t = 0, so the sampled sup carries no
    # beat-granularity error and the amplification is flat to 1e-6
    exp = small_experiment()
    amps = [evolve_frequency(exp, xi).amplification for xi in exp.xi_grid[(exp.xi_grid >= 40.0)]]
    assert (max(amps) - min(amps)) / min(amps) < 1e-6
    # speed two: beats appear; amplification is bounded by the conditioning
    # of the Vandermonde diagonalizer and flat up to the sampling granularity
    op = HyperbolicOperatorSpec(2, (CoefficientSpec("constant", base=4.0), None))
    exp4 = small_experiment(operator=op)
    amps4 = [evolve_frequency(exp4, xi).amplification for xi in exp4.xi_grid[(exp4.xi_grid >= 40.0)]]
    assert (max(amps4) - min(amps4)) / min(amps4) < 1e-3
    from hyplab.companion import characteristic_roots
    from hyplab.diagonalizers import m1_inverse_symbol, m1_symbol

    xi = float(exp4.xi_grid[-1])
    roots = characteristic_roots(op, 0.1, None, xi)
    kappa = np.linalg.norm(m1_symbol(roots), 2) * np.linalg.norm(m1_inverse_symbol(roots), 2)
    assert max(amps4) <= kappa + 1e-9


def test_self_convergence_step_halving():
    op = HyperbolicOperatorSpec(2, (CoefficientSpec("constant", base=4.0), None))
    exp = small_experiment(operator=op)
    xi = float(exp.xi_grid[-1])
    a_full = evolve_frequency(exp, xi).amplification
    a_half = evolve_frequency(exp, xi, step_scale=0.5).amplification
    assert abs(a_half - a_full) / a_full < 1e-5


def test_general_order_path_matches_oracle():
    op = HyperbolicOperatorSpec(
        3,
        (
            CoefficientSpec("constant", base=0.5),
            CoefficientSpec("constant", base=2.0),
            CoefficientSpec("constant", base=0.25),
        ),
    )
    exp = small_experiment(operator=op, xi_grid=np.geomspace(4.0, 450.0, 10))
    xi = float(exp.xi_grid[5])
    tr = evolve_frequency(exp, xi)
    oracle = closed_form_constant_trace(exp, xi)
    assert np.max(np.abs(tr.norms - oracle.norms) / np.max(oracle.norms)) < 1e-6


def _fixed_step_rk4_norms(exp, xi, substeps=16):
    """Independent oracle: textbook RK4 on companion_symbol, fixed substeps."""
    from hyplab.companion import companion_symbol

    idx = int(np.argmin(np.abs(exp.xi_grid - xi)))
    U = exp.initial_vector(idx)
    times = np.linspace(0.0, exp.T, exp.n_samples)
    norms = [np.linalg.norm(U)]

    def rhs(t, v):
        return 1j * (companion_symbol(exp.operator, max(t, 2.0**-40), None, xi) @ v)

    for t_lo, t_hi in zip(times[:-1], times[1:]):
        h = (t_hi - t_lo) / substeps
        for i in range(substeps):
            t = t_lo + i * h
            k1 = rhs(t, U)
            k2 = rhs(t + 0.5 * h, U + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, U + 0.5 * h * k2)
            k4 = rhs(t + h, U + h * k3)
            U = U + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        norms.append(np.linalg.norm(U))
    return np.array(norms)


def rough_experiment(m):
    rough = CoefficientSpec("holder_rough", base=2.0, delta=0.5, alpha=0.5, depth=6)
    coeffs = (rough, None) if m == 2 else (None, rough, CoefficientSpec("constant", base=0.1))
    return small_experiment(
        operator=HyperbolicOperatorSpec(m, coeffs),
        xi_grid=np.geomspace(15.0, 1500.0, 9),
        zone=ZoneParams(2.0, 2.0, 0.5),
        initial="random",
    )


def log_power_experiment(xi_min):
    op = HyperbolicOperatorSpec(
        2, (CoefficientSpec("log_power_oscillation", delta=0.5, gamma_osc=0.5), None)
    )
    grid = np.geomspace(xi_min, 100.0 * xi_min, 9)
    return small_experiment(operator=op, xi_grid=grid, zone=ZoneParams(2.0, 2.0, 0.5), step_factor=0.1)


@pytest.mark.parametrize("m", [2, 3])
def test_time_varying_coefficients_match_fixed_step_rk4(m):
    # time-dependent propagators do not commute, so this also pins the order
    # in which the per-step propagators are applied
    exp = rough_experiment(m)
    xi = float(exp.xi_grid[0])
    got = evolve_frequency(exp, xi).norms
    ref = _fixed_step_rk4_norms(exp, xi)
    assert np.max(np.abs(got - ref) / ref) < 1e-8


def test_batch_size_does_not_change_the_trace(monkeypatch):
    # at BATCH = 5 the log-power run at xi = 128 (7-8 steps per interval)
    # splits every interval into rows and meets odd tree levels; the one at
    # xi = 17.5 (1-2 steps) packs several rows per batch and pads one
    runs = [(rough_experiment(2), 15.0), (rough_experiment(3), 15.0)]
    runs += [(log_power_experiment(xi), xi) for xi in (128.0, 17.5)]
    ref = [evolve_frequency(exp, xi) for exp, xi in runs]
    intervals = runs[0][0].n_samples - 1
    assert ref[2].steps > 5 * intervals and ref[3].steps < 2 * intervals
    trees = []
    tree_product = energy._tree_product

    def spy(P):
        trees.append(P)
        return tree_product(P)

    monkeypatch.setattr(energy, "BATCH", 5)
    monkeypatch.setattr(energy, "_tree_product", spy)
    for (exp, xi), tr in zip(runs, ref):
        got = evolve_frequency(exp, xi).norms
        assert np.max(np.abs(got - tr.norms) / tr.norms) < 1e-12
    assert any(P.shape[3] % 2 for P in trees)
    assert any(P.shape[2] > 1 for P in trees)
    eye = np.eye(2)[:, :, None, None]  # a padded step's propagator is exactly I
    assert any(np.any(np.all(P == eye, axis=(0, 1))) for P in trees if P.shape[0] == 2)


def test_step_count_doubles_with_half_steps():
    exp = log_power_experiment(16.0)
    for xi in exp.xi_grid[[0, 4, 8]]:
        full = evolve_frequency(exp, xi).steps
        half = evolve_frequency(exp, xi, step_scale=0.5).steps
        # per interval, ceil(2x) is 2 ceil(x) or one less
        assert half <= 2 * full <= half + exp.n_samples - 1


def loss_experiment(gamma):
    """One row of the loss sweep: strong log-power oscillation, xi = 64 .. 16384 at four points per decade."""
    op = HyperbolicOperatorSpec(
        2, (CoefficientSpec("log_power_oscillation", delta=0.95, gamma_osc=gamma), None)
    )
    grid = np.geomspace(64.0, 16384.0, 11)
    return small_experiment(operator=op, xi_grid=grid, zone=ZoneParams(2.0, 2.0, 0.5), step_factor=0.1)


def m3_log_power_experiment():
    """Order three, with the middle coefficient a log-power oscillation at gamma = 1."""
    osc = CoefficientSpec("log_power_oscillation", base=2.0, delta=0.5, gamma_osc=1.0)
    op = HyperbolicOperatorSpec(3, (CoefficientSpec("constant", base=0.5), osc, CoefficientSpec("constant", base=0.25)))
    grid = np.geomspace(20.0, 2048.0, 9)
    return small_experiment(operator=op, xi_grid=grid, zone=ZoneParams(2.0, 2.0, 0.5), step_factor=0.1)


def m4_log_power_experiment():
    """Order four, roots (-1.2, -0.7, -0.2, 2.5) xi at the base values; a_2 oscillates at gamma = 1.

    Its swing of 0.15 closes the first root gap to about 0.2 xi.
    """
    osc = CoefficientSpec("log_power_oscillation", base=4.03, delta=0.15, gamma_osc=1.0)
    coeffs = (CoefficientSpec("constant", base=0.42), CoefficientSpec("constant", base=2.882), osc, CoefficientSpec("constant", base=0.4))
    grid = np.geomspace(20.0, 2048.0, 9)
    return small_experiment(operator=HyperbolicOperatorSpec(4, coeffs), xi_grid=grid, zone=ZoneParams(2.0, 2.0, 0.5), step_factor=0.1)


@pytest.mark.parametrize(
    "exp, xi, tol",
    [
        (loss_experiment(0.0), 16384.0, 1.5e-3),
        (loss_experiment(1.5), 16384.0, 1.5e-3),
        (loss_experiment(0.0), 1024.0, 1e-4),
        (m3_log_power_experiment(), 2048.0, 5e-5),
        (m4_log_power_experiment(), 2048.0, 8e-5),
        (rough_experiment(3), 1500.0, 1.2e-6),
    ],
    ids=["log_power_gamma0", "log_power_gamma1.5", "log_power_gamma0_xi1024", "log_power_m3", "log_power_m4", "rough_m3"],
)
def test_frame_matches_refined_rk4(monkeypatch, exp, xi, tol):
    # the composite path against RK4 throughout at a quarter of the step;
    # each tolerance is measured, and shipped RK4 meets it too
    xi = float(exp.xi_grid[np.argmin(np.abs(exp.xi_grid - xi))])
    got = evolve_frequency(exp, xi)
    with monkeypatch.context() as mp:
        mp.setattr(energy, "FRAME_RATIO", np.inf)
        ref = evolve_frequency(exp, xi, step_scale=0.25).norms
        rk4 = evolve_frequency(exp, xi).norms
    assert got.nodes > 0
    assert np.max(np.abs(got.norms - ref) / ref) < tol
    assert np.max(np.abs(rk4 - ref) / ref) < tol


def test_frame_takes_over_only_where_rk4_needs_many_steps(monkeypatch):
    # 4, 1.2 and 7.0 RK4 steps per interval: no interval leaves RK4
    runs = [(rough_experiment(2), 15.0), (rough_experiment(3), 15.0)]
    runs += [(log_power_experiment(xi), xi) for xi in (17.5, 128.0)]
    for exp, xi in runs:
        tr = evolve_frequency(exp, xi)
        assert tr.nodes == 0 and tr.steps > 0
    # about 977 RK4 steps per interval: the frame takes most of the trace
    exp = loss_experiment(1.5)
    tr = evolve_frequency(exp, 16384.0)
    monkeypatch.setattr(energy, "FRAME_RATIO", np.inf)
    rk4 = evolve_frequency(exp, 16384.0)
    assert rk4.nodes == 0 and 0 < tr.nodes < 0.01 * rk4.steps
    assert tr.steps < 0.2 * rk4.steps


def test_frame_batch_size_does_not_change_the_trace(monkeypatch):
    # at BATCH = 5 the frame's node propagators form in chunks and its rows
    # split, pack and pad like the RK4 ones
    exp = loss_experiment(1.0)
    xi = float(exp.xi_grid[6])
    ref = evolve_frequency(exp, xi)
    assert ref.nodes > 5 * 20
    monkeypatch.setattr(energy, "BATCH", 5)
    got = evolve_frequency(exp, xi)
    assert (got.steps, got.nodes) == (ref.steps, ref.nodes)
    assert np.max(np.abs(got.norms - ref.norms) / ref.norms) < 1e-12


def test_commutator_moments_match_quadrature():
    # J(a, b) - J(b, a), J(a, b) = int_0^1 du int_0^u dv exp(i(a u + b v)), on
    # both sides of the series switch and at phases of many radians
    rng = np.random.default_rng(11)
    a = np.concatenate((rng.uniform(-0.5, 0.5, 16), rng.uniform(-40.0, 40.0, 16), [0.0, 0.0, 2.0, 0.49, -7.0]))
    b = np.concatenate((rng.uniform(-0.5, 0.5, 16), rng.uniform(-40.0, 40.0, 16), [0.0, 2.0, 0.0, -0.01, 7.0]))
    dphi = np.stack((np.zeros_like(a), a, a + b), axis=1)  # s_01 = a, s_12 = b, s_02 = a + b
    ds = dphi[:, None, :] - dphi[:, :, None]
    p1 = 1.0 + 1j * ds * energy._phi2(ds)
    got = energy._commutator_moments(ds, np.exp(1j * ds), p1)[:, 0, 1, 2]
    u, w = np.polynomial.legendre.leggauss(400)
    u, w = 0.5 * (u + 1.0), 0.5 * w

    def J(a, b):
        bu = np.multiply.outer(b, u)
        inner = np.where(bu == 0.0, u, np.expm1(1j * bu) / (1j * np.where(bu == 0.0, 1.0, b[:, None])))
        return (np.exp(1j * np.multiply.outer(a, u)) * inner) @ w

    ref = J(a, b) - J(b, a)
    assert np.max(np.abs(got - ref)) < 1e-12


def test_expm_matches_eigendecomposition():
    rng = np.random.default_rng(12)
    for m in (2, 3):
        for size in (1e-3, 0.1, 1.0, 10.0):
            X = size * (rng.standard_normal((m, m, 8)) + 1j * rng.standard_normal((m, m, 8)))
            got = energy._expm(X)
            for i in range(8):
                w, V = np.linalg.eig(X[:, :, i])
                ref = V @ np.diag(np.exp(w)) @ np.linalg.inv(V)
                assert np.max(np.abs(got[:, :, i] - ref)) < 1e-11 * np.max(np.abs(ref))
    assert np.array_equal(energy._expm(np.zeros((2, 2, 3))), np.broadcast_to(np.eye(2)[:, :, None], (2, 2, 3)))


def test_amplification_definition():
    times = np.linspace(0.0, 1.0, 257)
    tr = EnergyTrace.from_history(8.0, times, np.ones(257))
    assert tr.amplification == 1.0
    norms = np.ones(257)
    norms[100] = 3.5
    tr = EnergyTrace.from_history(8.0, times, norms)
    assert tr.amplification == pytest.approx(3.5)


def test_estimate_loss_constant_is_flat():
    op = HyperbolicOperatorSpec(2, (CoefficientSpec("constant", base=4.0), None))
    exp = small_experiment(operator=op)
    traces = [evolve_frequency(exp, xi) for xi in exp.xi_grid]
    loss = estimate_loss(traces)
    assert abs(loss.nu0_hat) <= 0.02
    assert loss.stderr >= 0.0
    with pytest.raises(ValueError):
        estimate_loss(traces[:4])


def test_random_initial_option_is_reproducible():
    exp1 = small_experiment(initial="random", seed=11)
    exp2 = small_experiment(initial="random", seed=11)
    xi = float(exp1.xi_grid[3])
    t1 = evolve_frequency(exp1, xi)
    t2 = evolve_frequency(exp2, xi)
    assert np.array_equal(t1.norms, t2.norms)
    exp3 = small_experiment(initial="random", seed=12)
    assert not np.array_equal(evolve_frequency(exp3, xi).norms, t1.norms)


def test_stiffness_floor_raises():
    from hyplab.energy import StiffnessError

    exp = small_experiment(xi_grid=np.geomspace(1e12, 1e14, 9))
    with pytest.raises(StiffnessError):
        evolve_frequency(exp, 1e14)


def test_hyperbolicity_violation_propagates():
    from hyplab.companion import HyperbolicityViolation

    class NegativeConstant(CoefficientSpec):
        def _time_value(self, t):
            return np.full_like(np.asarray(t, dtype=float), -1.0)

    bad = HyperbolicOperatorSpec(2, (NegativeConstant("constant", base=1.0), None))
    exp = small_experiment(operator=bad)
    with pytest.raises(HyperbolicityViolation):
        evolve_frequency(exp, float(exp.xi_grid[0]))


def test_sobolev_loss_transfer_constant_across_nu():
    # apply the fitted exponent: E_{nu - nu0_hat}(t) <= C E_nu(0) with a
    # stable constant across two Sobolev indices
    op = HyperbolicOperatorSpec(
        2, (CoefficientSpec("log_power_oscillation", delta=0.5, gamma_osc=0.5), None)
    )
    grid = np.geomspace(2.0**4, 2.0**11, 15)
    exp = small_experiment(operator=op, xi_grid=grid, zone=ZoneParams(2.0, 2.0, 0.5), step_factor=0.1)
    traces = [evolve_frequency(exp, float(x)) for x in grid]
    nu0 = max(estimate_loss(traces).nu0_hat, 0.0)
    cs = []
    for nu in (1.0, 2.0):
        spectrum = jbracket(grid) ** (-2.0 * nu - 1.0)
        _, e_shift = sobolev_energy(traces, nu - nu0, spectrum)
        _, e_base = sobolev_energy(traces, nu, spectrum)
        cs.append(float(np.max(e_shift) / e_base[0]))
    assert all(np.isfinite(c) for c in cs)
    assert 0.5 <= cs[0] / cs[1] <= 2.0


def test_sobolev_energy_single_mode_and_loss_transfer():
    op = HyperbolicOperatorSpec(2, (CoefficientSpec("constant", base=4.0), None))
    exp = small_experiment(operator=op)
    traces = [evolve_frequency(exp, xi) for xi in exp.xi_grid[:3]]
    xi0 = float(exp.xi_grid[1])
    times, e = sobolev_energy(traces, 0.7, {xi0: 4.0})
    target = 2.0 * float(jbracket(xi0)) ** 0.7 * traces[1].norms
    assert np.max(np.abs(e - target)) < 1e-12
    # nu = 0 with a flat spectrum stays bounded by the conditioning constant
    times, e0 = sobolev_energy(traces, 0.0, np.ones(3))
    assert np.max(e0) / e0[0] < 3.0


def test_theta_spec_validation_and_chi_shape():
    zp = ZoneParams(2.0, 2.0, 0.5)
    rho = power_law(1.0, role="rho")
    ts = ThetaSpec(ETA_LL, rho, zp)
    assert ramp_chi(0.5) == 0.0 and ramp_chi(1.0) == 1.0
    tau = np.linspace(-1.0, 2.0, 301)
    vals = ramp_chi(tau)
    assert np.all(np.diff(vals) >= -1e-15)
    with pytest.raises(ValueError):
        ThetaSpec(ETA_LL, rho, zp, K=0.0)
    with pytest.raises(ValueError):
        ThetaSpec(ETA_LL, rho, zp, chi=lambda x: np.asarray(x, dtype=float))


def test_theta0_at_zero_equals_w1():
    zp = ZoneParams(2.0, 2.0, 0.5)
    rho = power_law(1.0, role="rho")
    ts = ThetaSpec(ETA_LL, rho, zp)
    for xi in (8.0, 512.0):
        jb = float(jbracket(xi))
        assert theta0(ts, 0.0, xi) == pytest.approx(1.0 / ETA_LL.value(1.0 / jb), rel=1e-12)


def test_theta0_deep_hyperbolic_matches_weight_sum():
    alpha = 0.5
    eta = power_law(1.0 - alpha)
    rho = power_law(1.0, role="rho")
    zp = ZoneParams(2.0, 4.0, 0.5)
    ts = ThetaSpec(eta, rho, zp)
    xi = 3000.0
    jb = float(jbracket(xi))
    t_on = 2.0 * zp.N * float(eta.value(1.0 / jb))
    tt = np.linspace(t_on, 0.5, 7)
    got = np.asarray(theta0(ts, tt, xi))
    pure = np.asarray(weight_w2(eta, xi, tt)) + np.asarray(weight_w3(eta, rho, xi, tt))
    assert np.max(np.abs(got / pure - 1.0)) < 1e-6


def test_theta0_crossover_finite_and_dominated_by_branch_sum():
    zp = ZoneParams(2.0, 2.0, 0.5)
    rho = power_law(1.0, role="rho")
    ts = ThetaSpec(ETA_LL, rho, zp)
    xi = 200.0
    jb = float(jbracket(xi))
    t_cross = zp.N * float(ETA_LL.value(1.0 / jb))
    val = theta0(ts, t_cross, xi)
    b1 = 1.0 / float(ETA_LL.value(1.0 / jb))
    b2 = float(weight_w2(ETA_LL, xi, t_cross) + weight_w3(ETA_LL, rho, xi, t_cross))
    assert np.isfinite(val)
    assert min(b1, b2) <= val <= b1 + b2 + 1e-12


def test_theta0_nonnegative_continuous_and_theta_floor():
    zp = ZoneParams(2.0, 2.0, 0.5)
    rho = power_law(1.0, role="rho")
    ts = ThetaSpec(ETA_LL, rho, zp, K=1.7)
    xi = 100.0
    tt = np.linspace(0.0, 0.5, 2001)
    vals = np.asarray(theta0(ts, tt, xi))
    assert np.all(vals >= 0.0)
    assert np.max(np.abs(np.diff(vals))) < 0.2 * (np.max(vals) + 1.0)  # no jumps
    assert np.all(np.asarray(theta(ts, tt, xi)) >= 2.0 * 1.7)


def test_theta_integral_bound_flat_for_catalog():
    grid = np.geomspace(1e3, 1e6, 25)
    rho = power_law(1.0, role="rho")
    for eta, M in ((ETA_LL, 2.0), (power_law(0.5), 4.0)):
        ts = ThetaSpec(eta, rho, ZoneParams(2.0, M, 0.5))
        rep = theta_integral_bound(ts, grid)
        assert rep.top_decade_slope <= 0.05
        assert np.isfinite(rep.max_integral)


def test_theta_integral_linearity():
    zp = ZoneParams(2.0, 2.0, 0.5)
    rho = power_law(1.0, role="rho")
    ts = ThetaSpec(ETA_LL, rho, zp)
    xi = 64.0
    base = integrate_theta0(ts, xi)
    from hyplab.conjugation import _simpson

    jb = float(jbracket(xi))
    e = float(ETA_LL.value(1.0 / jb))
    ne = zp.N * e
    knots = [0.0, min(ne / 2, 0.5), min(ne, 0.5), min(2 * ne, 0.5), 0.5]
    doubled = knots[1] / e * 2.0
    for a, b in zip(knots[1:-1], knots[2:]):
        doubled += _simpson(lambda s: 2.0 * np.asarray(theta0(ts, s, xi)), a, b, 512)
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)
