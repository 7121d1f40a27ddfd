import dataclasses
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hyplab import diagonalizers, energy
from hyplab.coefficients import CoefficientSpec, mollify
from hyplab.companion import HyperbolicOperatorSpec, _root_gaps, roots_on_times
from hyplab.conjugation import (
    ThetaSpec,
    _simpson,
    _weight_antiderivatives,
    integrate_theta0,
    ramp_chi,
    theta0,
    theta_integral_bound,
)
from hyplab.config import load_config
from hyplab.diagonalizers import m3_weights
from hyplab.energy import (
    EnergyTrace,
    FrequencyExperiment,
    closed_form_constant_trace,
    estimate_loss,
    evolve_frequency,
    evolve_sweep,
    sobolev_energy,
)
from hyplab.moduli import iterated_log, log_reciprocal, power_law
from hyplab.weights import jbracket, weight_w2, weight_w3
from hyplab.zones import ZoneParams, zone_floor

CONST_OP = HyperbolicOperatorSpec(2, (CoefficientSpec("constant", base=1.0), None))
OSC_OP = HyperbolicOperatorSpec(2, (CoefficientSpec("log_power_oscillation", delta=0.5), None))
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


def test_constant_profile_leaves_delta_out_of_its_sup_and_step_plan():
    # a constant coefficient never evaluates delta, so neither sup|a| nor the steps may grow with it
    counts = []
    for delta in (0.0, 0.9):
        c = CoefficientSpec("constant", base=2.0, delta=delta)
        assert c.sup_abs == 2.0
        op = HyperbolicOperatorSpec(2, (c, None))
        exp = small_experiment(operator=op, xi_grid=np.geomspace(16.0, 4096.0, 9), zone=ZoneParams(2.0, 2.0, 0.5))
        counts.append(energy._plan(exp, np.arange(9))[1])
    assert np.array_equal(*counts)


def test_zero_initial_vector_gives_zero_trace():
    # a zero initial norm has no amplification to report
    tr = EnergyTrace.from_history(8.0, np.linspace(0.0, 0.5, 257), np.zeros(257))
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


@pytest.mark.parametrize(
    "profile, shape", [("log_power_oscillation", dict(gamma_osc=1.0)), ("holder_rough", dict(alpha=0.5))],
    ids=["log_power", "holder_rough"],
)
def test_zero_amplitude_term_is_no_term(tmp_path, profile, shape):
    # delta = 0 leaves a = base: no time term, no end of the time domain, the constant's bits on every path
    spec = CoefficientSpec(profile, base=1.0, delta=0.0, **shape)
    const = CoefficientSpec("constant", base=1.0)
    assert spec._term is None and spec.t_end == np.inf
    exp, ref = (small_experiment(operator=HyperbolicOperatorSpec(2, (c, None))) for c in (spec, const))
    for got, want in [
        (closed_form_constant_trace(exp, 64.0), closed_form_constant_trace(ref, 64.0)),
        *zip(evolve_sweep(exp, [0, 5, 11]), evolve_sweep(ref, [0, 5, 11])),
    ]:
        assert np.array_equal(got.times, want.times) and np.array_equal(got.norms, want.norms)
        assert (got.amplification, got.steps, got.nodes) == (want.amplification, want.steps, want.nodes)
    eps, t = 1.0 / jbracket(np.geomspace(4.0, 4096.0, 7))[:, None], np.geomspace(1e-3, 0.9, 9)
    assert np.array_equal(mollify(spec, eps, t), mollify(const, eps, t))
    a1 = HyperbolicOperatorSpec(2, (CoefficientSpec("constant", base=2.0), spec))
    assert np.all(m3_weights(a1, np.geomspace(16.0, 4096.0, 9), 0.5) == 0.0)
    # the config caps no horizon of it: T = 1.2 loads, past the log-power phase's end at t = 1
    text = (Path(__file__).parent.parent / "configs" / "loglip.cfg").read_text(encoding="utf-8")
    old = "profile = log_power_oscillation\nbase = 2.0\ndelta = 0.5\ngamma_osc = 0.0"
    keys = "".join(f"\n{k} = {v}" for k, v in shape.items())
    assert "T = 0.5" in text and old in text
    path = tmp_path / "zero_delta.cfg"
    path.write_text(text.replace("T = 0.5", "T = 1.2").replace(old, f"profile = {profile}\nbase = 1.0\ndelta = 0.0{keys}"))
    cfg = load_config(path)
    assert cfg.zone.T == 1.2 and cfg.operator.coeffs[0] == spec


def test_constant_amplification_frequency_independent():
    # unit speed: the norm peaks at t = 0, so the sampled sup carries no
    # beat-granularity error and the amplification is flat to 1e-6
    exp = small_experiment()
    amps = [tr.amplification for tr in evolve_sweep(exp, np.flatnonzero(exp.xi_grid >= 40.0))]
    assert (max(amps) - min(amps)) / min(amps) < 1e-6
    # speed two: beats appear; amplification is bounded by the conditioning
    # of the Vandermonde diagonalizer and flat up to the sampling granularity
    op = HyperbolicOperatorSpec(2, (CoefficientSpec("constant", base=4.0), None))
    exp4 = small_experiment(operator=op)
    amps4 = [tr.amplification for tr in evolve_sweep(exp4, np.flatnonzero(exp4.xi_grid >= 40.0))]
    assert (max(amps4) - min(amps4)) / min(amps4) < 1e-3
    from hyplab.companion import characteristic_roots
    from hyplab.diagonalizers import m1_inverse_symbol, m1_symbol

    xi = float(exp4.xi_grid[-1])
    lam = characteristic_roots(op, 0.1, xi)[0][0]
    kappa = np.linalg.norm(m1_symbol(lam, xi), 2) * np.linalg.norm(m1_inverse_symbol(lam, xi), 2)
    assert max(amps4) <= kappa + 1e-9


def test_self_convergence_step_halving():
    op = HyperbolicOperatorSpec(2, (CoefficientSpec("constant", base=4.0), None))
    exp = small_experiment(operator=op)
    xi = float(exp.xi_grid[-1])
    a_full = evolve_frequency(exp, xi).amplification
    a_half = evolve_frequency(dataclasses.replace(exp, step_factor=exp.step_factor * 0.5), xi).amplification
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
        return 1j * (companion_symbol(exp.operator, max(t, 2.0**-40), xi) @ v)

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


class InverseSquare(CoefficientSpec):
    """a(t) = c / (t + T0)^2, c = base T0^2, with the closed-form envelopes 2c / (t + T0)^3 and 6c / (t + T0)^4.

    u'' + a xi^2 u = 0 is then an Euler equation, solved by
    u = (t + T0)^(1/2 +- i w), w = sqrt(c xi^2 - 1/4).
    """

    T0 = 0.25

    def _time_jet(self, t, k=0):
        s = np.asarray(t, dtype=float) + self.T0
        c = self.base * self.T0**2
        return (c / s**2, c * (-2.0 / s**3), c * (6.0 / s**4))[: k + 1]

    def rate_bound(self, t, order=1):
        return np.abs(self._time_jet(t, order)[order])


def euler_experiment():
    op = HyperbolicOperatorSpec(2, (InverseSquare("constant", base=4.0), None))
    grid = np.geomspace(16.0, 16384.0, 13)
    return small_experiment(operator=op, xi_grid=grid, zone=ZoneParams(2.0, 2.0, 0.5), step_factor=0.1)


def _euler_norms(exp, xi):
    """Exact |U(t)| on the sample grid from U(0) = e_1: U = (u, u' / (i <xi>)) with u(0) = 1, u'(0) = 0."""
    a = exp.operator.coeffs[0]
    w = np.sqrt(a.base * a.T0**2 * xi**2 - 0.25)
    r = np.array([0.5 + 1j * w, 0.5 - 1j * w])

    def basis(t):  # the two solutions and their derivatives, last axis
        s = np.asarray(t, dtype=float)[..., None] + a.T0
        return s**r, r * s ** (r - 1.0)

    weights = np.linalg.solve(np.array(basis(0.0)), [1.0, 0.0])
    u, du = (b @ weights for b in basis(np.linspace(0.0, exp.T, exp.n_samples)))
    return np.sqrt(np.abs(u) ** 2 + np.abs(du / jbracket(xi)) ** 2)


@pytest.mark.parametrize("idx", [8, 10])
def test_magnus_path_converges_at_order_four_on_the_exact_oracle(monkeypatch, idx):
    # the Magnus step throughout, at 1, 1/2 and 1/4 times the step factor (about 13, 26
    # and 53 steps per interval at xi = 1625.5, index 8)
    exp = euler_experiment()
    xi = float(exp.xi_grid[idx])
    exact = _euler_norms(exp, xi)
    monkeypatch.setattr(energy, "FRAME_RATIO", np.inf)
    errs = []
    for scale in (1.0, 0.5, 0.25):
        tr = evolve_frequency(dataclasses.replace(exp, step_factor=exp.step_factor * scale), xi)
        assert tr.nodes == 0
        errs.append(np.max(np.abs(tr.norms - exact) / exact))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all((orders > 3.7) & (orders < 4.3)), (errs, orders)


def test_composite_path_matches_the_exact_oracle_across_the_frame_switch():
    # the frame takes over between xi = 161 and 287; above, its second-order
    # nodes set the error, 1.9e-6
    exp = euler_experiment()
    traces = evolve_sweep(exp, [2, 4, 5, 8, 12])
    assert [tr.nodes > 0 for tr in traces] == [False, False, True, True, True]
    for tr in traces:
        exact = _euler_norms(exp, tr.xi)
        assert np.max(np.abs(tr.norms - exact) / exact) < 2.5e-6


def test_batch_size_does_not_change_the_trace(monkeypatch):
    # at BATCH = 5 the log-power run at xi = 128 (1 to 8 steps per interval)
    # splits its first intervals into rows and meets odd tree levels; the one
    # at xi = 17.5 (1-2 steps) packs several rows per batch and pads the shorter
    runs = [(rough_experiment(2), 15.0), (rough_experiment(3), 15.0)]
    runs += [(log_power_experiment(xi), xi) for xi in (128.0, 17.5)]
    ref = [evolve_frequency(exp, xi) for exp, xi in runs]
    counts = [energy._plan(exp, [0])[1] for exp, _ in runs[2:]]
    assert counts[0].max() > 5 and set(counts[1].ravel()) == {1, 2}
    trees = []
    tree_product = energy._tree_product

    def spy(P):
        trees.append(P.copy())
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
        half = evolve_frequency(dataclasses.replace(exp, step_factor=exp.step_factor * 0.5), xi).steps
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
def test_frame_matches_refined_magnus(monkeypatch, exp, xi, tol):
    # the composite path against the Magnus step throughout at a quarter of
    # the step; each tolerance is measured, and the shipped Magnus step meets it too
    xi = float(exp.xi_grid[np.argmin(np.abs(exp.xi_grid - xi))])
    got = evolve_frequency(exp, xi)
    with monkeypatch.context() as mp:
        mp.setattr(energy, "FRAME_RATIO", np.inf)
        ref = evolve_frequency(dataclasses.replace(exp, step_factor=exp.step_factor * 0.25), xi).norms
        magnus = evolve_frequency(exp, xi).norms
    assert got.nodes > 0
    assert np.max(np.abs(got.norms - ref) / ref) < tol
    assert np.max(np.abs(magnus - ref) / ref) < tol


def test_frame_takes_over_only_where_magnus_needs_many_steps(monkeypatch):
    # 4, 1.2 and 1.5 Magnus steps per interval: no interval leaves the Magnus path
    runs = [(rough_experiment(2), 15.0), (rough_experiment(3), 15.0)]
    runs += [(log_power_experiment(xi), xi) for xi in (17.5, 128.0)]
    for exp, xi in runs:
        tr = evolve_frequency(exp, xi)
        assert tr.nodes == 0 and tr.steps > 0
    # about 130 Magnus steps per interval, each up to MAGNUS_STRETCH step
    # bounds long: the frame takes most of the trace
    exp = loss_experiment(1.5)
    tr = evolve_frequency(exp, 16384.0)
    monkeypatch.setattr(energy, "FRAME_RATIO", np.inf)
    magnus = evolve_frequency(exp, 16384.0)
    assert magnus.nodes == 0 and 0 < tr.nodes < 0.02 * magnus.steps
    assert tr.steps < 0.4 * magnus.steps


def test_frame_batch_size_does_not_change_the_trace(monkeypatch):
    # at BATCH = 5 the frame's node propagators form in chunks and its rows
    # split, pack and pad like the Magnus ones
    exp = loss_experiment(1.0)
    xi = float(exp.xi_grid[6])
    ref = evolve_frequency(exp, xi)
    assert ref.nodes > 5 * 20
    monkeypatch.setattr(energy, "BATCH", 5)
    got = evolve_frequency(exp, xi)
    assert (got.steps, got.nodes) == (ref.steps, ref.nodes)
    assert np.max(np.abs(got.norms - ref.norms) / ref.norms) < 1e-12


@pytest.mark.parametrize(
    "exp, batch",
    [(loss_experiment(1.5), None), (rough_experiment(3), None), (log_power_experiment(16.0), 5)],
    ids=["log_power_m2", "rough_m3_random", "log_power_batch5"],
)
def test_sweep_matches_per_frequency_evolution(monkeypatch, exp, batch):
    # every frequency alone from its grid index's initial vector (random for
    # the rough case), against all of them in one pass; at BATCH = 5 the
    # intervals split into rows and rows of different frequencies share batches
    ref = [evolve_frequency(exp, xi) for xi in exp.xi_grid]
    shared = []
    if batch:
        monkeypatch.setattr(energy, "BATCH", batch)
        kernel = energy._magnus_propagators

        def spy(coeffs, scale, jb, *rest):
            shared.append(np.unique(jb).size > 1)
            return kernel(coeffs, scale, jb, *rest)

        monkeypatch.setattr(energy, "_magnus_propagators", spy)
    got = evolve_sweep(exp)
    assert [(tr.xi, tr.steps, tr.nodes) for tr in got] == [(tr.xi, tr.steps, tr.nodes) for tr in ref]
    for g, r in zip(got, ref):
        assert np.max(np.abs(g.norms - r.norms) / r.norms) < 1e-12
    assert sum(tr.nodes for tr in got) > 0
    if batch:
        h_k, counts, magnus = energy._plan(exp, np.arange(exp.xi_grid.size))
        assert any(shared) and (counts * magnus).max() > batch


def test_sweep_trace_does_not_depend_on_its_batch_mates():
    exp = loss_experiment(1.0)
    full = evolve_sweep(exp)
    part = evolve_sweep(exp, [9, 2, 6])
    assert [tr.xi for tr in part] == [full[i].xi for i in (9, 2, 6)]
    for tr, i in zip(part, (9, 2, 6)):
        assert np.array_equal(tr.norms, full[i].norms)


def _exp_i(tau, C):
    """exp(i tau C) of one matrix, by an eigendecomposition."""
    w, V = np.linalg.eig(C)
    return V @ np.diag(np.exp(1j * tau * w)) @ np.linalg.inv(V)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_magnus_kernel_matches_the_dense_complex_step(m):
    # every coefficient present (for m = 2 both last-row entries): a
    # holder_rough, a log-power and constants; three rows of different
    # frequencies, the last with two padded steps
    from hyplab.companion import _companion, _row_scale

    present = [
        CoefficientSpec("holder_rough", base=2.0, delta=0.5, alpha=0.5, depth=6),
        CoefficientSpec("log_power_oscillation", base=2.0, delta=0.5, gamma_osc=0.5),
        CoefficientSpec("constant", base=0.4),
        CoefficientSpec("constant", base=1.3),
    ][:m]
    coeffs = list(enumerate(present))
    xi = np.array([20.0, 300.0, 4000.0])
    jb = jbracket(xi)[:, None]
    h = 1.5 / (jb * 2.5)  # h |A| about 1.5
    n = 6
    live = np.ones((3, n), dtype=bool)
    live[2, 4:] = False
    t = np.array([[0.01], [0.2], [0.45]]) + 0.5 * h * (2 * np.array([[0], [7], [3]]) + np.arange(2 * n + 1))
    P = energy._magnus_propagators(coeffs, _row_scale(xi, m).T[:, :, None], jb, t, np.where(live, h, 0.0))
    assert P.shape == (m, m, 3, n)
    eye = np.eye(m)
    for r in range(3):

        def C(tt):
            return _companion(np.array([c.extended_time_value(tt) for c in present]), xi[r])

        for i in range(n):
            if not live[r, i]:
                assert np.array_equal(P[:, :, r, i], eye)  # a padded step is exactly I
                continue
            C0, Cm, C1 = C(t[r, 2 * i]), C(t[r, 2 * i + 1]), C(t[r, 2 * i + 2])
            tau = 0.5 * h[r, 0]
            ref = _exp_i(tau, (-C0 + 4.0 * Cm + 3.0 * C1) / 6.0) @ _exp_i(tau, (3.0 * C0 + 4.0 * Cm - C1) / 6.0)
            assert np.max(np.abs(P[:, :, r, i] - ref)) < 1e-13 * np.max(np.abs(ref))
    # a constant coefficient is integrated exactly: one step over the whole horizon
    base = {2: (4.0, 1.3), 3: (0.5, 2.0, 0.25), 4: (0.42, 2.882, 4.03, 0.4)}[m]
    op = HyperbolicOperatorSpec(m, tuple(CoefficientSpec("constant", base=b) for b in base))
    exp = small_experiment(operator=op, xi_grid=np.geomspace(4.0, 450.0, 10))
    x = exp.xi_grid[5]
    step = np.array([[exp.T]])
    scale = _row_scale(x, m)[:, None, None]
    P = energy._magnus_propagators(list(enumerate(op.coeffs)), scale, jbracket(x), step * [0.0, 0.5, 1.0], step)
    oracle = closed_form_constant_trace(exp, x)
    assert np.linalg.norm(P[:, 0, 0, 0]) == pytest.approx(oracle.norms[-1], rel=1e-12)
    if m == 2:  # complex roots (w^2 < 0: cosh and sinh) and a vanishing last row (w = 0)
        step = np.array([[0.01]])
        for level in (-1.0, 0.0):
            flat = SimpleNamespace(extended_time_value=lambda tt, v=level: np.full_like(tt, v))
            P = energy._magnus_propagators([(0, flat)], scale, jbracket(x), step * [0.0, 0.5, 1.0], step)
            ref = energy._expm(1j * step[0, 0] * _companion(np.array([level, 0.0]), x)[:, :, None])[:, :, 0]
            assert np.max(np.abs(P[:, :, 0, 0] - ref)) < 1e-13 * np.max(np.abs(ref))


def test_magnus_batches_evaluate_each_coefficient_once_per_half_step(monkeypatch):
    # n consecutive steps share their ends: 2n + 1 times per row, not 3n;
    # at BATCH = 5 rows of several lengths share padded batches
    monkeypatch.setattr(energy, "BATCH", 5)
    evaluate = CoefficientSpec.extended_time_value
    kernel = energy._magnus_propagators
    batches = []

    def spy(coeffs, scale, jb, t, h):
        shapes = []
        batches.append((h.shape, len(coeffs), shapes))

        def counted(c, tt):
            shapes.append(np.shape(tt))
            return evaluate(c, tt)

        with monkeypatch.context() as mp:
            mp.setattr(CoefficientSpec, "extended_time_value", counted)
            return kernel(coeffs, scale, jb, t, h)

    monkeypatch.setattr(energy, "_magnus_propagators", spy)
    for exp in (rough_experiment(3), log_power_experiment(16.0)):
        evolve_sweep(exp, [0, 4])
    assert len(batches) > 1 and {c for _, c, _ in batches} == {1, 2}
    assert any(rows > 1 for (rows, _), _, _ in batches)
    for (rows, n), count, shapes in batches:
        assert shapes == [(rows, 2 * n + 1)] * count


def test_sweep_errors_name_the_first_failing_frequency():
    from hyplab.companion import HyperbolicityViolation
    from hyplab.energy import StiffnessError

    # Magnus steps turn too much phase below xi = 4e13 and fall below the
    # floor above: the batched step plan meets the floor first, a loop over
    # the grid meets the phase limit first
    exp = small_experiment(xi_grid=np.geomspace(1e12, 1e14, 9), step_factor=40.0)
    messages = []
    for xi in exp.xi_grid:
        with pytest.raises(StiffnessError) as err:
            evolve_frequency(exp, xi)
        messages.append(str(err.value))
    assert "turns 40 rad, past the limit" in messages[0] and "below floor" in messages[-1]
    for indices, first in ((None, 0), ([8, 3], 8)):
        with pytest.raises(StiffnessError) as err:
            evolve_sweep(exp, indices)
        assert str(err.value) == messages[first]

    class ComplexLate(CoefficientSpec):
        # a_2 < 0, complex roots, from t = 0.25 on
        def _time_jet(self, t, k=0):
            v = np.where(np.asarray(t) < 0.25, 1.0, -1.0)
            return (v,) + (np.zeros_like(v),) * k

    exp = small_experiment(operator=HyperbolicOperatorSpec(2, (ComplexLate("constant", base=1.0), None)))
    with pytest.raises(HyperbolicityViolation) as err:
        evolve_frequency(exp, exp.xi_grid[0])
    with pytest.raises(HyperbolicityViolation) as swept:
        evolve_sweep(exp)
    assert str(swept.value) == str(err.value) and f"xi={exp.xi_grid[0]}:" in str(err.value)


def test_commutator_moments_match_quadrature():
    # sum_r K_pr K_rq (J(s_pr, s_rq) - J(s_rq, s_pr)), J(a, b) = int_0^1 du
    # int_0^u dv exp(i(a u + b v)), for real K with entries in [-1, 1], on both
    # sides of the series switch and at phases of many radians: the terms of
    # distinct indices (m = 3, 4) and those with a repeated index (m = 2, 3, 4)
    rng = np.random.default_rng(11)
    a = np.concatenate((rng.uniform(-0.5, 0.5, 16), rng.uniform(-40.0, 40.0, 16), [0.0, 0.0, 2.0, 0.49, -7.0]))
    b = np.concatenate((rng.uniform(-0.5, 0.5, 16), rng.uniform(-40.0, 40.0, 16), [0.0, 2.0, 0.0, -0.01, 7.0]))
    c = np.concatenate((rng.uniform(-0.5, 0.5, 16), rng.uniform(-40.0, 40.0, 16), [0.0, -2.0, 0.3, 0.0, 0.0]))
    u, w = np.polynomial.legendre.leggauss(400)
    u, w = 0.5 * (u + 1.0), 0.5 * w

    def J(a, b):
        bu = np.multiply.outer(b, u)
        inner = np.where(bu == 0.0, u, np.expm1(1j * bu) / (1j * np.where(bu == 0.0, 1.0, b[:, None])))
        return (np.exp(1j * np.multiply.outer(a, u)) * inner) @ w

    zero = np.zeros_like(a)
    for dphi in (np.stack((a, a + b), axis=1), np.stack((zero, a, a + b), axis=1), np.stack((zero, a, a + b, c), axis=1)):
        ds = dphi[:, None, :] - dphi[:, :, None]  # s_01 = a, s_12 = b, s_02 = a + b
        m = ds.shape[-1]
        K = rng.uniform(-1.0, 1.0, (a.size, m, m))
        upper = np.triu_indices(m, 1)
        pairs = ds[:, upper[0], upper[1]].T  # s_pq of the pairs p < q, in lexicographic order
        w2 = energy._phi2(pairs)
        got = energy._commutator_moments(K.transpose(1, 2, 0), pairs, w2, 1.0 + 1j * pairs * w2)
        for p, q in np.ndindex(m, m):
            ref = sum(K[:, p, r] * K[:, r, q] * (J(ds[:, p, r], ds[:, r, q]) - J(ds[:, r, q], ds[:, p, r])) for r in range(m))
            bound = 1e-12 if m > 2 and p != q else 1e-13  # an entry p != q of m >= 3 has terms of distinct indices
            assert np.max(np.abs(got[p, q] - ref)) < bound, (m, p, q)


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
    # each result depends on its own matrix alone: a large batch mate changes no bit
    X = np.concatenate((0.01 * rng.standard_normal((2, 2, 3)), 10.0 * rng.standard_normal((2, 2, 1))), axis=-1)
    assert np.array_equal(energy._expm(X)[..., :3], energy._expm(X[..., :3]))


def test_expm2_matches_expm():
    # both branches of the closed form: |delta| below 1 (even series) and above (sqrt, cosh, sinh)
    rng = np.random.default_rng(13)
    X = rng.standard_normal((2, 2, 400)) + 1j * rng.standard_normal((2, 2, 400))
    X *= np.geomspace(1e-3, 8.0, 400) / np.abs(X).sum(axis=0).max(axis=0)  # 1-norms from 1e-3 to 8
    delta = ((X[0, 0] - X[1, 1]) / 2.0) ** 2 + X[0, 1] * X[1, 0]
    assert (np.abs(delta) < 1.0).sum() > 20 and (np.abs(delta) >= 1.0).sum() > 20
    got, ref = energy._expm2(X), energy._expm(X)
    assert np.max(np.abs(got - ref).max(axis=(0, 1)) / np.abs(ref).max(axis=(0, 1))) < 1e-13
    assert np.array_equal(energy._expm2(np.zeros((2, 2, 3), dtype=complex)), np.broadcast_to(np.eye(2)[:, :, None], (2, 2, 3)))
    # each result depends on its own matrix alone: a large batch mate changes no bit
    X = np.concatenate((0.01 * rng.standard_normal((2, 2, 3)), 10.0 * rng.standard_normal((2, 2, 1))), axis=-1) + 0j
    assert np.array_equal(energy._expm2(X)[..., :3], energy._expm2(X[..., :3]))


def test_phi2_takes_each_branch_only_where_it_is_used():
    # against the series and the closed form both evaluated everywhere and picked by np.where, bit for bit
    ds = np.random.default_rng(21).uniform(-3.0, 3.0, 400)
    x = 1j * ds
    small = np.abs(ds) < 0.5
    series = np.zeros_like(x)
    for k in range(13, -1, -1):
        series = series * x + 1.0 / math.factorial(k + 2)
    safe = np.where(small, 1.0, x)
    want = np.where(small, series, (np.exp(safe) - 1.0 - safe) / safe**2)
    assert 30 < small.sum() < 370
    assert np.array_equal(energy._phi2(ds), want)
    assert np.array_equal(energy._phi2(ds[:, None]), want[:, None])


def _dense_node_steps(lm, ld, K, i, j, h):
    """The node step over (steps, m, m) arrays, every pair's entries at once: the reference for ``energy._node_steps``."""
    m = lm.shape[-1]
    diag = np.eye(m, dtype=bool)
    upper = np.triu_indices(m, 1)
    h = h[:, None]
    dphi = 0.5 * h * (lm[i] + lm[j]) + h**2 / 12.0 * (ld[i] - ld[j])
    ds = dphi[:, None, :] - dphi[:, :, None]  # increment of s_pq = Phi_q - Phi_p
    gap = lm[:, None, :] - lm[:, :, None]  # s_pq' = lam_q - lam_p
    left = K[i] * np.where(diag, h[..., None], ds / np.where(diag, 1.0, gap[i]))
    right = K[j] * np.where(diag, h[..., None], ds / np.where(diag, 1.0, gap[j]))
    w = energy._phi2(ds[:, upper[0], upper[1]])
    w0 = np.full(ds.shape, 0.5, dtype=complex)
    w0[:, upper[0], upper[1]] = w
    w0[:, upper[1], upper[0]] = w.conj()
    p1 = 1.0 + 1j * ds * w0  # phi_1
    omega = left * w0 + right * (p1 - w0)
    # the second Magnus term of the step's mean coupling M
    M = 0.5 * (K[i] + K[j])
    d = np.diagonal(M, axis1=-2, axis2=-1)
    cm = M * (d[..., :, None] - d[..., None, :]) * (2.0 * w0 - p1)
    k = np.arange(m)
    cm[..., k, k] = 2j * (M * np.swapaxes(M, -1, -2) * w0.imag).sum(-1)
    if m > 2:
        p, q, r = np.indices((m, m, m)).reshape(3, -1)
        distinct = (p != r) & (r != q) & (p != q)
        p, q, r = p[distinct], q[distinct], r[distinct]
        pairs = (p, r), (r, q), (p, q)
        D = energy._divided_moments(*(ds[..., a, b] for a, b in pairs), *(p1[..., a, b] for a, b in pairs))
        terms = M[..., p, r] * M[..., r, q] * D
        cm[..., p[:: m - 2], q[:: m - 2]] += terms.reshape(terms.shape[:-1] + (-1, m - 2)).sum(-1)
    omega += 0.5 * h[..., None] ** 2 * cm
    omega = np.ascontiguousarray(omega.transpose(1, 2, 0))
    return np.exp(1j * dphi.T)[:, None] * (energy._expm2 if m == 2 else energy._expm)(omega)


@pytest.mark.parametrize(
    "exp, batch",
    [(loss_experiment(1.5), None), (loss_experiment(1.5), 5), (m3_log_power_experiment(), None), (m4_log_power_experiment(), None)],
    ids=["shipped_batch", "batch5", "m3", "m4"],
)
def test_node_step_2_is_the_general_node_step_bit_for_bit(monkeypatch, exp, batch):
    # the frame inputs of a sweep, formed by the entry-wise node step and by the dense
    # reference above; at BATCH = 5 in chunks of two steps
    calls = []
    frame = energy._frame_propagators

    def spy(*args):
        calls.append(args)
        return frame(*args)

    monkeypatch.setattr(energy, "_frame_propagators", spy)
    evolve_sweep(exp)
    (args,) = calls
    if batch is not None:
        monkeypatch.setattr(energy, "BATCH", batch)
        args = args[:-1] + (args[-1][:400],)
    assert args[-1].size >= (400 if exp.operator.m == 2 else 300) and args[2].shape[-1] == exp.operator.m
    node_steps = energy._node_steps
    got = frame(*args)
    monkeypatch.setattr(energy, "_node_steps", _dense_node_steps)
    assert np.array_equal(got, frame(*args))
    # the exponents Omega1 + Omega2 too, whose last bits the exponential can round away
    for name in ("_expm", "_expm2"):
        monkeypatch.setattr(energy, name, lambda X: X)
    exponents = frame(*args)
    monkeypatch.setattr(energy, "_node_steps", node_steps)
    assert np.array_equal(frame(*args), exponents)


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
    traces = evolve_sweep(exp)
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
        def _time_jet(self, t, k=0):
            v = np.full_like(np.asarray(t, dtype=float), -1.0)
            return (v,) + (np.zeros_like(v),) * k

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
    traces = evolve_sweep(exp)
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
    times, e = sobolev_energy(traces, 0.7, [0.0, 4.0, 0.0])
    target = 2.0 * float(jbracket(xi0)) ** 0.7 * traces[1].norms
    assert np.max(np.abs(e - target)) < 1e-12
    # nu = 0 with a flat spectrum stays bounded by the conditioning constant
    times, e0 = sobolev_energy(traces, 0.0, np.ones(3))
    assert np.max(e0) / e0[0] < 3.0


def test_sobolev_energy_rejects_a_malformed_spectrum():
    op = HyperbolicOperatorSpec(2, (CoefficientSpec("constant", base=4.0), None))
    exp = small_experiment(operator=op)
    traces = [evolve_frequency(exp, xi) for xi in exp.xi_grid[:3]]
    for n in (2, 4):
        with pytest.raises(ValueError, match="one weight per trace"):
            sobolev_energy(traces, 0.7, np.ones(n))
    with pytest.raises(TypeError):  # a dict of as many weights is not read by its keys
        sobolev_energy(traces, 0.7, {tr.xi: 1.0 for tr in traces})
    with pytest.raises(ValueError, match="nonnegative"):
        sobolev_energy(traces, 0.7, [1.0, np.nan, 1.0])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: small_experiment(initial="foo"), "initial must be 'canonical' or 'random'"),
        (lambda: evolve_frequency(small_experiment(), 5.0), "xi=5.0 is not a grid point of this experiment"),
        (lambda: sobolev_energy([], 0.0, []), "no traces"),
        (
            lambda: sobolev_energy(
                [EnergyTrace.from_history(xi, [0.0, T], [1.0, 1.0]) for xi, T in ((4.0, 1.0), (8.0, 2.0))], 0.0, [1, 1]
            ),
            "traces must share a common sample grid",
        ),
        (
            lambda: closed_form_constant_trace(small_experiment(operator=OSC_OP), 4.0),
            "closed form available for constant coefficients only",
        ),
    ],
    ids=["initial", "off_grid_frequency", "no_traces", "mismatched_grids", "closed_form_not_constant"],
)
def test_energy_input_checks_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_theta_spec_validation_and_chi_shape():
    zp = ZoneParams(2.0, 2.0, 0.5)
    rho = power_law(1.0, role="rho")
    ts = ThetaSpec(ETA_LL, rho, zp)
    assert ramp_chi(0.5) == 0.0 and ramp_chi(1.0) == 1.0
    tau = np.linspace(-1.0, 2.0, 301)
    vals = ramp_chi(tau)
    assert np.all(np.diff(vals) >= -1e-15)


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
    ts = ThetaSpec(ETA_LL, rho, zp)
    xi = 100.0
    tt = np.linspace(0.0, 0.5, 2001)
    vals = np.asarray(theta0(ts, tt, xi))
    assert np.all(vals >= 0.0)
    assert np.max(np.abs(np.diff(vals))) < 0.2 * (np.max(vals) + 1.0)  # no jumps


def test_theta_integral_bound_flat_for_catalog():
    grid = np.geomspace(1e3, 1e6, 25)
    rho = power_law(1.0, role="rho")
    for eta, M in ((ETA_LL, 2.0), (power_law(0.5), 4.0)):
        ts = ThetaSpec(eta, rho, ZoneParams(2.0, M, 0.5))
        integrals, slope = theta_integral_bound(ts, grid)
        assert slope <= 0.05
        assert np.all(np.isfinite(integrals))


def test_theta_integral_matches_refined_simpson_of_theta0():
    # the telescoped integral against composite Simpson of theta0 itself, 2^16 intervals per knot interval
    rho = power_law(1.0, role="rho")
    for eta, M in ((ETA_LL, 2.0), (power_law(0.5), 4.0)):
        ts = ThetaSpec(eta, rho, ZoneParams(2.0, M, 0.5))
        for xi in (64.0, 1e3, 1e6):
            e = float(eta.value(1.0 / jbracket(xi)))
            knots = [min(c * 2.0 * e, 0.5) for c in (0.5, 1.0, 2.0)] + [0.5]
            pieces = (_simpson(lambda s: theta0(ts, s, xi), a, b, 2**16) for a, b in zip(knots, knots[1:]))
            assert integrate_theta0(ts, xi) == pytest.approx(knots[0] / e + sum(pieces), rel=2e-11)


@pytest.mark.parametrize("seed", range(8))
def test_weight_antiderivatives_integrate_w2_and_w3(seed):
    # each term of F changes by the integral of its own weight over a random
    # piece of the hyperbolic window [N eta(1/<xi>), T]: a wrong sign, a
    # missing 1/<xi> or rho(1/<xi>) would show
    rng = np.random.default_rng(seed)
    pairs = (
        (log_reciprocal(rng.uniform(0.5, 2.0)), power_law(rng.uniform(0.3, 1.0), role="rho")),
        (power_law(rng.uniform(0.2, 0.9)), power_law(rng.uniform(0.3, 1.0), role="rho")),
        (iterated_log(2), log_reciprocal(rng.uniform(0.5, 2.0), role="rho")),
    )
    for eta, rho in pairs:
        zone = ZoneParams(2.0, zone_floor(eta), 0.9 * eta.range_max)
        ts = ThetaSpec(eta, rho, zone)
        xi = np.exp(rng.uniform(np.log(zone.M), np.log(1e6), 4))
        on = zone.N * np.asarray(eta.value(1.0 / jbracket(xi)))
        xi, on = xi[on < zone.T], on[on < zone.T]
        assert xi.size > 0
        a, b = np.sort(on + (zone.T - on) * rng.uniform(size=(2, xi.size)), axis=0)
        (f2a, f3a), (f2b, f3b) = _weight_antiderivatives(ts, xi, a), _weight_antiderivatives(ts, xi, b)
        w2 = _simpson(lambda s: weight_w2(eta, xi, s), a, b, 2**14)
        w3 = _simpson(lambda s: weight_w3(eta, rho, xi, s), a, b, 2**14)
        assert w2 == pytest.approx(f2b - f2a, rel=1e-9)
        assert w3 == pytest.approx(f3b - f3a, rel=1e-9)


def test_theta_integrals_batched_match_per_frequency_loop():
    # from the floor M up, so the low frequencies' cutoff knots collapse onto T
    rho = power_law(1.0, role="rho")
    for eta, M in ((ETA_LL, 2.0), (power_law(0.5), 4.0)):
        ts = ThetaSpec(eta, rho, ZoneParams(2.0, M, 0.5))
        grid = np.geomspace(M, 1e6, 25)
        batched = integrate_theta0(ts, grid)
        loop = np.array([integrate_theta0(ts, x) for x in grid])
        assert np.max(np.abs(batched / loop - 1.0)) <= 1e-14
        assert np.array_equal(theta_integral_bound(ts, grid)[0], batched)


def test_m3_weights_keep_the_scalar_simpson_rule(monkeypatch):
    # a time-dependent a_1 leaves the remainder int S'/g_p, S = lam_1 + lam_2,
    # g_p = S - 2 lam_p, to composite Simpson next to the log of the gap sums
    spec = HyperbolicOperatorSpec(
        2, (CoefficientSpec("constant", base=2.0), CoefficientSpec("log_power_oscillation", base=1.0, delta=0.4))
    )
    xi, t, n = 256.0, 0.5, 512
    ends = np.stack([sum(row) for row in _root_gaps(roots_on_times(spec, np.array([0.0, t]), xi)[0])[0]], axis=-1)
    xs = np.linspace(0.0, t, n + 1)
    lam, lam_dot = roots_on_times(spec, xs, xi)
    g = np.stack([sum(row) for row in _root_gaps(lam)[0]], axis=-1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    remainder = (xs[1] - xs[0]) / 3.0 * (w @ (lam_dot.sum(axis=-1, keepdims=True) / g))
    want = 1j / 2 * (np.log(ends[1] / ends[0]) - remainder)
    monkeypatch.setattr(diagonalizers, "M3_INTERVALS", n)
    assert np.array_equal(m3_weights(spec, xi, t), want)
