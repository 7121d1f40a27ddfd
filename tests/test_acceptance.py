"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The two evolution experiments (criteria 5 and 6) take on the order
of a minute together; everything else finishes in seconds.
"""

import time

import numpy as np
import pytest

from hyplab.coefficients import CoefficientSpec, Mollifier, mollify
from hyplab.companion import HyperbolicOperatorSpec, RootSet, characteristic_roots, companion_symbol
from hyplab.conjugation import ThetaSpec, theta_integral_bound
from hyplab.diagonalizers import m1_inverse_symbol, m1_symbol
from hyplab.energy import (
    FrequencyExperiment,
    closed_form_constant_trace,
    estimate_loss,
    evolve_frequency,
)
from hyplab.moduli import log_reciprocal, power_law
from hyplab.tables import numeric_decay_rate
from hyplab.weights import classify, fit_loglog_slope, jbracket, zygmund_index_bound
from hyplab.zones import ZoneParams, zone_floor
from hyplab.zygmund import (
    DyadicDecomposition,
    GridFunction1D,
    norm_equivalence_report,
)


def _report(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


CLASSIFY_GRID = np.geomspace(1e3, 1e6, 25)
RHO_ID = power_law(1.0, role="rho")


def test_criterion_01_table_rates():
    start = time.time()
    ts = np.geomspace(0.01, 1.0, 33)
    alpha = 0.5
    eta_h = power_law(1.0 - alpha, r0=1.1)  # stencil room above t = 1
    closed_h = (1.0 / (1.0 - alpha)) * ts ** (-(2.0 - alpha) / (1.0 - alpha))
    err_h = np.max(np.abs(numeric_decay_rate(eta_h, ts) / closed_h - 1.0))

    eta_ll = log_reciprocal(1.0)
    closed_ll = np.exp(1.0 / ts) / ts**2
    numeric_ll = numeric_decay_rate(eta_ll, ts)
    err_ll = np.max(np.abs(numeric_ll / closed_ll - 1.0))
    err_sqrt = np.max(np.abs(np.sqrt(numeric_ll) / (np.exp(1.0 / (2.0 * ts)) / ts) - 1.0))

    elapsed = time.time() - start
    ok = err_h < 1e-6 and err_ll < 1e-6 and err_sqrt < 1e-6 and elapsed < 1.0
    assert _report(
        1, ok, f"rate errors holder {err_h:.2e}, loglip {err_ll:.2e}, sqrt {err_sqrt:.2e}, {elapsed:.2f}s"
    )


def test_criterion_02_classification():
    start = time.time()
    results = {}
    rep = classify(log_reciprocal(1.0), RHO_ID, ZoneParams(2.0, 2.0, 0.5), CLASSIFY_GRID, 0.01)
    results["loglip"] = rep.s_min == pytest.approx(1.01)
    m0_errs = []
    for alpha, target in ((0.2, 4.0 / 3.0), (1.0 / 3.0, 1.01), (0.5, 1.01)):
        eta = power_law(1.0 - alpha)
        zp = ZoneParams(2.0, zone_floor(eta), 0.5)
        rep = classify(eta, RHO_ID, zp, CLASSIFY_GRID, 0.01)
        m0_errs.append(abs(rep.m0 - (1.0 - alpha)))
        results[f"holder{alpha:.2f}"] = (
            abs(rep.s_min - target) < 0.02 and abs(rep.m0 - (1.0 - alpha)) <= 0.05
        )
    results["forced"] = zygmund_index_bound(1.0, 0.01) == pytest.approx(2.0)
    elapsed = time.time() - start
    ok = all(results.values()) and elapsed < 10.0
    assert _report(
        2, ok, f"rows {results}, max |m0 - (1-a)| = {max(m0_errs):.3f}, {elapsed:.1f}s"
    )


def test_criterion_03_explicit_inverse_oracle():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for m in range(2, 7):
        for _ in range(100):
            z = np.sort(rng.uniform(-5.0, 5.0, size=m))
            while np.min(np.diff(z)) < 0.25:
                z = np.sort(rng.uniform(-5.0, 5.0, size=m))
            xi = 100.0
            roots = RootSet(z * float(jbracket(xi)), xi)
            V = m1_symbol(roots)
            C = m1_inverse_symbol(roots)
            kappa = np.linalg.norm(V, np.inf) * np.linalg.norm(np.linalg.inv(V), np.inf)
            err = np.max(np.abs(C - np.linalg.inv(V))) / max(kappa, 1.0)
            worst = max(worst, err)
    elapsed = time.time() - start
    ok = worst < 1e-8 and elapsed < 5.0
    assert _report(3, ok, f"worst conditioning-scaled error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_exact_diagonalization():
    start = time.time()
    specs = {
        2: HyperbolicOperatorSpec(2, (CoefficientSpec("constant", base=4.0), None)),
        3: HyperbolicOperatorSpec(
            3,
            (
                CoefficientSpec("constant", base=0.5),
                CoefficientSpec("constant", base=2.0),
                CoefficientSpec("constant", base=0.25),
            ),
        ),
        # target roots (-1, -1/2, 0, 3) * xi; the elementary symmetric
        # functions give the all-positive coefficient list (a3, a2, a1)
        4: HyperbolicOperatorSpec(
            4,
            (
                None,
                CoefficientSpec("constant", base=1.5),
                CoefficientSpec("constant", base=4.0),
                CoefficientSpec("constant", base=1.5),
            ),
        ),
    }
    worst = 0.0
    for spec in specs.values():
        for xi in np.geomspace(16.0, 1600.0, 9):
            roots = characteristic_roots(spec, 0.1, None, float(xi))
            A = companion_symbol(spec, 0.1, None, float(xi))
            V = m1_symbol(roots)
            Vinv = m1_inverse_symbol(roots)
            err = np.max(np.abs(Vinv @ A @ V - np.diag(roots.lam))) / np.max(np.abs(roots.lam))
            worst = max(worst, err)
    elapsed = time.time() - start
    ok = worst < 1e-8 and elapsed < 5.0
    assert _report(4, ok, f"worst relative off-diagonal residue {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_no_loss_very_slow_oscillation():
    start = time.time()
    op = HyperbolicOperatorSpec(
        2, (CoefficientSpec("log_power_oscillation", base=2.0, delta=0.5, gamma_osc=0.0), None)
    )
    grid = np.geomspace(2.0**4, 2.0**12, int(8 * np.log10(2.0**8)) + 1)
    exp = FrequencyExperiment(
        op, grid, ZoneParams(2.0, 2.0, 0.5), log_reciprocal(1.0), step_factor=0.05
    )
    traces = [evolve_frequency(exp, float(x)) for x in grid]
    loss = estimate_loss(exp, traces)
    elapsed = time.time() - start
    ok = loss.nu0_hat <= 0.05
    assert _report(
        5, ok, f"nu0_hat = {loss.nu0_hat:+.4f} (stderr {loss.stderr:.4f}) <= 0.05, {elapsed:.0f}s"
    )


def test_criterion_06_loss_ordering():
    start = time.time()
    grid = np.geomspace(2.0**6, 2.0**14, int(16 * np.log10(2.0**8)) + 1)
    nu = []
    for gamma in (0.0, 0.5, 1.0, 1.5):
        op = HyperbolicOperatorSpec(
            2,
            (CoefficientSpec("log_power_oscillation", base=2.0, delta=0.95, gamma_osc=gamma), None),
        )
        exp = FrequencyExperiment(
            op, grid, ZoneParams(2.0, 2.0, 0.5), log_reciprocal(1.0), step_factor=0.1
        )
        traces = [evolve_frequency(exp, float(x)) for x in grid]
        nu.append(estimate_loss(exp, traces).nu0_hat)
    elapsed = time.time() - start
    nondecreasing = all(nu[i] <= nu[i + 1] for i in range(3))
    gap = nu[3] - nu[0]
    ok = nondecreasing and gap >= 0.1
    assert _report(
        6,
        ok,
        f"nu0_hat = {[f'{v:+.4f}' for v in nu]}, nondecreasing={nondecreasing}, "
        f"gap {gap:.3f} >= 0.1, {elapsed:.0f}s",
    )


def test_criterion_07_theta_integral_flat():
    start = time.time()
    slopes = {}
    for label, eta, M in (
        ("loglip", log_reciprocal(1.0), 2.0),
        ("holder05", power_law(0.5), 4.0),
    ):
        ts = ThetaSpec(eta, RHO_ID, ZoneParams(2.0, M, 0.5))
        rep = theta_integral_bound(ts, CLASSIFY_GRID)
        slopes[label] = rep.top_decade_slope
    elapsed = time.time() - start
    ok = all(s <= 0.05 for s in slopes.values()) and elapsed < 30.0
    assert _report(7, ok, f"slopes {slopes}, {elapsed:.1f}s")


def test_criterion_08_regularization_rates():
    start = time.time()
    alpha = 0.5
    spec = CoefficientSpec("holder_rough", delta=0.5, alpha=alpha)
    mol = Mollifier()
    # whole octaves: the lacunary constant is log2-periodic in the width
    eps_grid = 1.0 / jbracket(np.geomspace(2.0**5, 2.0**14, 19))
    ts = np.linspace(0.05, 0.45, 41)
    sup_diff, sup_d1 = [], []
    for eps in eps_grid:
        a_eps, d1_eps, _ = mollify(spec, mol, float(eps), ts)
        sup_diff.append(np.max(np.abs(a_eps - spec.value(ts))))
        sup_d1.append(np.max(np.abs(d1_eps)))
    s_diff, _ = fit_loglog_slope(eps_grid, sup_diff)
    s_d1, _ = fit_loglog_slope(eps_grid, sup_d1)
    elapsed = time.time() - start
    ok = abs(s_diff - alpha) <= 0.1 and abs(s_d1 - (alpha - 1.0)) <= 0.1 and elapsed < 30.0
    assert _report(
        8, ok, f"|a_eps - a| ~ eps^{s_diff:.3f} (target 0.5), "
        f"|d_t a_eps| ~ eps^{s_d1:.3f} (target -0.5), {elapsed:.1f}s"
    )


def test_criterion_09_zygmund_estimators():
    start = time.time()
    slope_errs, ratios = [], []
    for s0 in (0.7, 1.2):
        u = GridFunction1D.from_callable(
            lambda x: sum(2.0 ** (-j * s0) * np.cos(2.0**j * x) for j in range(11)), n=4096
        )
        sups = DyadicDecomposition.of(u).block_sup_norms()
        js = np.arange(1, 11)
        slope, _ = fit_loglog_slope(2.0**js, sups[js])
        slope_errs.append(abs(slope + s0))
        ratios.append(norm_equivalence_report(u, s0)["ratio"])
    const_ratio = norm_equivalence_report(GridFunction1D(np.full(128, 2.5)), 0.9)["ratio"]
    elapsed = time.time() - start
    ok = (
        max(slope_errs) <= 0.05
        and all(1.0 / 16.0 <= r <= 16.0 for r in ratios)
        and abs(const_ratio - 1.0) < 1e-6
        and elapsed < 10.0
    )
    assert _report(
        9,
        ok,
        f"slope errors {[f'{e:.3f}' for e in slope_errs]}, ratios {[f'{r:.2f}' for r in ratios]}, "
        f"constant ratio {const_ratio:.8f}, {elapsed:.1f}s",
    )


def test_criterion_10_integrator_trust():
    start = time.time()
    op = HyperbolicOperatorSpec(2, (CoefficientSpec("constant", base=4.0), None))
    grid = np.geomspace(4.0, 512.0, 11)
    exp = FrequencyExperiment(op, grid, ZoneParams(2.0, 2.0, 1.0), log_reciprocal(1.0))
    worst_traj, worst_halving = 0.0, 0.0
    for xi in grid:
        tr = evolve_frequency(exp, float(xi))
        oracle = closed_form_constant_trace(exp, float(xi))
        worst_traj = max(worst_traj, float(np.max(np.abs(tr.norms - oracle.norms) / oracle.norms)))
        half = evolve_frequency(exp, float(xi), step_scale=0.5)
        worst_halving = max(
            worst_halving, abs(half.amplification - tr.amplification) / tr.amplification
        )
    elapsed = time.time() - start
    ok = worst_traj < 1e-6 and worst_halving < 1e-5 and elapsed < 30.0
    assert _report(
        10,
        ok,
        f"worst trajectory error {worst_traj:.2e} < 1e-6, "
        f"worst halving change {worst_halving:.2e} < 1e-5, {elapsed:.1f}s",
    )
