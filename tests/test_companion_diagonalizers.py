import numpy as np
import pytest

from hyplab.coefficients import CoefficientSpec, Mollifier
from hyplab.companion import (
    HyperbolicityViolation,
    HyperbolicOperatorSpec,
    NearMultipleRoot,
    RootSet,
    characteristic_roots,
    companion_symbol,
    roots_on_times,
)
from hyplab.diagonalizers import (
    DiagonalizerIllConditioned,
    c1_entries,
    m1_inverse_symbol,
    m1_symbol,
    m2_symbol,
    m3_weights,
)
from hyplab.moduli import power_law
from hyplab.weights import fit_loglog_slope, jbracket
from hyplab.zones import Zone, ZoneParams, zone_boundary

WAVE2 = HyperbolicOperatorSpec(2, (CoefficientSpec("constant", base=4.0), None))


class NegativeConstant(CoefficientSpec):
    # test-only override producing a non-hyperbolic principal coefficient
    def _time_value(self, t):
        return np.full_like(np.asarray(t, dtype=float), -1.0)


def test_roots_wave_speed_two():
    roots = characteristic_roots(WAVE2, 0.1, None, 3.0)
    assert roots.lam == pytest.approx([-6.0, 6.0], rel=1e-12)


def test_roots_recover_constructed_targets():
    # targets (-|xi|, 0, |xi|) come from the polynomial lam^3 - xi^2 lam
    spec = HyperbolicOperatorSpec(3, (None, CoefficientSpec("constant", base=1.0), None))
    for xi in (7.0, 2.0**10):
        roots = characteristic_roots(spec, 0.2, None, xi)
        assert np.max(np.abs(roots.lam - np.array([-xi, 0.0, xi]))) < 1e-9 * xi


def test_roots_reject_complex_and_near_multiple():
    bad = HyperbolicOperatorSpec(2, (NegativeConstant("constant", base=1.0), None))
    with pytest.raises(HyperbolicityViolation):
        characteristic_roots(bad, 0.1, None, 4.0)
    degenerate = HyperbolicOperatorSpec(
        3, (None, CoefficientSpec("constant", base=1.0), None), delta_sep=1.5
    )
    with pytest.raises(NearMultipleRoot):
        characteristic_roots(degenerate, 0.1, None, 4.0)


def test_roots_homogeneity():
    spec = HyperbolicOperatorSpec(
        2, (CoefficientSpec("log_power_oscillation", delta=0.5), None)
    )
    lam_lo = characteristic_roots(spec, 0.2, None, 10.0).lam
    for c in (10.0, 100.0):
        lam_hi = characteristic_roots(spec, 0.2, None, 10.0 * c).lam
        assert np.max(np.abs(lam_hi / c - lam_lo) / np.abs(lam_lo).max()) < 1e-3


def test_companion_symbol_structure_and_eigenvalues():
    A = companion_symbol(WAVE2, 0.1, None, 3.0)
    jb = float(jbracket(3.0))
    assert A.entries[0, 1] == pytest.approx(jb)
    assert A.entries[1, 0] == pytest.approx(4.0 * 9.0 / jb)
    assert A.entries[0, 0] == 0.0 and A.entries[1, 1] == 0.0
    ev = np.sort(np.linalg.eigvals(A.entries).real)
    assert ev == pytest.approx([-6.0, 6.0], rel=1e-12)


def test_companion_matches_roots_general_order():
    spec = HyperbolicOperatorSpec(
        3,
        (
            CoefficientSpec("constant", base=0.5),
            CoefficientSpec("constant", base=2.0),
            CoefficientSpec("constant", base=0.25),
        ),
    )
    xi = 2.0**10
    roots = characteristic_roots(spec, 0.1, None, xi)
    ev = np.sort(np.linalg.eigvals(companion_symbol(spec, 0.1, None, xi).entries).real)
    assert np.max(np.abs(ev - roots.lam) / np.abs(roots.lam).max()) < 1e-6


def test_companion_nilpotent_when_all_coefficients_vanish():
    spec = HyperbolicOperatorSpec(3, (None, None, None))
    A = companion_symbol(spec, 0.1, None, 8.0).entries
    assert np.max(np.abs(np.linalg.eigvals(A))) < 1e-8


def test_m1_hand_inverse_m2():
    jb = float(jbracket(3.0))
    roots = RootSet(np.array([-jb, jb]), 3.0)
    V = m1_symbol(roots, 3.0).entries
    assert V == pytest.approx(np.array([[1.0, 1.0], [-1.0, 1.0]]))
    C = m1_inverse_symbol(roots, 3.0).entries
    assert C == pytest.approx(np.array([[0.5, -0.5], [0.5, 0.5]]))


def test_m1_m1inv_random_roots():
    rng = np.random.default_rng(7)
    for m in (1, 2, 3, 4, 5, 6):
        for _ in range(20):
            z = np.sort(rng.uniform(-5.0, 5.0, size=m))
            while m > 1 and np.min(np.diff(z)) < 0.3:
                z = np.sort(rng.uniform(-5.0, 5.0, size=m))
            xi = 50.0
            roots = RootSet(z * float(jbracket(xi)), xi)
            V = m1_symbol(roots, xi).entries
            C = m1_inverse_symbol(roots, xi).entries
            resid = np.max(np.abs(C @ V - np.eye(m)))
            assert resid < 1e-8


def test_c1_zero_for_frozen_roots_and_linearity():
    roots = RootSet(np.array([-3.0, 1.0, 4.0]) * 100.0, 100.0)
    zero = c1_entries(roots, np.zeros(3), 100.0).entries
    assert np.max(np.abs(zero)) == 0.0
    dt = np.array([1.0, -2.0, 0.5]) * 10.0
    E1 = c1_entries(roots, dt, 100.0).entries
    E2 = c1_entries(roots, 2.0 * dt, 100.0).entries
    assert E2 == pytest.approx(2.0 * E1)


def test_c1_matches_matrix_product_oracle():
    # compare against M1^-1 (D_t M1) with a finite-difference D_t M1
    xi = 40.0
    lam = np.array([-2.2, 1.7]) * float(jbracket(xi))
    lam_dot = np.array([0.8, -1.3]) * float(jbracket(xi))
    h = 1e-7
    Vp = m1_symbol(RootSet(lam + h * lam_dot, xi), xi).entries
    Vm = m1_symbol(RootSet(lam - h * lam_dot, xi), xi).entries
    DtM1 = -1j * (Vp - Vm) / (2.0 * h)
    oracle = m1_inverse_symbol(RootSet(lam, xi), xi).entries @ DtM1
    got = c1_entries(RootSet(lam, xi), lam_dot, xi).entries
    assert np.max(np.abs(got - oracle)) < 1e-6 * np.max(np.abs(got))
    # diagonal entry in closed form: e_11 = -D_t lam_1 / (lam_2 - lam_1)
    assert got[0, 0] == pytest.approx(1j * lam_dot[0] / (lam[1] - lam[0]), rel=1e-12)


def test_m2_identity_cases_and_guard():
    roots = RootSet(np.array([-1.0, 1.0]) * 64.0, 64.0)
    assert m2_symbol(roots, np.zeros(2), 64.0, Zone.HYPERBOLIC).entries == pytest.approx(np.eye(2))
    big_dt = np.array([1e5, -1e5])
    assert m2_symbol(roots, big_dt, 64.0, Zone.PSEUDODIFFERENTIAL).entries == pytest.approx(np.eye(2))
    with pytest.raises(DiagonalizerIllConditioned):
        m2_symbol(roots, big_dt, 64.0, Zone.HYPERBOLIC)


def test_m2_entries_shrink_along_zone_boundary():
    spec = HyperbolicOperatorSpec(2, (CoefficientSpec("holder_rough", delta=0.5, alpha=0.5), None))
    eta = power_law(0.5)
    zp = ZoneParams(N=2.0, M=4.0, T=0.5)
    mol = Mollifier()
    offs = []
    xis = np.geomspace(2.0**6, 2.0**14, 9)
    for xi in xis:
        t = min(2.0 * zone_boundary(eta, zp, xi), 0.45)
        lam, dt = roots_on_times(spec, np.array([t]), None, xi, mol)
        D = m2_symbol(RootSet(lam[0], xi), dt[0], xi, Zone.HYPERBOLIC).entries
        offs.append(np.max(np.abs(D - np.eye(2))))
    slope, _ = fit_loglog_slope(xis, offs)
    assert slope < -0.05


ROUGH2 = HyperbolicOperatorSpec(2, (CoefficientSpec("holder_rough", delta=0.5, alpha=0.5), None))
ROUGH3 = HyperbolicOperatorSpec(
    3,
    (
        CoefficientSpec("constant", base=0.5),
        CoefficientSpec("holder_rough", base=2.0, delta=0.5, alpha=0.5),
        CoefficientSpec("constant", base=0.25),
    ),
)


@pytest.mark.parametrize(
    "spec, xi",
    [(ROUGH2, 100.0), (ROUGH2, 1e5), (ROUGH3, 1e3)],
    ids=["m2-xi1e2", "m2-xi1e5", "m3-xi1e3"],
)
def test_root_rates_match_centred_differences(spec, xi):
    # centred differences of the roots converge to the exact rates at order two
    mol = Mollifier()
    eps = 1.0 / float(jbracket(xi))
    ts = np.linspace(0.05, 0.45, 9)
    _, lam_dot = roots_on_times(spec, ts, None, xi, mol)
    errs = []
    for h in (eps / 8.0, eps / 32.0, eps / 128.0):
        fd = (roots_on_times(spec, ts + h, None, xi, mol)[0] - roots_on_times(spec, ts - h, None, xi, mol)[0]) / (2.0 * h)
        errs.append(np.max(np.abs(fd - lam_dot)) / np.max(np.abs(lam_dot)))
    assert errs[0] > 10.0 * errs[1] > 100.0 * errs[2]
    assert errs[2] < 1e-3


def test_m3_constant_coefficients_unit_weights():
    res = m3_weights(WAVE2, None, 32.0, 0.5, quadrature=256)
    assert res.magnitudes == pytest.approx([1.0, 1.0], abs=1e-12)
    assert np.max(np.abs(res.integrals)) < 1e-12


def test_m3_integral_bounded_over_sweep():
    spec = HyperbolicOperatorSpec(
        2, (CoefficientSpec("log_power_oscillation", delta=0.5), None)
    )
    vals = []
    for xi in np.geomspace(2.0**4, 2.0**10, 7):
        res = m3_weights(spec, None, float(xi), 0.5, quadrature=512)
        vals.append(np.max(np.abs(res.integrals)))
    vals = np.array(vals)
    assert np.all(np.isfinite(vals))
    # m = 2: the integral telescopes to (1/4) log a_eps ratio, bounded by ellipticity;
    # stability across the top decade means staying inside that uniform bound
    bound = 0.25 * np.log(2.5 / 1.5) + 0.05
    assert np.max(vals) < bound
    assert np.max(vals[-3:]) < bound


def test_m3_amplitude_doubling_stays_bounded():
    mild = HyperbolicOperatorSpec(2, (CoefficientSpec("log_power_oscillation", delta=0.45), None))
    strong = HyperbolicOperatorSpec(2, (CoefficientSpec("log_power_oscillation", delta=0.9), None))
    xi = 2.0**8
    i_mild = np.max(np.abs(m3_weights(mild, None, xi, 0.5, quadrature=512).integrals))
    i_strong = np.max(np.abs(m3_weights(strong, None, xi, 0.5, quadrature=512).integrals))
    assert np.isfinite(i_strong)
    assert i_strong < 0.25 * np.log(2.9 / 1.1) + 0.05
    assert i_strong > i_mild  # stronger oscillation, larger (still bounded) integral


def test_exact_diagonalization_frozen_time():
    spec = HyperbolicOperatorSpec(
        3,
        (
            CoefficientSpec("constant", base=0.5),
            CoefficientSpec("constant", base=2.0),
            CoefficientSpec("constant", base=0.25),
        ),
    )
    for xi in np.geomspace(8.0, 800.0, 5):
        roots = characteristic_roots(spec, 0.1, None, float(xi))
        A = companion_symbol(spec, 0.1, None, float(xi)).entries
        V = m1_symbol(roots, float(xi)).entries
        Vinv = m1_inverse_symbol(roots, float(xi)).entries
        diag = Vinv @ A @ V
        err = np.max(np.abs(diag - np.diag(roots.lam)))
        assert err < 1e-8 * np.max(np.abs(roots.lam))
