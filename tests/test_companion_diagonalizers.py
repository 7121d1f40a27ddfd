import numpy as np
import pytest

from hyplab.coefficients import CoefficientSpec, Mollifier, mollify
from hyplab.companion import (
    HyperbolicityViolation,
    HyperbolicOperatorSpec,
    NearMultipleRoot,
    RootSet,
    _companion,
    _root_rates,
    _roots,
    characteristic_roots,
    companion_symbol,
    roots_on_times,
)
from hyplab.diagonalizers import (
    DiagonalizerIllConditioned,
    _c1,
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
    assert A[0, 1] == pytest.approx(jb)
    assert A[1, 0] == pytest.approx(4.0 * 9.0 / jb)
    assert A[0, 0] == 0.0 and A[1, 1] == 0.0
    ev = np.sort(np.linalg.eigvals(A).real)
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
    ev = np.sort(np.linalg.eigvals(companion_symbol(spec, 0.1, None, xi)).real)
    assert np.max(np.abs(ev - roots.lam) / np.abs(roots.lam).max()) < 1e-6


def test_companion_nilpotent_when_all_coefficients_vanish():
    spec = HyperbolicOperatorSpec(3, (None, None, None))
    A = companion_symbol(spec, 0.1, None, 8.0)
    assert np.max(np.abs(np.linalg.eigvals(A))) < 1e-8


def test_m1_hand_inverse_m2():
    jb = float(jbracket(3.0))
    roots = RootSet(np.array([-jb, jb]), 3.0)
    V = m1_symbol(roots)
    assert V == pytest.approx(np.array([[1.0, 1.0], [-1.0, 1.0]]))
    C = m1_inverse_symbol(roots)
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
            V = m1_symbol(roots)
            C = m1_inverse_symbol(roots)
            resid = np.max(np.abs(C @ V - np.eye(m)))
            assert resid < 1e-8


def test_c1_zero_for_frozen_roots_and_linearity():
    roots = RootSet(np.array([-3.0, 1.0, 4.0]) * 100.0, 100.0)
    zero = c1_entries(roots, np.zeros(3))
    assert np.max(np.abs(zero)) == 0.0
    dt = np.array([1.0, -2.0, 0.5]) * 10.0
    E1 = c1_entries(roots, dt)
    E2 = c1_entries(roots, 2.0 * dt)
    assert E2 == pytest.approx(2.0 * E1)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_c1_matches_matrix_product_oracle(m):
    # compare against M1^-1 (D_t M1) with a finite-difference D_t M1, on
    # seeded random roots separated by at least 0.3 <xi>
    xi = 40.0
    jb = float(jbracket(xi))
    rng = np.random.default_rng(100 + m)
    z = np.sort(rng.uniform(-2.5, 2.5, size=m))
    while np.min(np.diff(z)) < 0.3:
        z = np.sort(rng.uniform(-2.5, 2.5, size=m))
    lam = z * jb
    lam_dot = rng.uniform(-1.5, 1.5, size=m) * jb
    roots = RootSet(lam, xi)
    h = 1e-7
    Vp = m1_symbol(RootSet(lam + h * lam_dot, xi))
    Vm = m1_symbol(RootSet(lam - h * lam_dot, xi))
    DtM1 = -1j * (Vp - Vm) / (2.0 * h)
    oracle = m1_inverse_symbol(roots) @ DtM1
    got = c1_entries(roots, lam_dot)
    assert np.max(np.abs(got - oracle)) < 1e-6 * np.max(np.abs(got))
    # diagonal in closed form: e_pp = -D_t lam_p sum_{i != p} 1/(lam_i - lam_p)
    for p in range(m):
        expect = 1j * lam_dot[p] * np.sum(1.0 / (np.delete(lam, p) - lam[p]))
        assert got[p, p] == pytest.approx(expect, rel=1e-12)
    # M2 divides the off-diagonal of C1 by the root gap
    D = m2_symbol(roots, 1e-3 * lam_dot, Zone.HYPERBOLIC)
    E = c1_entries(roots, 1e-3 * lam_dot)
    for p in range(m):
        for q in range(m):
            if p != q:
                assert D[p, q] == pytest.approx(E[p, q] / (lam[p] - lam[q]), rel=1e-12)
    assert np.diag(D) == pytest.approx(np.ones(m))


def test_m2_identity_cases_and_guard():
    roots = RootSet(np.array([-1.0, 1.0]) * 64.0, 64.0)
    assert m2_symbol(roots, np.zeros(2), Zone.HYPERBOLIC) == pytest.approx(np.eye(2))
    big_dt = np.array([1e5, -1e5])
    assert m2_symbol(roots, big_dt, Zone.PSEUDODIFFERENTIAL) == pytest.approx(np.eye(2))
    with pytest.raises(DiagonalizerIllConditioned):
        m2_symbol(roots, big_dt, Zone.HYPERBOLIC)


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
        D = m2_symbol(RootSet(lam[0], xi), dt[0], Zone.HYPERBOLIC)
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


@pytest.mark.parametrize("xi", [16.0, 64.0, 256.0])
def test_m3_weights_match_telescoped_integral(xi):
    # m = 2 with a_1 = 0: lam = -+ xi sqrt(a), so D_s lam_p / (lam_q - lam_p)
    # = i a'/(4a) and the integral telescopes to (i/4) log(a_eps(T)/a_eps(0))
    coeff = CoefficientSpec("log_power_oscillation", delta=0.5)
    spec = HyperbolicOperatorSpec(2, (coeff, None))
    T = 0.5
    a_eps = mollify(coeff, Mollifier(), 1.0 / float(jbracket(xi)), np.array([0.0, T]))[0]
    expect = 0.25 * abs(np.log(a_eps[1] / a_eps[0]))
    res = m3_weights(spec, None, xi, T)
    assert np.abs(res.integrals) == pytest.approx([expect, expect], rel=5e-3)


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
        A = companion_symbol(spec, 0.1, None, float(xi))
        V = m1_symbol(roots)
        Vinv = m1_inverse_symbol(roots)
        diag = Vinv @ A @ V
        err = np.max(np.abs(diag - np.diag(roots.lam)))
        assert err < 1e-8 * np.max(np.abs(roots.lam))


def _separated(rng, m, lo=-2.0, hi=2.0, gap=0.2):
    """Seeded sorted reals in [lo, hi], pairwise at least ``gap`` apart."""
    z = np.sort(rng.uniform(lo, hi, size=m))
    while m > 1 and np.min(np.diff(z)) < gap:
        z = np.sort(rng.uniform(lo, hi, size=m))
    return z


def _coefficients(lam, xi):
    """Coefficient values a_{m-j} whose characteristic polynomial has the roots lam."""
    m = lam.size
    # prod_k (l - lam_k) = l^m - sum_j b_j l^j with b_j = a_{m-j} xi^(m-j)
    b = -np.poly(lam)[::-1][:m]
    return b / xi ** (m - np.arange(m))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_property_companion_eigenvalues_and_m1_inverse(m):
    rng = np.random.default_rng(300 + m)
    for _ in range(20):
        xi = float(rng.uniform(10.0, 1e4))
        jb = float(jbracket(xi))
        lam = _separated(rng, m) * jb
        vals = _coefficients(lam, xi)
        ev = np.sort(np.linalg.eigvals(_companion(vals, xi)).real)
        roots = _roots(vals[None, :], xi, 1e-6)[0]
        assert np.max(np.abs(ev - lam)) < 1e-9 * jb
        assert np.max(np.abs(roots - ev)) < 1e-9 * jb
        rs = RootSet(roots, xi)
        assert np.max(np.abs(m1_symbol(rs) @ m1_inverse_symbol(rs) - np.eye(m))) < 1e-9


@pytest.mark.parametrize("m", [2, 3])
def test_property_raw_root_rates_match_centred_differences(m):
    # coefficients linear in t around a strictly hyperbolic symbol; the rates by
    # implicit differentiation against centred differences of the roots
    rng = np.random.default_rng(400 + m)
    xi = float(rng.uniform(50.0, 5e3))
    jb = float(jbracket(xi))
    vals0 = _coefficients(_separated(rng, m, gap=0.5) * jb, xi)
    slope = 0.05 * np.abs(vals0).max() * rng.uniform(-1.0, 1.0, size=m)
    ts = rng.uniform(0.0, 1.0, size=32)

    def roots_at(t):
        return _roots(vals0 + np.multiply.outer(t, slope), xi, 1e-6)

    lam = roots_at(ts)
    rates = _root_rates(lam, np.broadcast_to(slope, lam.shape), xi)
    h = 1e-4
    fd = (roots_at(ts + h) - roots_at(ts - h)) / (2.0 * h)
    assert np.max(np.abs(fd - rates)) < 1e-6 * np.max(np.abs(rates))
    # the batched first-step correction is the per-point one, row by row
    E = _c1(lam, rates, xi)[0]
    for k in range(ts.size):
        assert np.array_equal(E[k], c1_entries(RootSet(lam[k], xi), rates[k]))
