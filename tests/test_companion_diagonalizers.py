import numpy as np
import pytest

from hyplab import coefficients, diagonalizers
from hyplab.coefficients import CoefficientSpec, mollify
from hyplab.companion import (
    HyperbolicityViolation,
    HyperbolicOperatorSpec,
    NearMultipleRoot,
    _companion,
    _root_gaps,
    _root_rates,
    _root_rates_2,
    _root_rates_m,
    _roots,
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
from hyplab.zones import ZoneParams, zone_boundary

WAVE2 = HyperbolicOperatorSpec(2, (CoefficientSpec("constant", base=4.0), None))


class NegativeConstant(CoefficientSpec):
    # test-only override producing a non-hyperbolic principal coefficient
    def _time_jet(self, t, k=0):
        v = np.full_like(np.asarray(t, dtype=float), -1.0)
        return (v,) + (np.zeros_like(v),) * k


def test_roots_wave_speed_two():
    lam, lam_dot = characteristic_roots(WAVE2, 0.1, 3.0)
    assert lam.shape == lam_dot.shape == (1, 2)
    assert lam[0] == pytest.approx([-6.0, 6.0], rel=1e-12)
    assert np.all(lam_dot == 0.0)


def test_roots_recover_constructed_targets():
    # targets (-|xi|, 0, |xi|) come from the polynomial lam^3 - xi^2 lam
    spec = HyperbolicOperatorSpec(3, (None, CoefficientSpec("constant", base=1.0), None))
    for xi in (7.0, 2.0**10):
        lam = characteristic_roots(spec, 0.2, xi)[0][0]
        assert np.max(np.abs(lam - np.array([-xi, 0.0, xi]))) < 1e-9 * xi


def test_roots_reject_complex_and_near_multiple():
    bad = HyperbolicOperatorSpec(2, (NegativeConstant("constant", base=1.0), None))
    with pytest.raises(HyperbolicityViolation):
        characteristic_roots(bad, 0.1, 4.0)
    degenerate = HyperbolicOperatorSpec(
        3, (None, CoefficientSpec("constant", base=1.0), None), delta_sep=1.5
    )
    with pytest.raises(NearMultipleRoot):
        characteristic_roots(degenerate, 0.1, 4.0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: HyperbolicOperatorSpec(1, (WAVE2.coeffs[0],)), ValueError, "operator order must be at least 2"),
        (lambda: HyperbolicOperatorSpec(2, (WAVE2.coeffs[0],)), ValueError, "need 2 coefficient slots, got 1"),
        # an infinite coefficient value reaches the m = 2 closed form, which rejects it as eigvals would
        # (CoefficientSpec itself rejects base = inf)
        (
            lambda: _roots(np.array([[np.inf, 0.0]]), 4.0, 1e-6),
            np.linalg.LinAlgError,
            "must not contain infs or NaNs",
        ),
        # two equal normalized roots: the explicit inverse would divide by a zero gap product
        (lambda: m1_inverse_symbol(np.array([3.0, 3.0]), 4.0), NearMultipleRoot, "root gap underflow below 1.000e-12"),
    ],
    ids=["order_1", "slot_count", "infinite_coefficient", "gap_underflow"],
)
def test_companion_input_checks_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_quadratic_roots_keep_each_root_to_its_relative_accuracy(monkeypatch):
    # m = 2 roots from coefficients built from chosen (lam1, lam2), a root 1e-10
    # the size of the other among them, each to its own relative accuracy;
    # eigvals, which m = 2 does not call, is off by about 3e-7 on the small root
    def no_eigvals(*args):
        raise AssertionError("m = 2 roots called eigvals")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    pairs = [(1e-10, 1.0), (-1e-10, 1.0), (-1.0, 1e-10), (-1.0, -1e-10), (-1.0, 1.0), (0.3, 2.5), (-3.0, 0.5)]
    for xi in (7.0, 1000.0, 2.0**20):
        lam = np.array(pairs) * jbracket(xi)
        vals = np.array([_coefficients(z, xi) for z in lam])
        got = _roots(vals, xi, 1e-6)
        assert np.max(np.abs(got - lam) / np.abs(lam)) <= 1e-14


def test_quadratic_roots_gates_name_the_first_failing_frequency():
    xi = np.array([2.0, 4.0, 4.0, 8.0])
    jb = jbracket(xi)
    # a_2 = -1: roots +- i xi from xi = 4 on
    vals = np.zeros((4, 2))
    vals[:, 0] = [1.0, -1.0, -0.25, -1.0]
    with pytest.raises(HyperbolicityViolation) as err:
        _roots(vals, xi, 1e-6)
    assert str(err.value) == f"complex characteristic roots at xi=4.0: max |Im| = 4.000e+00 > {1e-8 * jb[1]:.3e}"
    # roots (1, 1.25) <xi> at xi = 4, under the margin 0.5 <xi>
    vals = np.array([_coefficients(np.array(z) * jb[1], 4.0) for z in [(-1.0, 1.0), (1.0, 1.25)]])
    with pytest.raises(NearMultipleRoot) as err:
        _roots(vals, 4.0, 0.5)
    assert str(err.value) == f"root gap {0.25 * jb[1]:.3e} below margin {0.5 * jb[1]:.3e} at xi=4.0"
    # w^2 < 0 inside the imaginary tolerance: both roots are real(mu), a gap of 0
    vals = np.array([[-1e-18, 0.0]])
    with pytest.raises(NearMultipleRoot) as err:
        _roots(vals, 4.0, 1e-6)
    assert str(err.value) == f"root gap 0.000e+00 below margin {1e-6 * jb[1]:.3e} at xi=4.0"


def test_roots_homogeneity():
    spec = HyperbolicOperatorSpec(
        2, (CoefficientSpec("log_power_oscillation", delta=0.5), None)
    )
    lam_lo = characteristic_roots(spec, 0.2, 10.0)[0][0]
    for c in (10.0, 100.0):
        lam_hi = characteristic_roots(spec, 0.2, 10.0 * c)[0][0]
        assert np.max(np.abs(lam_hi / c - lam_lo) / np.abs(lam_lo).max()) < 1e-3


def test_companion_symbol_structure_and_eigenvalues():
    A = companion_symbol(WAVE2, 0.1, 3.0)
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
    lam = characteristic_roots(spec, 0.1, xi)[0][0]
    ev = np.sort(np.linalg.eigvals(companion_symbol(spec, 0.1, xi)).real)
    assert np.max(np.abs(ev - lam) / np.abs(lam).max()) < 1e-6


def test_companion_nilpotent_when_all_coefficients_vanish():
    spec = HyperbolicOperatorSpec(3, (None, None, None))
    A = companion_symbol(spec, 0.1, 8.0)
    assert np.max(np.abs(np.linalg.eigvals(A))) < 1e-8


def test_m1_hand_inverse_m2():
    jb = float(jbracket(3.0))
    lam = np.array([-jb, jb])
    V = m1_symbol(lam, 3.0)
    assert V == pytest.approx(np.array([[1.0, 1.0], [-1.0, 1.0]]))
    C = m1_inverse_symbol(lam, 3.0)
    assert C == pytest.approx(np.array([[0.5, -0.5], [0.5, 0.5]]))


def test_m1_m1inv_random_roots():
    rng = np.random.default_rng(7)
    for m in (1, 2, 3, 4, 5, 6):
        for _ in range(20):
            z = np.sort(rng.uniform(-5.0, 5.0, size=m))
            while m > 1 and np.min(np.diff(z)) < 0.3:
                z = np.sort(rng.uniform(-5.0, 5.0, size=m))
            xi = 50.0
            lam = z * float(jbracket(xi))
            V = m1_symbol(lam, xi)
            C = m1_inverse_symbol(lam, xi)
            resid = np.max(np.abs(C @ V - np.eye(m)))
            assert resid < 1e-8


def test_c1_zero_for_frozen_roots_and_linearity():
    lam = np.array([-3.0, 1.0, 4.0]) * 100.0
    zero = c1_entries(lam, np.zeros(3), 100.0)
    assert np.max(np.abs(zero)) == 0.0
    dt = np.array([1.0, -2.0, 0.5]) * 10.0
    E1 = c1_entries(lam, dt, 100.0)
    E2 = c1_entries(lam, 2.0 * dt, 100.0)
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
    h = 1e-7
    Vp = m1_symbol(lam + h * lam_dot, xi)
    Vm = m1_symbol(lam - h * lam_dot, xi)
    DtM1 = -1j * (Vp - Vm) / (2.0 * h)
    oracle = m1_inverse_symbol(lam, xi) @ DtM1
    got = c1_entries(lam, lam_dot, xi)
    assert np.max(np.abs(got - oracle)) < 1e-6 * np.max(np.abs(got))
    # diagonal in closed form: e_pp = -D_t lam_p sum_{i != p} 1/(lam_i - lam_p)
    for p in range(m):
        expect = 1j * lam_dot[p] * np.sum(1.0 / (np.delete(lam, p) - lam[p]))
        assert got[p, p] == pytest.approx(expect, rel=1e-12)
    # M2 divides the off-diagonal of C1 by the root gap
    D = m2_symbol(lam, 1e-3 * lam_dot, xi)
    E = c1_entries(lam, 1e-3 * lam_dot, xi)
    for p in range(m):
        for q in range(m):
            if p != q:
                assert D[p, q] == pytest.approx(E[p, q] / (lam[p] - lam[q]), rel=1e-12)
    assert np.diag(D) == pytest.approx(np.ones(m))


def test_m2_identity_cases_and_guard():
    lam = np.array([-1.0, 1.0]) * 64.0
    assert m2_symbol(lam, np.zeros(2), 64.0) == pytest.approx(np.eye(2))
    big_dt = np.array([1e5, -1e5])
    with pytest.raises(DiagonalizerIllConditioned):
        m2_symbol(lam, big_dt, 64.0)


def test_m2_on_a_stack_names_the_ill_conditioned_frequency():
    # one set of roots per frequency; the rates at xi = 256 alone are too large
    xi = np.array([64.0, 128.0, 256.0, 512.0])
    lam = np.array([-1.0, 1.0]) * jbracket(xi)[:, None]
    lam_dot = np.array([1.0, -1.0]) * xi[:, None]
    D = m2_symbol(lam, lam_dot, xi)
    assert D.shape == (4, 2, 2)
    for k in range(xi.size):
        assert np.array_equal(D[k], m2_symbol(lam[k], lam_dot[k], xi[k]))
    lam_dot[2] *= 1e3
    with pytest.raises(DiagonalizerIllConditioned, match=r"at xi=256\.0$"):
        m2_symbol(lam, lam_dot, xi)


def test_m2_entries_shrink_along_zone_boundary():
    spec = HyperbolicOperatorSpec(2, (CoefficientSpec("holder_rough", delta=0.5, alpha=0.5), None))
    eta = power_law(0.5)
    zp = ZoneParams(N=2.0, M=4.0, T=0.5)
    offs = []
    xis = np.geomspace(2.0**6, 2.0**14, 9)
    for xi in xis:
        t = min(2.0 * zone_boundary(eta, zp, xi), 0.45)
        lam, dt = roots_on_times(spec, t, xi)
        D = m2_symbol(lam, dt, xi)[0]
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
    eps = 1.0 / float(jbracket(xi))
    ts = np.linspace(0.05, 0.45, 9)
    _, lam_dot = roots_on_times(spec, ts, xi)
    errs = []
    for h in (eps / 8.0, eps / 32.0, eps / 128.0):
        fd = (roots_on_times(spec, ts + h, xi)[0] - roots_on_times(spec, ts - h, xi)[0]) / (2.0 * h)
        errs.append(np.max(np.abs(fd - lam_dot)) / np.max(np.abs(lam_dot)))
    assert errs[0] > 10.0 * errs[1] > 100.0 * errs[2]
    assert errs[2] < 1e-3


def test_roots_on_times_is_elementwise_in_xi():
    # times by frequencies against one call per frequency
    xis = np.array([100.0, 1e3, 1e5])
    ts = np.linspace(0.0, 0.5, 33)
    lam, lam_dot = roots_on_times(ROUGH3, ts[:, None], xis)
    assert lam.shape == lam_dot.shape == (ts.size, xis.size, 3)
    for k, xi in enumerate(xis):
        want, want_dot = roots_on_times(ROUGH3, ts, xi)
        assert np.array_equal(lam[:, k], want) and np.array_equal(lam_dot[:, k], want_dot)


LOGPOW2 = HyperbolicOperatorSpec(2, (CoefficientSpec("log_power_oscillation", delta=0.5, gamma_osc=1.0), None))


@pytest.mark.parametrize("spec", [ROUGH2, ROUGH3, LOGPOW2], ids=["rough_m2", "rough_m3", "log_power_m2"])
def test_m3_weights_on_an_array_of_xi_match_scalar_calls(spec):
    xis = np.geomspace(64.0, 1e5, 5)
    got = m3_weights(spec, xis, 0.5)
    assert got.shape == (xis.size, spec.m)
    assert np.all(got.real == 0.0)
    for k, xi in enumerate(xis):
        assert np.array_equal(got[k], m3_weights(spec, float(xi), 0.5))


def test_m3_weights_with_windows_across_blocks_match_scalar_calls():
    # the 300 windows at t = 0, one width each, span several blocks of window rows
    xis = np.geomspace(64.0, 1e5, 300)
    assert xis.size > 2 * (coefficients.BLOCK // coefficients.MOLLIFIER_NODES)
    got = m3_weights(ROUGH2, xis, 0.5)
    for k, xi in enumerate(xis):
        assert np.array_equal(got[k], m3_weights(ROUGH2, float(xi), 0.5)), xi


def test_m3_constant_coefficients_unit_weights():
    res = m3_weights(WAVE2, 32.0, 0.5)
    assert np.all(res.real == 0.0)  # |w_p| = |exp(integral)| = 1
    assert np.max(np.abs(res)) < 1e-12


@pytest.mark.parametrize("xi", [16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0])
def test_m3_weights_match_telescoped_integral(xi):
    # m = 2 with a_1 = 0: lam = -+ xi sqrt(a), so D_s lam_p / (lam_q - lam_p)
    # = i a'/(4a) and the integral telescopes to (i/4) log(a_eps(T)/a_eps(0))
    coeff = CoefficientSpec("log_power_oscillation", delta=0.5)
    spec = HyperbolicOperatorSpec(2, (coeff, None))
    T = 0.5
    a_eps = mollify(coeff, 1.0 / float(jbracket(xi)), np.array([0.0, T]))[0]
    expect = 0.25 * abs(np.log(a_eps[1] / a_eps[0]))
    res = m3_weights(spec, xi, T)
    assert np.all(res.real == 0.0)
    assert np.abs(res) == pytest.approx([expect, expect], rel=1e-12)


def _simpson_of_the_integrand(spec, xi, T, n):
    """Composite Simpson on n intervals of D_s lam_p / sum_i (lam_i - lam_p), the integrand itself."""
    ss = np.linspace(0.0, T, n + 1)
    lam, lam_dot = roots_on_times(spec, ss, xi)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (ss[1] - ss[0]) / 3.0 * (w @ (-1j * lam_dot / _root_gaps(lam)[0].sum(axis=-1)))


@pytest.mark.parametrize("xi", [16.0, 64.0, 256.0])
def test_m3_weights_at_m3_match_refined_simpson(xi):
    # constant a_1: the log of the gap sums alone, against 2^14 Simpson intervals
    # of the integrand, which agree with it to within 5e-10 at these xi
    got = m3_weights(ROUGH3, xi, 0.5)
    assert np.all(got.real == 0.0)
    assert np.max(np.abs(got - _simpson_of_the_integrand(ROUGH3, xi, 0.5, 2**14))) < 1e-8


@pytest.mark.parametrize("xi", [4.0, 16.0])
def test_m3_weights_with_time_dependent_a1_match_refined_simpson(monkeypatch, xi):
    # a log-power a_1 runs the remainder's Simpson rule, here on as many
    # intervals as the reference, which have converged to about 1e-6.  The
    # mollifier's rate row is the derivative of its value row only up to the
    # midpoint rule on windows that reach into the oscillation at t = 0
    # (about 3e-4 over [0, 0.5] for this a_1), so the log term and the
    # integrated rates differ by up to 4e-5 at these xi
    spec = HyperbolicOperatorSpec(
        2, (CoefficientSpec("constant", base=2.0), CoefficientSpec("log_power_oscillation", base=1.0, delta=0.4))
    )
    monkeypatch.setattr(diagonalizers, "M3_INTERVALS", 2**14)
    got = m3_weights(spec, xi, 0.5)
    assert np.all(got.real == 0.0)
    want = _simpson_of_the_integrand(spec, xi, 0.5, 2**14)
    assert np.max(np.abs(got - want)) < 1e-4
    assert np.max(np.abs(want)) > 0.01


class Ramp(CoefficientSpec):
    # test-only override: a_3 = t - 1/4 changes sign at t = 1/4
    def _time_jet(self, t, k=0):
        v = np.asarray(t, dtype=float) - 0.25
        return (v,) + (np.zeros_like(v),) * k


def test_m3_weights_reject_a_gap_sum_that_changes_sign():
    # lam^3 - xi^2 lam - a_3 xi^3: the middle root, and with it the gap sum
    # -3 lam_1, changes sign with a_3, a pole of the integrand
    spec = HyperbolicOperatorSpec(3, (Ramp("constant"), CoefficientSpec("constant", base=1.0), None))
    with pytest.raises(ValueError, match="root 1 changes sign at xi=16"):
        m3_weights(spec, np.array([16.0, 64.0]), 0.5)


@pytest.mark.parametrize("profile", ["constant", "log_power_oscillation"])
def test_m3_weights_reject_a_gap_sum_that_vanishes(profile):
    # lam^3 - a_2 xi^2 lam: roots 0 and +-xi sqrt(a_2), so the middle root's gap
    # sum is zero up to round-off at both ends, a pole there and no sign change
    spec = HyperbolicOperatorSpec(3, (None, CoefficientSpec(profile, base=2.0, delta=0.5), None))
    g = _root_gaps(roots_on_times(spec, np.array([0.0, 0.5])[:, None], np.array([4.0, 64.0]))[0])[0].sum(axis=-1)
    assert np.max(np.abs(g[..., 1])) < 1e-12 * 64.0
    with pytest.raises(ValueError, match="the gap sum of root 1 vanishes at xi=4$"):
        m3_weights(spec, np.array([4.0, 64.0]), 0.5)


def test_m3_integral_bounded_over_sweep():
    spec = HyperbolicOperatorSpec(
        2, (CoefficientSpec("log_power_oscillation", delta=0.5), None)
    )
    vals = []
    for xi in np.geomspace(2.0**4, 2.0**10, 7):
        res = m3_weights(spec, float(xi), 0.5)
        assert np.all(res.real == 0.0)
        vals.append(np.max(np.abs(res)))
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
    w_mild, w_strong = m3_weights(mild, xi, 0.5), m3_weights(strong, xi, 0.5)
    assert np.all(w_mild.real == 0.0) and np.all(w_strong.real == 0.0)
    i_mild, i_strong = np.max(np.abs(w_mild)), np.max(np.abs(w_strong))
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
        lam = characteristic_roots(spec, 0.1, float(xi))[0][0]
        A = companion_symbol(spec, 0.1, float(xi))
        V = m1_symbol(lam, xi)
        Vinv = m1_inverse_symbol(lam, xi)
        diag = Vinv @ A @ V
        err = np.max(np.abs(diag - np.diag(lam)))
        assert err < 1e-8 * np.max(np.abs(lam))


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
    xis, stack = np.empty(20), np.empty((20, m))
    for k in range(20):
        xi = xis[k] = float(rng.uniform(10.0, 1e4))
        jb = float(jbracket(xi))
        lam = _separated(rng, m) * jb
        vals = _coefficients(lam, xi)
        ev = np.sort(np.linalg.eigvals(_companion(vals, xi)).real)
        stack[k] = _roots(vals[None, :], xi, 1e-6)[0]
        assert np.max(np.abs(ev - lam)) < 1e-9 * jb
        assert np.max(np.abs(stack[k] - ev)) < 1e-9 * jb
    # M1 and its inverse over the stack of root sets, against one call per set
    V, C = m1_symbol(stack, xis), m1_inverse_symbol(stack, xis)
    assert V.shape == C.shape == (20, m, m)
    for k in range(20):
        assert np.array_equal(V[k], m1_symbol(stack[k], xis[k]))
        assert np.array_equal(C[k], m1_inverse_symbol(stack[k], xis[k]))
    assert np.max(np.abs(V @ C - np.eye(m))) < 1e-9


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_batched_m1_inverse_is_the_per_frequency_formula_bit_for_bit(m):
    # a (frequency, node) stack of root sets against m1_inverse_symbol set by
    # set, and against the elementary symmetric functions of np.poly
    rng = np.random.default_rng(500 + m)
    xi = rng.uniform(10.0, 1e4, size=4)
    jb = jbracket(xi)[:, None, None]
    lam = np.array([[_separated(rng, m) for _ in range(3)] for _ in xi]) * jb
    inv = m1_inverse_symbol(lam, xi[:, None])
    assert inv.shape == (4, 3, m, m) and inv.dtype == complex
    for f, n in np.ndindex(4, 3):
        assert np.array_equal(inv[f, n], m1_inverse_symbol(lam[f, n], xi[f]))
        z = lam[f, n] / jb[f, 0, 0]
        e = np.array([np.poly(np.delete(z, p)) for p in range(m)])
        P = np.prod(z[None, :] - z[:, None] + np.eye(m), axis=-1)
        assert np.array_equal(inv[f, n], (-1.0) ** (m - 1) * e[:, ::-1] / P[:, None])
    assert np.max(np.abs(m1_symbol(lam, xi[:, None]) @ inv - np.eye(m))) < 1e-9


def _root_pairs(shape, seed):
    """Seeded ascending m = 2 roots of shape + (2,), their rates and the frequencies (along the first axis).

    The gaps run from just above the underflow guard, 1e-12 <xi>, up to <xi>.
    """
    rng = np.random.default_rng(seed)
    xi = np.geomspace(1.0, 1e4, shape[0]).reshape(shape[:1] + (1,) * (len(shape) - 1))
    lam0 = rng.uniform(-1.0, 1.0, shape) * xi
    gap = jbracket(xi) * 10.0 ** rng.uniform(-11.9, 0.0, shape)
    rates = rng.standard_normal(shape + (2,)) * xi[..., None]
    return np.stack((lam0, lam0 + gap), axis=-1), rates, xi


@pytest.mark.parametrize("shape", [(500,), (7, 60)], ids=["n", "f_t"])
def test_m2_closed_forms_are_the_general_formulas_bit_for_bit(shape):
    lam, rates, xi = _root_pairs(shape, 35)
    K, R = diagonalizers._c1(lam, rates, xi)
    K_m, R_m = diagonalizers._c1_m(lam, rates, xi)
    assert K.shape == K_m.shape == shape + (2, 2)
    assert np.array_equal(K, K_m) and np.array_equal(R, R_m)
    b_dot = rates * xi[..., None] ** np.array([2, 1])
    assert np.array_equal(_root_rates_2(lam, b_dot), _root_rates_m(lam, b_dot))
    assert np.array_equal(_root_rates(lam, rates, xi), _root_rates_m(lam, b_dot))
    z = lam / jbracket(xi)[..., None]
    assert np.array_equal(m1_symbol(lam, xi), diagonalizers._m1_m(z))
    assert np.array_equal(m1_inverse_symbol(lam, xi), diagonalizers._m1_inverse_m(z))


@pytest.mark.parametrize(
    "closed, general, args",
    [
        (diagonalizers._c1_2, diagonalizers._c1_m, (np.array([[1.0, 3.0], [2.0, 2.0 + 1e-13]]), np.ones((2, 2)), 1.0)),
        (diagonalizers._m1_inverse_2, diagonalizers._m1_inverse_m, (np.array([[0.5, 0.5 + 1e-13], [0.0, 1.0]]),)),
        (_root_rates_2, _root_rates_m, (np.array([[1.0, 0.5]]), np.ones((1, 2)))),
    ],
    ids=["c1", "m1_inverse", "root_rates_descending"],
)
def test_m2_closed_forms_raise_as_the_general_formulas(closed, general, args):
    # a gap below the underflow guard (for the rates, a negative one) raises with the general path's message
    with pytest.raises(NearMultipleRoot) as want:
        general(*args)
    with pytest.raises(NearMultipleRoot) as got:
        closed(*args)
    assert str(got.value) == str(want.value)


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
    # the first-step correction over the stack of times is the per-point one, row by row
    E = c1_entries(lam, rates, xi)
    for k in range(ts.size):
        assert np.array_equal(E[k], c1_entries(lam[k], rates[k], xi))


LOGPOW3 = HyperbolicOperatorSpec(
    3,
    (
        CoefficientSpec("constant", base=0.5),
        CoefficientSpec("log_power_oscillation", base=2.0, delta=0.5, gamma_osc=1.0),
        CoefficientSpec("constant", base=0.25),
    ),
)


@pytest.mark.parametrize(
    "spec, h",
    [(LOGPOW2, 1e-3), (LOGPOW3, 1e-3), (ROUGH2, 2.0**-22), (ROUGH3, 2.0**-22)],
    ids=["log_power_m2", "log_power_m3", "rough_m2", "rough_m3"],
)
def test_raw_roots_and_symbol_are_elementwise_and_rates_match_differences(spec, h):
    # a (time, frequency) stack against one call per point, bit for bit; the
    # raw rates against centred differences of the raw roots, which converge
    # at order two once h resolves the top lacunary term 2^18
    ts = np.linspace(0.05, 0.45, 9)
    xis = np.array([64.0, 1e3, 1e5])
    lam, lam_dot = characteristic_roots(spec, ts[:, None], xis)
    A = companion_symbol(spec, ts[:, None], xis)
    assert lam.shape == lam_dot.shape == (ts.size, xis.size, spec.m)
    assert A.shape == (ts.size, xis.size, spec.m, spec.m)
    for i, k in np.ndindex(ts.size, xis.size):
        want, want_dot = characteristic_roots(spec, ts[i], xis[k])
        assert np.array_equal(lam[i, k], want[0]) and np.array_equal(lam_dot[i, k], want_dot[0])
        assert np.array_equal(A[i, k], companion_symbol(spec, ts[i], xis[k]))

    def roots_at(t):
        return characteristic_roots(spec, t[:, None], xis)[0]

    errs = []
    for d in (h, h / 4.0, h / 16.0):
        fd = (roots_at(ts + d) - roots_at(ts - d)) / (2.0 * d)
        errs.append(np.max(np.abs(fd - lam_dot)) / np.max(np.abs(lam_dot)))
    assert errs[0] > 10.0 * errs[1] > 100.0 * errs[2]
    assert errs[2] < 1e-5
