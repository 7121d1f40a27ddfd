import math
import pickle

import numpy as np
import pytest

from hyplab import moduli, tables, weights
from hyplab.moduli import (
    DEFAULT_R0,
    FAMILIES,
    AuxiliaryFunction,
    ModulusOfContinuity,
    admissibility_check,
    concave_domain_end,
    decay_rate,
    decay_rate_pair,
    fd_derivative,
    iterated_log,
    log_grid,
    log_reciprocal,
    power_law,
)

CATALOG = [
    power_law(0.5),
    power_law(2.0 / 3.0),
    power_law(1.0, role="rho"),
    log_reciprocal(1.0),
    log_reciprocal(2.0),
    iterated_log(2),
]


def test_family_default_r0_is_owned_by_the_catalog():
    # a member built without r0 takes its family's DEFAULT_R0, directly or through its factory
    for factory, param in ((power_law, 0.5), (log_reciprocal, 1.0), (iterated_log, 2)):
        built = AuxiliaryFunction(factory.__name__, param)
        assert built == factory(param) and built.r0 == DEFAULT_R0[factory.__name__]
    assert AuxiliaryFunction("power_law", 0.5, r0=0.25).r0 == 0.25


def test_eval_closed_forms():
    assert log_reciprocal(1.0).value(math.exp(-2)) == pytest.approx(0.5, rel=1e-12)
    assert power_law(1.0, role="rho").value(0.3) == pytest.approx(0.3, rel=1e-15)
    assert power_law(2.0 / 3.0).value(0.125) == pytest.approx(0.25, rel=1e-12)


def test_eval_domain_errors():
    f = power_law(0.5)
    with pytest.raises(ValueError):
        f.value(0.0)
    with pytest.raises(ValueError):
        f.value(1.5)
    with pytest.raises(ValueError):
        log_reciprocal(1.0).value(0.7)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: AuxiliaryFunction("nope", 1.0), "unknown family 'nope'"),
        (lambda: AuxiliaryFunction("power_law", 0.5, role="gamma"), "unknown role 'gamma'"),
        (lambda: log_reciprocal(1.0, r0=1.0), r"log_reciprocal needs r0 < 1"),
        # depth 2 needs log(1/r) > 1, r0 below 1/e
        (lambda: iterated_log(2, r0=0.5), r"r0 too large for iterated_log depth"),
        (lambda: power_law(0.5).derivative(0.25, 4), "derivative order must be 1, 2 or 3"),
        (lambda: log_grid(1.0, 1.0, 8), "need 0 < lo < hi"),
        # the identity is nowhere strictly concave, as an eta must be
        (lambda: concave_domain_end(power_law(1.0)), "no concavity region found near 0"),
        (lambda: admissibility_check(power_law(0.5), np.linspace(0.01, 2.0, 64)), r"must lie inside \(0, r0\]"),
    ],
    ids=[
        "unknown_family", "unknown_role", "log_reciprocal_r0", "iterated_log_r0", "derivative_order_4",
        "log_grid_empty", "no_concave_region", "admissibility_grid_past_r0",
    ],
)
def test_moduli_input_checks_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_deriv_closed_forms():
    assert power_law(0.5).derivative(0.25, 1) == pytest.approx(1.0, rel=1e-12)
    assert power_law(1.0, role="rho").derivative(0.37, 2) == 0.0
    # d/dr (log(1/r))^{-1} = r^{-1} (log(1/r))^{-2}; at r = 1/e this is e
    assert log_reciprocal(1.0).derivative(math.exp(-1), 1) == pytest.approx(math.e, rel=1e-12)


def test_derivative_forms_no_term_above_its_order():
    # under verify's errstate an unread higher-order term neither overflows
    # nor divides by zero, while a derivative that does leave the float range
    # still raises
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        assert power_law(1.0, role="rho").derivative(1e-300, 1) == 1.0
        assert power_law(0.5).derivative(1e-300, 1) == pytest.approx(5e149, rel=1e-12)
        r = 1e-120
        assert log_reciprocal(1.0).derivative(r, 1) == pytest.approx(1.0 / (r * math.log(1.0 / r) ** 2), rel=1e-12)
        with pytest.raises(FloatingPointError):
            power_law(0.5).derivative(1e-300, 3)


def _closed_form(f, r):
    if f.family == "power_law":
        return r**f.param
    if f.family == "log_reciprocal":
        return (-np.log(r)) ** (-f.param)
    x = -np.log(r)
    for _ in range(int(f.param) - 1):
        x = np.log(x)
    return 1.0 / x


def test_jet_rows_do_not_depend_on_the_order_asked():
    # seeded draws over the catalog and both roles: the jet to order k is the
    # first k + 1 rows of the order-3 jet, and value is the family's closed
    # form, bit for bit
    rng = np.random.default_rng(20240522)
    for _ in range(40):
        family, role = rng.choice(FAMILIES), rng.choice(["eta", "rho"])
        if family == "power_law":
            f = power_law(rng.uniform(0.05, 1.0), role)
        elif family == "log_reciprocal":
            f = log_reciprocal(rng.uniform(0.1, 4.0), role)
        else:
            depth = int(rng.integers(1, 4))
            f = iterated_log(depth, role, r0=(0.2, 0.2, 0.05)[depth - 1])
        r = f.r0 * 10.0 ** rng.uniform(-12.0, 0.0, 200)
        full = f._jet(r, 3)
        for k in range(4):
            jet = f._jet(r, k)
            assert len(jet) == k + 1 and all(a.tobytes() == b.tobytes() for a, b in zip(jet, full)), (f, k)
        assert f.value(r).tobytes() == _closed_form(f, r).tobytes(), f


@pytest.mark.parametrize("f", CATALOG, ids=lambda f: f"{f.family}-{f.param}")
def test_deriv_matches_finite_differences(f):
    rs = log_grid(f.r0 * 1e-3, f.r0 * 0.5, 12)
    for k in (1, 2, 3):
        exact = np.asarray(f.derivative(rs, k))
        approx = fd_derivative(lambda r, kk=k - 1: f.derivative(r, kk) if kk else f.value(r), rs)
        scale = np.maximum(np.abs(exact), 1e-300)
        assert np.max(np.abs(approx - exact) / scale) < 1e-6


def test_concavity_caps_and_certification():
    from hyplab.moduli import admissibility_check, certification_grid, concave_domain_end

    assert concave_domain_end(log_reciprocal(1.0)) == pytest.approx(math.exp(-2), rel=1e-6)
    assert concave_domain_end(power_law(0.5)) == 1.0
    assert concave_domain_end(power_law(1.0, role="rho")) == 1.0
    for f in (log_reciprocal(1.0), log_reciprocal(2.0), iterated_log(2)):
        assert admissibility_check(f, certification_grid(f)).passed


@pytest.mark.parametrize("f", CATALOG, ids=lambda f: f"{f.family}-{f.param}")
def test_inverse_round_trip(f):
    rs = log_grid(f.r0 * 1e-6, f.r0, 40)
    ts = np.asarray(f.value(rs))
    back = np.asarray(f.inverse(ts))
    assert np.max(np.abs(back - rs) / rs) < 1e-9


def test_inverse_examples_and_bisection_agreement():
    f = log_reciprocal(1.0)
    assert f.inverse(0.5) == pytest.approx(math.exp(-2), rel=1e-12)
    assert f.inverse_bisect(0.5) == pytest.approx(math.exp(-2), rel=1e-10)
    assert power_law(1.0, role="rho").inverse(0.4) == pytest.approx(0.4, rel=1e-15)
    assert power_law(2.0 / 3.0).inverse(0.25) == pytest.approx(0.125, rel=1e-12)
    for f in CATALOG:
        t = 0.5 * f.range_max
        assert f.inverse_bisect(t) == pytest.approx(f.inverse(t), rel=1e-9)


@pytest.mark.parametrize("f", CATALOG, ids=lambda f: f"{f.family}-{f.param:g}-{f.role}")
def test_inverse_bisect_matches_inverse_down_to_small_targets(f):
    # the root of a small target lies many halvings below r0: log_reciprocal(1)
    # at 1e-3 of its range needs r = exp(-693), below 1e-300
    checked = 0
    for t in np.geomspace(1e-3, 1.0, 40) * f.range_max:
        try:
            r = f.inverse(t)
        except ValueError:  # underflows to zero
            with pytest.raises(ValueError):
                f.inverse_bisect(t)
            continue
        assert f.inverse_bisect(t) == pytest.approx(r, rel=1e-9), t
        checked += 1
    assert checked >= 10
    with pytest.raises(ValueError, match="smallest normal float"):
        log_reciprocal(1.0).inverse_bisect(1e-4 * log_reciprocal(1.0).range_max)


def _bisect_one(f, t):
    # one target at a time: the loop that the array bisection reproduces
    tiny = np.finfo(float).tiny
    if f.value(tiny) >= t:
        raise ValueError("root below the smallest normal float")
    lo, hi = tiny, f.r0
    while True:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            return 0.5 * (lo + hi)
        if f.value(mid) < t:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("f", CATALOG, ids=lambda f: f"{f.family}-{f.param:g}-{f.role}")
def test_inverse_bisect_array_matches_scalar_loop(f):
    ts = np.geomspace(1e-3, 1.0, 40).reshape(5, 8) * f.range_max
    solvable = np.ones(ts.shape, dtype=bool)  # roots at or above the smallest normal float
    for k, t in np.ndenumerate(ts):
        try:
            _bisect_one(f, t)
        except ValueError:
            solvable[k] = False
    if not solvable.all():  # one unsolvable target fails the array, as it fails the loop
        with pytest.raises(ValueError, match="smallest normal float"):
            f.inverse_bisect(ts)
        ts = np.where(solvable, ts, f.range_max)
    got = f.inverse_bisect(ts)
    assert got.shape == ts.shape
    assert np.array_equal(got, [[_bisect_one(f, t) for t in row] for row in ts])
    assert isinstance(f.inverse_bisect(float(ts[1, 2])), float)
    with pytest.raises(ValueError):
        f.inverse_bisect(np.array([0.5 * f.range_max, 0.0]))


def test_inverse_bisect_evaluates_once_per_split(monkeypatch):
    # one evaluation at the smallest normal float, then one per split of all brackets at once
    f = log_reciprocal(1.0)
    ts = np.geomspace(1e-3, 1.0, 40) * f.range_max
    calls = []
    jet = AuxiliaryFunction._jet

    def spy(self, r, k=0):
        calls.append(np.shape(r))
        return jet(self, r, k)

    monkeypatch.setattr(AuxiliaryFunction, "_jet", spy)
    f.inverse_bisect(ts)
    assert 0 < len(calls) <= 64
    assert calls[0] == () and set(calls[1:]) == {ts.shape}


@pytest.mark.parametrize(
    "f", [log_reciprocal(1.0), log_reciprocal(2.0), iterated_log(2)], ids=lambda f: f"{f.family}-{f.param:g}"
)
def test_concave_domain_end_is_the_last_float_of_the_clause(f):
    r = concave_domain_end(f)
    assert f.derivative(r, 2) < 0.0
    assert any(f.derivative(r + k * np.spacing(r), 2) >= 0.0 for k in range(1, 5))


def test_domain_check_and_cached_range_max():
    f = log_reciprocal(1.0)
    with pytest.raises(ValueError, match=r"argument 0.6 outside \(0, r0=0.5\]"):
        f.value(np.array([[0.25, 0.6], [0.1, 0.2]]))
    with pytest.raises(ValueError, match="argument 0.0 outside"):
        f.derivative(0.0)
    assert f.range_max == f.value(f.r0)
    assert "range_max" in vars(f)  # computed once per instance
    g = pickle.loads(pickle.dumps(f))
    assert g == f and g.range_max == f.range_max


def test_fd_derivative_calls_fn_once_on_the_stacked_stencil():
    eta = log_reciprocal(1.0)
    fn = lambda s: -1.0 / eta.inverse_bisect(s)
    shapes = []

    def spy(s):
        shapes.append(np.shape(s))
        return fn(s)

    t = np.geomspace(0.01, 0.3, 12).reshape(3, 4)
    got = fd_derivative(spy, t, 2e-4)
    assert shapes == [(4,) + t.shape]
    h = np.maximum(np.abs(t), 1e-12) * 2e-4
    four_calls = (-fn(t + 2 * h) + 8.0 * fn(t + h) - 8.0 * fn(t - h) + fn(t - 2 * h)) / (12.0 * h)
    assert np.array_equal(got, four_calls)


def test_inverse_bisect_requests_match_separate_calls():
    # brackets of both functions close at different splits; a request of a
    # function already asked shares its slice, and a scalar stays a float
    ll, pw = log_reciprocal(1.0), power_law(0.5, r0=1.1)
    ts_ll = np.geomspace(1e-3, 1.0, 40).reshape(5, 8) * ll.range_max
    ts_pw = np.geomspace(1e-3, 1.0, 40) * pw.range_max
    got = ll.inverse_bisect(ts_ll, (pw, ts_pw), (ll, 0.3))
    assert len(got) == 3 and isinstance(got[2], float)
    assert np.array_equal(got[0], ll.inverse_bisect(ts_ll))
    assert np.array_equal(got[1], pw.inverse_bisect(ts_pw))
    assert got[2] == ll.inverse_bisect(0.3)


def test_inverse_bisect_checks_every_request_in_order_before_splitting(monkeypatch):
    # the first bad request names the error, and no split has run by then
    ll, pw = log_reciprocal(1.0), power_law(0.5, r0=1.1)
    splits = []
    bisect = moduli._bisect
    monkeypatch.setattr(moduli, "_bisect", lambda *a: splits.append(1) or bisect(*a))
    too_small, past_range = 1e-4 * ll.range_max, 2.0 * pw.range_max
    with pytest.raises(ValueError, match="smallest normal float"):
        pw.inverse_bisect(0.5, (ll, too_small), (pw, past_range))
    with pytest.raises(ValueError, match="target outside the range"):
        pw.inverse_bisect(0.5, (pw, past_range), (ll, too_small))
    assert splits == []


def test_rate_table_rows_equal_one_row_calls(monkeypatch):
    # each table bisects all its rows' stencils at once; every row, at all 25
    # times, is what the one-row numeric_decay_rate(_pair) gives alone
    batched = []
    rates = tables._numeric_rates

    def spy(pairs, t):
        out = rates(pairs, t)
        batched.append((pairs, t, out))
        return out

    monkeypatch.setattr(tables, "_numeric_rates", spy)
    tables.local_condition_rows()
    tables.additional_local_condition_rows()
    monkeypatch.undo()
    assert [len(pairs) for pairs, _, _ in batched] == [2, 6]
    for pairs, ts, out in batched:
        assert ts.shape == out.shape == (len(pairs), 25)
        for (eta, rho), t, row in zip(pairs, ts, out):
            alone = tables.numeric_decay_rate(eta, t) if rho is None else tables.numeric_decay_rate_pair(eta, rho, t)
            assert np.array_equal(row, alone)


def test_table_builders_bisect_once_per_stencil(monkeypatch):
    # hardware-independent work counts: every stencil point of a rate table
    # is bisected once, in one loop per table, whose every split evaluates
    # each of the table's two moduli once, on its own slice of the targets;
    # the weight tables bisect nothing, and weight_orders fits once per eta
    events = []
    jet, bisect = AuxiliaryFunction._jet, moduli._bisect

    def jet_spy(self, r, k=0):
        events.append((self, np.shape(r)))
        return jet(self, r, k)

    def bisect_spy(below, lo, hi):
        events.append("loop")
        lo, hi = bisect(lambda r: events.append("split") or below(r), lo, hi)
        events.append("end")
        return lo, hi

    fits = []
    fit = weights._fit_orders
    monkeypatch.setattr(AuxiliaryFunction, "_jet", jet_spy)
    monkeypatch.setattr(moduli, "_bisect", bisect_spy)
    for module in (weights, tables):  # classify's binding and weight_orders' own
        monkeypatch.setattr(module, "_fit_orders", lambda *a: fits.append(a[0]) or fit(*a))
    counts = {}
    for name, builder in tables.TABLE_BUILDERS.items():
        events.clear()
        fits.clear()
        builder()
        counts[name] = (events.count("loop"), len(fits))
        if "loop" not in events:
            continue
        loop = events[events.index("loop") + 1 : events.index("end")]
        splits = loop.count("split")
        assert 0 < splits <= 64
        # each split: the two moduli once each, on 4 x 25 stencil points per row of theirs
        rows = {"local_condition": 1, "additional_local_condition": 3}[name]
        pair = {f for f, _ in loop[1:3]}
        for k in range(splits):
            block = loop[3 * k : 3 * k + 3]
            assert block[0] == "split" and {f for f, _ in block[1:]} == pair
            assert [shape for _, shape in block[1:]] == [(rows * 4 * 25,)] * 2
        assert len(loop) == 3 * splits and len(pair) == 2
    # summary fits once per classify call, of its four moduli
    assert counts == {
        "local_condition": (1, 0),
        "additional_local_condition": (1, 0),
        "weight_orders": (0, 3),
        "summary": (0, 4),
    }


def test_table_rows_follow_the_columns():
    for name, builder in tables.TABLE_BUILDERS.items():
        rows = builder()
        assert rows and all(tuple(row) == tables.COLUMNS for row in rows), name


def test_inverse_range_error():
    f = power_law(0.5)
    with pytest.raises(ValueError):
        f.inverse(1.5)  # range is (0, 1]
    with pytest.raises(ValueError):
        f.inverse(0.0)


@pytest.mark.parametrize("f", CATALOG, ids=lambda f: f"{f.family}-{f.param:g}-{f.role}")
def test_inverse_rejects_nan_targets(f):
    # one range check for both inverses: nan is outside the range, as it is outside value's domain
    for inverse in (f.inverse, f.inverse_bisect):
        for t in (math.nan, np.array([0.5 * f.range_max, math.nan])):
            with pytest.raises(ValueError, match="target outside the range"):
                inverse(t)
    if f.role == "eta":
        with pytest.raises(ValueError, match="target outside the range"):
            decay_rate(f, math.nan)


def test_admissibility_pass_and_fail():
    grid = log_grid(1e-6, 1.0, 96)
    assert admissibility_check(power_law(2.0 / 3.0), grid).passed
    assert admissibility_check(power_law(1.0, role="rho"), grid).passed
    # the identity fails as an eta: no strict concavity and mu(r) = 1
    rep = admissibility_check(power_law(1.0, role="eta"), grid)
    assert not rep.passed
    assert not rep.clauses["concave"].passed
    assert not rep.clauses["modulus_vanishes"].passed


def test_admissibility_log_family_under_concavity_cap():
    # log families are concave only for r < exp(-(alpha+1))
    f = log_reciprocal(1.0)
    grid = log_grid(1e-8, 0.1, 96)
    rep = admissibility_check(f, grid)
    assert rep.passed, rep.summary()
    assert rep.constants["C_1"] == pytest.approx(1.0, rel=1e-9)
    # and indeed fails when the grid reaches r0 = 0.5
    rep_full = admissibility_check(f, log_grid(1e-8, f.r0, 96))
    assert not rep_full.clauses["concave"].passed


def test_admissibility_grid_validation():
    with pytest.raises(ValueError):
        admissibility_check(power_law(0.5), log_grid(1e-4, 1.0, 32))


def test_modulus_of_continuity():
    mu = ModulusOfContinuity(log_reciprocal(1.0))
    rs = log_grid(1e-8, 0.3, 64)
    vals = mu.value(rs)
    assert np.all(np.diff(vals) > 0)
    assert vals[0] < vals[1]
    assert vals[0] < 1e-2 * vals[-1]
    # mu(r)/r = 1/eta(r) blows up at 0+ (weaker than Lipschitz)
    ratios = vals / rs
    assert ratios[0] > 10 * ratios[-1]
    with pytest.raises(ValueError):
        ModulusOfContinuity(power_law(1.0, role="rho"))


def test_decay_rate_closed_forms():
    # power law eta = r^{1-alpha}: rate = (1-alpha)^{-1} t^{-(2-alpha)/(1-alpha)}
    alpha = 0.5
    eta = power_law(1.0 - alpha)
    ts = np.geomspace(0.01, 1.0, 25)
    target = (1.0 / (1.0 - alpha)) * ts ** (-(2.0 - alpha) / (1.0 - alpha))
    assert np.max(np.abs(decay_rate(eta, ts) / target - 1.0)) < 1e-12
    # log reciprocal: rate = e^{1/t} / t^2
    eta = log_reciprocal(1.0)
    target = np.exp(1.0 / ts) / ts**2
    assert np.max(np.abs(decay_rate(eta, ts) / target - 1.0)) < 1e-12


def test_decay_rate_pair_against_fd():
    eta = power_law(0.5)
    rho = power_law(0.7, role="rho")
    ts = np.linspace(0.05, 0.9, 9)
    closed = decay_rate_pair(eta, rho, ts)
    approx = fd_derivative(lambda t: -1.0 / rho.value(eta.inverse(t)), ts)
    assert np.max(np.abs(approx / closed - 1.0)) < 1e-8
