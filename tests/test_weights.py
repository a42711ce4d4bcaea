import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liefact.classify import decay_seminorm
from liefact.errors import DomainError, ParameterError, QuasianalyticError, WitnessSearchError
from liefact import factorize, weights
from liefact.factorize import build_partition, supported_factorize
from liefact.groups import Torus, haar_quadrature
from liefact.signals import poisson_coefficients, poisson_function
from liefact.spectral import iterate_seminorm
from liefact.weights import (
    WeightFunction,
    check_weight_axioms,
    eval_weight,
    gevrey_weight,
    log1p_weight,
    parse_weight_spec,
    tabulated_weight,
    young_conjugate,
    young_conjugate_grid,
    young_inequality_witness,
)


def gevrey_conjugate_reference(s, h, t):
    """Independent closed form: exp((1/h) phi_s*(h t)) = e^(1/h) (h/(se))^(t/s) t^(t/s)."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 1.0 / h + (t / s) * (np.log(h / (s * np.e)) + np.log(t))
    return np.where(h * t <= s, 0.0, val)


class TestEvalWeight:
    def test_gevrey_order_one_at_two(self):
        assert eval_weight(gevrey_weight(1.0), 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_gevrey_half_below_one_is_zero(self):
        assert eval_weight(gevrey_weight(0.5), 0.25) == 0.0

    def test_log1p_value(self):
        assert eval_weight(log1p_weight(), np.e - 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_negative_argument_rejected(self):
        # NaN is refused with the negatives, not propagated into a NaN weight
        for w in (gevrey_weight(1.0), log1p_weight()):
            for t in (-0.5, np.nan, [1.0, np.nan]):
                with pytest.raises(DomainError):
                    eval_weight(w, t)

    def test_gevrey_order_validation(self):
        with pytest.raises(DomainError):
            gevrey_weight(1.5)

    def test_vanishes_on_unit_interval(self):
        w = gevrey_weight(0.7)
        assert np.all(eval_weight(w, np.linspace(0, 1, 20)) == 0.0)

    @settings(derandomize=True, max_examples=60)
    @given(st.floats(0.0, 1e3), st.floats(0.0, 1e3))
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        for w in (gevrey_weight(0.5), gevrey_weight(1.0), log1p_weight()):
            assert eval_weight(w, lo) <= eval_weight(w, hi) + 1e-12


# (2, 3) -> (5, 3.5) and (10, 20) -> (20, 21) flatten w, so u |-> w(e^u) has
# two concave kinks whose hull bridges span hundreds of grid points
NONCONVEX_KNOTS = [(0, 0), (1, 0), (2, 3), (5, 3.5), (10, 20), (20, 21), (40, 80)]


def monotone_chain_hull(w):
    """The lower hull as one monotone-chain loop over the u-grid: the
    reference that ``weights._lower_hull``'s array passes must reproduce."""
    u = np.arange(0.0, weights._U_MAX + weights._RESOLUTION, weights._RESOLUTION)
    phi = eval_weight(w, np.exp(u))
    us, ps = u.tolist(), phi.tolist()
    verts, slopes = [0], []
    for i in range(1, len(us)):
        slope = (ps[i] - ps[verts[-1]]) / (us[i] - us[verts[-1]])
        while slopes and slope <= slopes[-1]:
            verts.pop()
            slopes.pop()
            slope = (ps[i] - ps[verts[-1]]) / (us[i] - us[verts[-1]])
        verts.append(i)
        slopes.append(slope)
    return u[verts], phi[verts], np.array(slopes)


class TestLowerHull:
    @pytest.mark.parametrize("w", [
        gevrey_weight(0.25), gevrey_weight(0.5), gevrey_weight(1.0), log1p_weight(),
        tabulated_weight(NONCONVEX_KNOTS)], ids=["s=0.25", "s=0.5", "s=1", "log1p", "table"])
    def test_bit_identical_to_monotone_chain(self, w):
        weights._lower_hull.cache_clear()
        for got, ref in zip(weights._lower_hull(w), monotone_chain_hull(w), strict=True):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_table_hull_needs_several_passes(self):
        # the vertices that survive the first pass include some the hull drops
        w = tabulated_weight(NONCONVEX_KNOTS)
        u = np.arange(0.0, weights._U_MAX + weights._RESOLUTION, weights._RESOLUTION)
        slopes = np.diff(eval_weight(w, np.exp(u))) / np.diff(u)
        first_pass = 2 + np.count_nonzero(slopes[1:] > slopes[:-1])
        assert first_pass > len(weights._lower_hull(w)[0]) + 100

    @pytest.mark.parametrize("w", [gevrey_weight(0.5), tabulated_weight(NONCONVEX_KNOTS)],
                             ids=["s=0.5", "table"])
    def test_cold_hull_peak_memory(self, w):
        # u, phi, the chain's links and a pass's gathers: no Python float lists
        weights._lower_hull.cache_clear()
        tracemalloc.start()
        try:
            weights._lower_hull(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6


class TestYoungConjugate:
    def test_zero_at_origin(self):
        for w in (gevrey_weight(0.5), gevrey_weight(1.0), log1p_weight()):
            for h in (0.5, 1.0, 2.0):
                assert young_conjugate(w, h, 0.0) == 0.0

    def test_gevrey_one_closed_value(self):
        # (1/1) phi_1*(3) = log(e (1/e)^3 3^3) = 1 - 3 + 3 log 3
        val = young_conjugate(gevrey_weight(1.0), 1.0, 3.0)
        assert val == pytest.approx(1.0 - 3.0 + 3.0 * np.log(3.0), rel=1e-12)

    def test_matches_independent_closed_form(self):
        ts = np.linspace(0.0, 50.0, 201)
        for s in (0.5, 1.0):
            w = gevrey_weight(s)
            for h in (0.5, 1.0, 2.0):
                ref = gevrey_conjugate_reference(s, h, ts)
                got = young_conjugate(w, h, ts)
                assert np.max(np.abs(got - ref)) < 1e-10

    def test_grid_conjugate_matches_closed_form(self):
        # the grid maximizer is the oracle for non-Gevrey kinds; on the Gevrey
        # family it must agree with the closed form to 1e-6 relative
        ts = np.linspace(0.0, 50.0, 101)
        for s in (0.5, 1.0):
            w = gevrey_weight(s)
            for h in (0.5, 1.0, 2.0):
                ref = gevrey_conjugate_reference(s, h, ts)
                got = young_conjugate_grid(w, h, ts)
                rel = np.abs(got - ref) / np.maximum(ref, 1.0)
                assert np.max(rel) < 1e-6

    def test_tabulated_gevrey_matches_closed_form(self):
        knots_t = np.linspace(0.0, 60.0, 6001)
        w_tab = tabulated_weight(list(zip(knots_t, np.maximum(0.0, knots_t - 1.0))))
        w = gevrey_weight(1.0)
        for t in range(1, 11):
            ref = young_conjugate(w, 1.0, float(t))
            got = young_conjugate(w_tab, 1.0, float(t))
            assert abs(got - ref) < 1e-3

    def test_log1p_conjugate_diverges_past_one(self):
        w = log1p_weight()
        assert young_conjugate(w, 1.0, 2.0) == np.inf
        assert young_conjugate(w, 1.0, 0.5) < np.inf

    def test_invalid_h(self):
        with pytest.raises(DomainError):
            young_conjugate(gevrey_weight(1.0), 0.0, 1.0)

    def test_grid_conjugate_rejects_negative_t(self):
        with pytest.raises(DomainError):
            young_conjugate_grid(gevrey_weight(1.0), 1.0, -1.0)
        with pytest.raises(DomainError):
            young_conjugate(log1p_weight(), 1.0, [1.0, np.nan])

    def test_log1p_divergence_tolerance(self):
        # log1p(e^u) has slope 1 at the grid end up to roundoff: the conjugate
        # stays finite within 1e-9 of that slope and diverges beyond it
        w = log1p_weight()
        assert young_conjugate(w, 1.0, 1.0) == 0.0
        assert young_conjugate(w, 1.0, 1.0 + 5e-10) < 1e-7
        assert young_conjugate(w, 1.0, 1.0 + 2e-9) == np.inf

    def test_hull_matches_brute_force_on_nonconvex_table(self):
        # u |-> w(e^u) is not convex here, so the maximizer skips whole
        # stretches of the grid; the hull must still find the sampled sup
        w = tabulated_weight(NONCONVEX_KNOTS)
        u = np.arange(0.0, 64.0 + 1e-3, 1e-3)
        phi = eval_weight(w, np.exp(u))
        ts = np.concatenate([np.linspace(0.0, 30.0, 301), [1e3, 1e9, 1e20]])
        for h in (0.5, 1.0, 2.0):
            brute = np.array([max(np.max(h * t * u - phi), 0.0) / h for t in ts])
            assert np.array_equal(young_conjugate_grid(w, h, ts), brute)
            assert np.array_equal(young_conjugate(w, h, ts), brute)
        last_slope = (phi[-1] - phi[-2]) / (u[-1] - u[-2])
        assert young_conjugate_grid(w, 1.0, 0.5 * last_slope) < np.inf
        assert young_conjugate_grid(w, 1.0, 1.01 * last_slope) == np.inf

    def test_hull_built_once_per_weight(self, monkeypatch):
        weights._lower_hull.cache_clear()
        calls = []

        def spy(w, t):
            calls.append(w)
            return eval_weight(w, t)

        monkeypatch.setattr(weights, "eval_weight", spy)
        w = log1p_weight()
        young_conjugate(w, 0.5, 0.7)
        young_conjugate(w, 2.0, [0.1, 0.4])
        assert len(calls) == 1
        for arr in weights._lower_hull(w):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_grid_conjugate_peak_memory(self):
        # a dense (points x u-grid) objective would need ~100 MB per temporary
        ts = np.linspace(0.0, 50.0, 200)
        tracemalloc.start()
        try:
            young_conjugate_grid(log1p_weight(), 1.0, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    @settings(derandomize=True, max_examples=40)
    @given(st.floats(0.0, 25.0), st.floats(0.0, 25.0))
    def test_superadditive(self, a, b):
        # convexity plus phi*(0) = 0 forces phi*(a) + phi*(b) <= phi*(a+b)
        w = gevrey_weight(0.5)
        lhs = young_conjugate(w, 1.0, a) + young_conjugate(w, 1.0, b)
        assert lhs <= young_conjugate(w, 1.0, a + b) + 1e-9

    def test_ratio_nondecreasing(self):
        w = gevrey_weight(1.0)
        ts = np.linspace(0.5, 40.0, 80)
        vals = young_conjugate(w, 1.0, ts) / ts
        assert np.all(np.diff(vals) >= -1e-12)

    def test_evaluator_object(self):
        w = gevrey_weight(1.0)
        assert young_conjugate(w, 2.0, 0.0) == 0.0
        assert young_conjugate(w, 2.0, 3.0) == pytest.approx(
            gevrey_conjugate_reference(1.0, 2.0, 3.0))
        ts = np.linspace(0.0, 20.0, 40)
        vals = young_conjugate(w, 2.0, ts)
        assert np.all(np.diff(vals) >= -1e-12)  # nondecreasing
        mids = 0.5 * (vals[:-1] + vals[1:])
        assert np.all(young_conjugate(w, 2.0, 0.5 * (ts[:-1] + ts[1:])) <= mids + 1e-10)  # convex


REFUSED_GEVREY_ORDERS = [0.0, -0.5, 1.5, 3.0, np.nan, np.inf]
REFUSED_TABLES = {
    "one knot": [(0.0, 0.0)],
    "no knots": [],
    "nan t": [(0.0, 0.0), (np.nan, 1.0), (5.0, 4.0)],
    "inf w": [(0.0, 0.0), (1.0, np.inf), (5.0, 4.0)],
    "repeated t": [(0.0, 0.0), (1.0, 1.0), (1.0, 2.0)],
    "falling t": [(0.0, 0.0), (2.0, 1.0), (1.0, 2.0)],
    "falling w": [(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)],
    "negative w": [(0.0, -1.0), (1.0, 0.0), (2.0, 1.0)],
}


class TestWeightFunction:
    """A WeightFunction is checked when made, however it is built."""

    @pytest.mark.parametrize("s", REFUSED_GEVREY_ORDERS)
    def test_gevrey_order_refused_by_both(self, s):
        with pytest.raises(DomainError, match="gevrey order"):
            gevrey_weight(s)
        with pytest.raises(DomainError, match="gevrey order"):
            WeightFunction("gevrey", gevrey_s=s)

    @pytest.mark.parametrize("knots", REFUSED_TABLES.values(), ids=REFUSED_TABLES.keys())
    def test_table_refused_by_both(self, knots):
        with pytest.raises(DomainError) as built:
            tabulated_weight(knots)
        with pytest.raises(DomainError) as direct:
            WeightFunction("tabulated", knots=knots)
        assert str(direct.value) == str(built.value)

    @pytest.mark.parametrize("kwargs", [
        dict(kind="cubic"),
        dict(kind="gevrey"),
        dict(kind="tabulated"),
        dict(kind="log1p", gevrey_s=0.5),
        dict(kind="log1p", knots=((0.0, 0.0), (1.0, 1.0))),
        dict(kind="gevrey", gevrey_s=0.5, knots=((0.0, 0.0), (1.0, 1.0))),
        dict(kind="tabulated", gevrey_s=0.5, knots=((0.0, 0.0), (1.0, 1.0))),
    ], ids=["unknown kind", "gevrey without s", "table without knots", "log1p with s",
            "log1p with knots", "gevrey with knots", "table with s"])
    def test_kind_and_parameters_checked(self, kwargs):
        with pytest.raises(DomainError):
            WeightFunction(**kwargs)

    def test_beta0_is_not_settable(self):
        with pytest.raises(TypeError):
            WeightFunction("gevrey", gevrey_s=1.0, satisfies_beta0=True)
        with pytest.raises(TypeError):
            tabulated_weight([(0.0, 0.0), (1.0, 1.0)], satisfies_beta0=True)

    def test_parameters_normalized(self):
        w = WeightFunction("tabulated", knots=[[0, 0], np.array([2, 1])])
        assert w.knots == ((0.0, 0.0), (2.0, 1.0))
        assert w == tabulated_weight([(0.0, 0.0), (2.0, 1.0)])
        assert hash(w) == hash(tabulated_weight(((0, 0), (2, 1))))

    @pytest.mark.parametrize("w, expected", [
        (gevrey_weight(0.5), True),
        (gevrey_weight(1.0), False),
        (log1p_weight(), True),
        (tabulated_weight([(0.0, 0.0), (1.0, 0.0), (4.0, 3.0)]), False),
        (tabulated_weight([(0.0, 0.0), (1.0, 2.0), (4.0, 2.0)]), True),
    ], ids=["gevrey 0.5", "gevrey 1", "log1p", "sloped table", "flat-tailed table"])
    def test_beta0_derived(self, w, expected):
        assert w.satisfies_beta0 is expected

    def test_beta0_matches_the_growth_of_w(self):
        # w(t)/t at t = 1e12 tends to 0 exactly for the (beta_0) weights
        ws = [gevrey_weight(0.5), gevrey_weight(1.0), log1p_weight(),
              tabulated_weight([(0.0, 0.0), (1.0, 0.0), (4.0, 3.0)]),
              tabulated_weight([(0.0, 0.0), (1.0, 2.0), (4.0, 2.0)])]
        for w in ws:
            assert (eval_weight(w, 1e12) / 1e12 < 1e-5) == w.satisfies_beta0

    @pytest.mark.parametrize("w, expected", [
        (gevrey_weight(0.5), True),
        (gevrey_weight(1.0), True),
        (log1p_weight(), False),
        (tabulated_weight([(0.0, 0.0), (1.0, 0.0), (4.0, 3.0)]), True),
        (tabulated_weight([(0.0, 0.0), (1.0, 0.0), (3.0, 2.0), (4.0, 2.0)]), False),
    ], ids=["gevrey 0.5", "gevrey 1", "log1p", "sloped table", "flat-tailed table"])
    def test_gamma_derived(self, w, expected):
        # (gamma) log t = o(w(t)): w(t)/log t at t = 1e12 is large exactly when it holds
        assert w.satisfies_gamma is expected
        assert (eval_weight(w, 1e12) / np.log(1e12) > 10.0) == expected

    @pytest.mark.parametrize("w", [
        log1p_weight(),
        tabulated_weight([(0.0, 0.0), (1.0, 0.0), (3.0, 2.0), (4.0, 2.0)]),
    ], ids=["log1p", "flat-tailed table"])
    def test_gamma_failure_refused_by_supported_factorize(self, w, monkeypatch):
        # (beta_0) holds, (gamma) fails: refused before any transform
        t1 = Torus(1)
        f = poisson_function(t1, haar_quadrature(t1, 64), 2.0)

        def refuse(*args, **kwargs):
            raise AssertionError("a transform ran")

        monkeypatch.setattr(factorize, "forward", refuse)
        monkeypatch.setattr(factorize, "build_partition", refuse)
        assert w.satisfies_beta0
        with pytest.raises(DomainError, match="satisfies_gamma"):
            supported_factorize(f, 2.0, w, 0.5, 1.0, k=8)

    @pytest.mark.parametrize("make", [
        lambda: gevrey_weight(1.0),
        lambda: gevrey_weight(1),
        lambda: WeightFunction("gevrey", gevrey_s=1.0),
        lambda: parse_weight_spec("gevrey:s=1"),
    ], ids=["gevrey_weight", "gevrey_weight int", "WeightFunction", "spec"])
    def test_analytic_class_cannot_reach_supported_factorize(self, make):
        t1 = Torus(1)
        f = poisson_function(t1, haar_quadrature(t1, 64), 2.0)
        with pytest.raises(QuasianalyticError):
            supported_factorize(f, 2.0, make(), 0.5, 1.0, k=8)


class TestAxiomReports:
    def test_gevrey_half_beta0_tail(self):
        report = check_weight_axioms(gevrey_weight(0.5), t_max=1e6, samples=300)
        # w(t)/t decreasing toward 0 on the tail
        assert np.all(np.diff(report.beta0_tail) <= 1e-12)
        assert report.beta0_tail[-1] < 0.01

    def test_gevrey_one_beta_constant(self):
        report = check_weight_axioms(gevrey_weight(1.0), t_max=1e6, samples=300)
        assert report.beta_sup <= 1.0 + 1e-12
        # (beta_0) fails: the ratio tends to 1
        assert report.beta0_tail[-1] > 0.99

    def test_log1p_gamma_ratio(self):
        report = check_weight_axioms(log1p_weight(), t_max=1e8, samples=300)
        assert report.gamma_tail[-1] == pytest.approx(1.0, abs=0.05)

    def test_convexity_defect_nonpositive(self):
        for w in (gevrey_weight(0.5), gevrey_weight(1.0), log1p_weight()):
            report = check_weight_axioms(w, t_max=1e4, samples=200)
            assert report.delta_max_defect <= 1e-9

    def test_t_max_precondition(self):
        with pytest.raises(DomainError):
            check_weight_axioms(gevrey_weight(1.0), t_max=5.0)


class TestYoungInequalityWitness:
    def test_gevrey_one(self):
        witness = young_inequality_witness(
            gevrey_weight(1.0), 1.0, np.linspace(1.0, 100.0, 400))
        assert witness.h_prime < 1.0
        assert witness.max_defect <= 1e-12

    def test_log1p(self):
        witness = young_inequality_witness(
            log1p_weight(), 2.0, np.geomspace(1.0, 1000.0, 400))
        assert witness.max_defect <= 1e-12

    def test_unit_point_trivial(self):
        w = gevrey_weight(1.0)
        witness = young_inequality_witness(w, 1.0, [1.0])
        # at t = 1 the left side vanishes and the k = 0 term makes the right
        # side nonnegative for any C >= 1
        assert eval_weight(w, 1.0) == 0.0
        assert witness.C >= 1.0
        assert witness.max_defect <= 0.0

    @pytest.mark.parametrize("h", [0.0, -1.0])
    def test_bad_h_refused_by_young_conjugate(self, h):
        # the first use of h is the conjugate's check: no divide warning first
        with pytest.raises(DomainError, match="h must be positive and finite"):
            young_inequality_witness(gevrey_weight(1.0), h, [1.0, 2.0])

    def test_search_failure_carries_defect(self):
        # a cap below C = 1 is unsatisfiable at t = 1 (both sides vanish), so
        # the sweep must fail and report its best defect
        with pytest.raises(WitnessSearchError) as err:
            young_inequality_witness(
                gevrey_weight(1.0), 1.0, np.linspace(1.0, 100.0, 50), c_cap=0.5)
        assert np.isfinite(err.value.best_defect)


class TestParsing:
    def test_specs(self):
        assert parse_weight_spec("gevrey:s=0.5").gevrey_s == 0.5
        assert parse_weight_spec("log1p").kind == "log1p"

    def test_undocumented_gevrey_spelling_rejected(self):
        with pytest.raises(ParameterError):
            parse_weight_spec("gevrey:0.5")

    @pytest.mark.parametrize("row", ["1,nan", "nan,1", "inf,3", "3,inf", "-inf,0"])
    def test_non_finite_table_knot_rejected(self, tmp_path, row):
        p = tmp_path / "w.csv"
        p.write_text(f"t,omega\n0.0,0.0\n{row}\n5.0,4.0\n")
        with pytest.raises(DomainError, match="finite"):
            parse_weight_spec(f"table:{p}")
        with pytest.raises(DomainError, match="finite"):
            tabulated_weight([(0.0, 0.0), tuple(float(v) for v in row.split(",")), (5.0, 4.0)])

    @pytest.mark.parametrize("spec, body", [
        ("gevrey:s=abc", None), ("gevrey:s=", None), ("table:{}", "0,0\n1,abc\n"),
        ("table:{}", "0\n1\n2\n"), ("table:{}", "0,0\n1\n"), ("table:{}", ""),
    ], ids=["gevrey non-number", "gevrey empty", "table non-number", "table one column",
            "table ragged", "table without rows"])
    def test_unreadable_spec_raises_parameter_error(self, tmp_path, spec, body):
        if body is not None:
            p = tmp_path / "w.csv"
            p.write_text("t,omega\n" + body)
            spec = spec.format(p)
        with pytest.raises(ParameterError, match="weight spec " + re.escape(repr(spec))):
            parse_weight_spec(spec)

    def test_missing_table_stays_an_os_error(self, tmp_path):
        with pytest.raises(OSError):
            parse_weight_spec(f"table:{tmp_path / 'absent.csv'}")

    def test_table_spec(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("t,omega\n0.0,0.0\n1.0,0.0\n2.0,1.0\n4.0,3.0\n")
        w = parse_weight_spec(f"table:{p}")
        assert eval_weight(w, 2.0) == pytest.approx(1.0)
        # linear extrapolation with the final slope
        assert eval_weight(w, 6.0) == pytest.approx(5.0)


@pytest.mark.parametrize("h", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", [
    "decay_seminorm", "young_conjugate", "young_conjugate_grid",
    "iterate_seminorm", "young_inequality_witness", "build_partition",
])
def test_non_finite_h_rejected(entry, h):
    t1, w = Torus(1), gevrey_weight(1.0)
    grid = haar_quadrature(t1, 16)
    exc, call = {
        "decay_seminorm": (DomainError,
                           lambda: decay_seminorm(poisson_coefficients(t1, 16, 1.0), w, h)),
        "young_conjugate": (DomainError, lambda: young_conjugate(w, h, [1.0, 2.0])),
        "young_conjugate_grid": (DomainError, lambda: young_conjugate_grid(w, h, [1.0, 2.0])),
        "iterate_seminorm": (DomainError,
                             lambda: iterate_seminorm(poisson_function(t1, grid, 1.0), w, h)),
        "young_inequality_witness": (DomainError,
                                     lambda: young_inequality_witness(w, h, [1.0, 2.0])),
        "build_partition": (ParameterError,
                            lambda: build_partition(2.0, 8, 2.0, gevrey_weight(0.5), h, grid)),
    }[entry]
    with pytest.raises(exc):
        call()
