"""Special-function kernel against mpmath and closed-form oracles."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so12phase import coherent as co
from so12phase import special_fn as sf
from so12phase import su11_rep as su


class TestGk:
    def test_series_constant_term(self):
        for k in (0.25, 1.0, 7.0):
            assert sf.g_k(k, 0.0).value == 1.0

    def test_reduces_to_bessel_i(self):
        # Gamma(2k)|z|^{1-2k} I_{2k-1}(2|z|) at 2k-1 = 0 is plain I_0
        assert sf.g_k(0.5, 4.0).value == pytest.approx(float(mp.besseli(0, 4.0)), rel=1e-13)

    @staticmethod
    def _ode_residual(k, w, h):
        # five-point stencils: O(h^4) truncation, so round-off dominates
        g = [sf.g_k(k, w + j * h).value for j in (-2, -1, 0, 1, 2)]
        d1 = (g[0] - 8 * g[1] + 8 * g[3] - g[4]) / (12 * h)
        d2 = (-g[0] + 16 * g[1] - 30 * g[2] + 16 * g[3] - g[4]) / (12 * h * h)
        return w * d2 + 2 * k * d1 - g[2]

    def test_cancelling_series_past_the_peak_overflow(self):
        # the terms peak near e^{2 sqrt|w|}, far above the value, where they cancel
        for w in (-1e5, 1e5j):
            with pytest.raises(OverflowError, match="non-real or negative"):
                sf.g_k(0.5, w)
        assert math.isfinite(sf.g_k(0.5, 1e5).value)

    def test_ode_residual_central_differences(self):
        # w g'' + 2k g' - g = 0, residual relative to the function scale
        k = 1.0
        for w in np.linspace(0.1, 50.0, 23):
            g0 = sf.g_k(k, w).value
            assert abs(self._ode_residual(k, w, 0.02)) < 1e-8 * max(1.0, abs(g0))

    def test_ode_residual_example_point(self):
        res = self._ode_residual(1.0, 2.5, 0.02)
        assert abs(res) < 1e-10 * max(1.0, abs(sf.g_k(1.0, 2.5).value))

    def test_log_variant_matches(self):
        # w >= 1e8 needs more than 10^4 terms; a partial sum there was off by
        # 3.4e-5, 0.30 and 0.67 of the logarithm
        for k, w in [(0.5, 100.0), (3.0, 1e4), (50.0, 1e6), (0.5, 1e6),
                     (0.5, 1e8), (3.0, 9e8), (0.5, 1e10)]:
            with mp.workdps(50):
                ref = float(mp.log(mp.hyp0f1(2 * k, w)))
            assert sf.log_g_k(k, w) == pytest.approx(ref, rel=1e-14)

    @given(st.floats(0.05, 50.0), st.floats(-6.0, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_log_variant_over_domain(self, k, log10_w):
        w = 10.0 ** log10_w
        with mp.workdps(40):
            ref = float(mp.log(mp.hyp0f1(2 * k, w)))
        assert abs(sf.log_g_k(k, w) - ref) <= LOG_G_TOL * max(1.0, abs(ref)), (k, w)

    def test_complex_argument(self):
        val = sf.g_k(1.0, 2.5j).value
        assert val == pytest.approx(complex(mp.hyp0f1(2.0, 2.5j)), rel=1e-13)

    @pytest.mark.parametrize("k", [0.5, 3.0])
    def test_error_estimate_bounds_rounding(self, k):
        # off the positive axis the terms cancel, and near the peak term the
        # recurrence's rounding exceeds the last term by many orders
        for modulus in (1.0, 5.0, 20.0, 50.0, 100.0, 300.0):
            for w in (modulus ** 2, -modulus ** 2,
                      modulus ** 2 * cmath.exp(0.5j), modulus ** 2 * cmath.exp(1.5j)):
                res = sf.g_k(k, w)
                with mp.workdps(60):
                    ref = complex(mp.hyp0f1(2 * k, mp.mpc(w)))
                assert abs(res.value - ref) <= res.abs_error_estimate, (k, w)

    @pytest.mark.parametrize("k", [0.05, 0.5, 3.0, 50.0])
    def test_log_domain_branch(self, k):
        # real w with 2 sqrt(w) > 600 is summed by the series like any real
        # w >= 0: the estimate bounds the error, and a value beyond the
        # largest double raises
        for y in np.linspace(601.0, 800.0, 12):
            w = (y / 2) ** 2
            if sf.log_g_k(k, w) > sf.LOG_DBL_MAX:
                with pytest.raises(OverflowError, match="g_k"):
                    sf.g_k(k, w)
                continue
            res = sf.g_k(k, w)
            with mp.workdps(60):
                err = abs(float(mp.mpf(res.value) - mp.hyp0f1(2 * k, w)))
            assert err <= res.abs_error_estimate, (k, w)

    @pytest.mark.parametrize("k", [0.05, 0.5, 3.0, 10.0])
    def test_large_real_argument_by_series(self, k):
        # positive terms keep full relative precision; exp(log g) would turn
        # log g's own rounding, a few ulp of ~700, into up to 8.5e-13 of g
        for y in (601.0, 650.0, 700.0):
            w = (y / 2) ** 2
            with mp.workdps(60):
                ref = mp.hyp0f1(2 * k, w)
            assert float(abs((mp.mpf(sf.g_k(k, w).value) - ref) / ref)) <= 1e-14, (k, y)


class TestRatioSeries:
    @given(st.complex_numbers(max_magnitude=30.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_exponential_within_estimate(self, c):
        # exp at 40 digits: cmath.exp's own last-bit error reaches 0.8 of the
        # estimate for |c| ~ 1e-2
        res = sf.ratio_series(lambda n: c / (n + 1))
        with mp.workdps(40):
            err = abs(mp.mpc(res.value) - mp.exp(mp.mpc(c)))
        assert err <= res.abs_error_estimate

    def test_overflow_raises(self):
        with pytest.raises(OverflowError, match="test_overflow_raises"):
            sf.ratio_series(lambda n: 1e300)

    def test_term_cap_raises(self):
        # a series that never meets the stop rule returned its partial sum
        with pytest.raises(sf.DomainError, match="test_term_cap_raises"):
            sf.ratio_series(lambda n: 1.0)


K_GRID = (0.05, 0.25, 0.5, 1.0, 3.0, 10.0, 50.0)
MODULUS_GRID = (1e-3, 0.1, 1.0, 5.0, 20.0, 100.0, 300.0, 1000.0)
LOG_G_TOL = 4 * 2 ** -52  # of max(1, |log g_k|)


class TestKernelGrid:
    """The kernels against mpmath over the parameter range the library uses."""

    @pytest.mark.parametrize("k", K_GRID)
    def test_log_g_k(self, k):
        for m in MODULUS_GRID:
            with mp.workdps(40):
                ref = float(mp.log(mp.hyp0f1(2 * k, m * m)))
            assert abs(sf.log_g_k(k, m * m) - ref) <= LOG_G_TOL * max(1.0, abs(ref)), (k, m)

    @pytest.mark.parametrize("k", K_GRID)
    def test_rho_k(self, k):
        for m in MODULUS_GRID:
            with mp.workdps(40):
                ref = float(mp.besseli(2 * k, 2 * m) / mp.besseli(2 * k - 1, 2 * m))
            assert sf.rho_k(k, m) == pytest.approx(ref, rel=1e-13), (k, m)

    @pytest.mark.parametrize("k", K_GRID)
    def test_bg_moments(self, k):
        # relative to 40-digit closed forms in the Bessel ratio; the same forms
        # in double precision left R 1.9e-4 and Q 2.9e-5 off at k = 50, |z| = 1e-3
        for m in MODULUS_GRID:
            ex = co.bg_expectations(k, m)
            with mp.workdps(40):
                rho = mp.besseli(2 * k, 2 * m) / mp.besseli(2 * k - 1, 2 * m)
                nbar = m * rho
                q = m * (1 / rho - rho) - 2 * k
                refs = {"Nbar": (nbar, 1e-13), "E_inv": (rho / m, 1e-13),
                        "var_K0": (m * m * (1 - rho * rho) + (1 - 2 * k) * nbar, 1e-12),
                        "Q": (q, 1e-11), "R": (q / nbar, 1e-11)}
            for name, (ref, rel) in refs.items():
                assert ex[name] == pytest.approx(float(ref), rel=rel), (k, m, name)

    @pytest.mark.parametrize("k", K_GRID)
    def test_real_g_k(self, k):
        for m in MODULUS_GRID:
            if 2 * m > 600:
                continue
            with mp.workdps(40):
                ref = float(mp.hyp0f1(2 * k, m * m))
            assert sf.g_k(k, m * m).value == pytest.approx(ref, rel=1e-13), (k, m)


TABLE_K = (0.05, 0.25, 1.0, 10.0, 50.0)
# both sides of the table growths at 64 and 4096 entries
TABLE_N = (0, 1, 63, 64, 65, 4095, 4096, 4097)
FAMILIES = {"bg": co.BGState, "perelomov": co.PerelomovState, "sg": co.SGState}


def _mp_log_weight(family, k, r2, n):
    """40-digit unnormalized log weight, the number probability and the sum S
    of the magnitudes of the log terms and the log norm; rounding each term in
    double leaves up to 2^-52 S in the log, a relative error of that size in exp."""
    with mp.workdps(40):
        a, x = 2 * mp.mpf(k), mp.mpf(r2)
        terms = [n * mp.log(x), -mp.loggamma(n + 1)]
        log_norm = x
        if family == "perelomov":
            terms.append(mp.loggamma(a + n) - mp.loggamma(a))
            log_norm = -a * mp.log(1 - x)
        elif family == "bg":
            terms.append(mp.loggamma(a) - mp.loggamma(a + n))
            log_norm = mp.log(mp.hyp0f1(a, x))
        log_w = mp.fsum(terms)
        size = mp.fsum(abs(t) for t in terms) + abs(log_norm)
        return float(log_w), float(mp.exp(log_w - log_norm)), float(size)


# each family's moduli over its whole domain
NORM_MODULI = {"bg": (1e-3, 0.1, 1.0, 20.0, 300.0, 1e3),
               "perelomov": (1e-3, 0.1, 0.5, 0.9, 0.99),
               "sg": (1e-3, 0.1, 1.0, 5.0, 30.0, 100.0)}


def _window_log_mass(family, k, r2):
    """log of the sum of the weights over n < N, N doubled from 64 until the
    mass past N is below 1e-40 of the sum.  That mass is bounded
    geometrically: no later weight ratio exceeds the larger of the last one
    and its limit, r2 for Perelomov and 0 otherwise.  The largest weight is
    kept out of the sum, so log1p keeps a log mass near 0 accurate."""
    size = 64
    while True:
        lw = sf.log_weight(family, k, r2, np.arange(size))
        top = int(np.argmax(lw))
        log_mass = lw[top] + math.log1p(float(np.sum(np.exp(np.delete(lw, top) - lw[top]))))
        log_q = lw[-1] - lw[-2]
        if family == "perelomov":
            log_q = max(log_q, math.log(r2))
        if log_q < 0 and lw[-1] + log_q - math.log1p(-math.exp(log_q)) < log_mass + math.log(1e-40):
            return log_mass
        size *= 2


class TestWeightTables:
    """The cached tables behind every family's log weight, and its normalizer."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("k", TABLE_K)
    def test_normalizer_sums_the_weights(self, family, k):
        # relative to max(1, |log N|), as for log_g_k: below log N = 1 the bound is
        # relative in N itself, because log_g_k takes the log of a sum rounded near 1
        # (1.1e-8 relative, 1.1e-16 absolute, at k = 50, |z| = 1e-3)
        for m in NORM_MODULI[family]:
            want = sf.log_norm(family, k, m * m)
            got = _window_log_mass(family, k, m * m)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (m, got, want)

    @pytest.mark.parametrize("r2", [1.0, 1.5, math.inf])
    def test_perelomov_normalizer_diverges_outside_the_disc(self, r2):
        with pytest.raises(sf.DomainError, match="diverge"):
            sf.log_norm("perelomov", 1.0, r2)

    @pytest.mark.parametrize("family", ["BG", "poisson", ""])
    def test_unknown_family_rejected(self, family):
        # "BG" gave the SG weight and "poisson" built and cached a Perelomov table
        misses = sf._table_slot.cache_info().misses
        for call in (lambda: sf.log_weight(family, 1.0, 4.0, 3), lambda: sf.log_weight(family, 1.0, 0.0, 3),
                     lambda: sf.weight_table(family, 2.0, 4), lambda: sf.log_norm(family, 1.0, 4.0),
                     lambda: sf.ratio_limit(family, 1.0, 0.25)):
            with pytest.raises(sf.DomainError, match="family must be one of bg, perelomov, sg"):
                call()
        assert sf._table_slot.cache_info().misses == misses

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("k", TABLE_K)
    def test_against_mpmath(self, family, k):
        # each n at its family's bulk: mean quantum number n
        for n in TABLE_N:
            m = max(n, 1)
            r2 = {"bg": float(m) ** 2, "sg": float(m), "perelomov": m / (m + 2.0 * k)}[family]
            log_w, prob, size = _mp_log_weight(family, k, r2, n)
            rounding = 2.0 ** -52 * size
            got = float(sf.log_weight(family, k, r2, n))
            assert abs(got - log_w) <= 1e-12 * abs(log_w) + rounding, (n, got, log_w)
            got = co.number_prob(FAMILIES[family](k, math.sqrt(r2)), n)
            assert abs(got - prob) <= (1e-12 + rounding) * prob, (n, got, prob)

    @pytest.mark.parametrize("k", TABLE_K)
    def test_bg_window_far_out(self, k):
        x = 1e4
        n, p = sf.distribution("bg", k, x * x)
        for i in (9000, 10000, 11000, len(n) - 1):
            _, prob, size = _mp_log_weight("bg", k, x * x, i)
            assert abs(p[i] - prob) <= (1e-12 + 2.0 ** -52 * size) * prob, (i, p[i], prob)

    def test_tables_grow_by_doubling_and_are_read_only(self):
        a = 0.634  # no other test uses this key
        tables = []
        for size, length in ((1, 64), (64, 64), (65, 128), (4096, 4096), (4097, 8192)):
            tables.append(sf.weight_table("bg", a, size))
            assert len(tables[-1]) == length
        table = tables[-1]
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0
        # each size is filled anew: an entry does not depend on the growth before it
        assert all(np.array_equal(t, table[:len(t)]) for t in tables)

    def test_cap(self):
        cap = sf.SERIES_MAX_TERMS
        assert len(sf.weight_table("sg", None, cap)) == cap
        with pytest.raises(sf.DomainError, match="cannot pass 200000 terms"):
            sf.weight_table("sg", None, cap + 1)
        with pytest.raises(sf.DomainError, match="cannot pass 200000 terms"):
            co.number_prob(co.SGState(1.0, 1.0), cap)
        assert len(sf.weight_table("sg", None, 1)) == cap
        # the SG window of mean |alpha|^2 reaches the cap near |alpha| = 440
        assert co.sg_sums(1.0, 440.0)["h1"] == pytest.approx(440.0, rel=1e-5)
        for alpha in (441.0, 1e4):
            with pytest.raises(sf.DomainError, match="passes 200000 terms"):
                co.sg_sums(1.0, alpha)

    def test_least_recently_used_table_goes_first(self):
        keep = 0.5171  # fresh keys, used by no other test
        sf.weight_table("perelomov", keep, 1)
        for i in range(40):
            sf.weight_table("perelomov", keep + 1.0 + i / 64, 1)
            sf.log_weight("perelomov", keep / 2, 0.5, [3])  # reads the table of 2k = keep
        assert sf._table_slot.cache_info().currsize == 32
        assert len(sf._table_slot("perelomov", keep)[0]) == 64
        assert len(sf._table_slot("perelomov", keep + 1.0)[0]) == 0  # evicted: a new, empty slot


class TestRhoK:
    def test_zero_at_origin(self):
        assert sf.rho_k(0.5, 0.0) == 0.0

    def test_asymptotic_form_rejects_the_origin(self):
        # rho_k_asymptotic(1, 0) raised a bare ZeroDivisionError
        with pytest.raises(sf.DomainError, match="finite x > 0"):
            sf.rho_k_asymptotic(1.0, 0.0)

    def test_large_x_expansion(self):
        # 1 - (4k-1)/(4x) at k=1/2, x=10
        assert sf.rho_k(0.5, 10.0) == pytest.approx(0.975, abs=3e-3)

    def test_series_ratio_oracle(self):
        val = sf.rho_k(1.0, 3.0)
        assert val < 1.0
        with mp.workdps(40):
            ref = float(mp.besseli(2, 6) / mp.besseli(1, 6))
        assert val == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("k", [0.25, 0.5, 1.0, 2.0])
    def test_bound_above_quarter(self, k):
        # at k = 1/4 the gap 1 - rho closes like 2 exp(-4x) and saturates
        # IEEE doubles near x ~ 18.5; require strict inequality wherever the
        # gap is representable and never-above-one everywhere
        xs = np.linspace(0.0, 100.0, 401)
        for x in xs:
            val = sf.rho_k(k, x)
            assert val <= 1.0
            gap = 1.0 - sf.rho_k_asymptotic(k, x) if x > 1 else 0.5
            if gap > 1e-15:
                assert val < 1.0, (k, x)

    def test_bound_can_fail_below_quarter(self):
        # k in (0, 1/4) is exempt from the bound; exhibit a value above 1
        assert sf.rho_k(0.05, 0.5) > 1.0

    def test_small_x_form(self):
        assert sf.rho_k(0.75, 1e-3) == pytest.approx(sf.rho_k_small_x(0.75, 1e-3), rel=1e-9)

    def test_window_cap(self):
        # past x ~ 1.94e5 the BG window would pass SERIES_MAX_TERMS; log_g_k
        # stops at the same x
        assert sf.rho_k(1.0, 1.9e5) == pytest.approx(sf.rho_k_asymptotic(1.0, 1.9e5), rel=1e-13)
        for fn in (sf.rho_k, lambda k, x: sf.distribution("bg", k, x * x), co.bg_expectations):
            with pytest.raises(sf.DomainError, match="passes 200000 terms"):
                fn(1.0, 2e5)

    def test_distribution_at_zero_is_ground(self):
        n, p = sf.distribution("bg", 0.7, 0.0)
        assert n.tolist() == list(range(len(n))) and p.tolist() == [1.0] + [0.0] * (len(n) - 1)


class TestDistribution:
    """The one number distribution of every family and its window."""

    @pytest.mark.parametrize("k", [0.05, 0.25, 1.0, 20.0])
    def test_perelomov_mean_and_variance_near_the_edge_of_the_disc(self, k):
        # the window mean + 14 sqrt(mean + 1) + 60 alone left out 1.7e-2 of the
        # mass at k = 1, |lambda| = 0.99; the geometric tail doubles it
        for lam in (0.5, 0.9, 0.99, 0.999):
            n, p = sf.distribution("perelomov", k, lam * lam)
            mean = float(p @ n)
            ex = co.perelomov_expectations(k, lam)
            assert mean == pytest.approx(ex["Nbar"], rel=5e-14, abs=0), lam
            assert float(p @ (n - mean) ** 2) == pytest.approx(ex["var_N"], rel=5e-14, abs=0), lam

    @pytest.mark.parametrize("k", [0.05, 1.0, 20.0])
    def test_perelomov_window_past_the_cap(self, k):
        with pytest.raises(sf.DomainError, match="passes 200000 terms"):
            sf.distribution("perelomov", k, 0.9999 ** 2)

    def test_first_window_bounds_the_tail(self):
        # BG and SG have ratio limit 0, so their first window is returned
        # unchecked: its envelope bound must lie below 1e-40 of the peak.  The
        # worst case is SG near |alpha| = 440 (3.6e-42, hence the fine grid
        # there; BG's is 2e-85 at |z| = 1.9e5); SG weights do not depend on k
        cases = [("bg", k, x * x) for k in (0.005, 0.05, 0.25, 1.0, 3.0, 20.0, 200.0, 1000.0)
                 for x in np.geomspace(1e-3, 1.9e5, 25)]
        cases += [("sg", 1.0, a * a) for a in np.concatenate([np.linspace(0.0, 430.0, 87),
                                                              np.linspace(430.05, 440.0, 200)])]
        for family, k, r2 in cases:
            n, p = sf.distribution(family, k, r2)
            log_w = sf.log_weight(family, k, r2, n.astype(int))
            bound = sf.log_tail_bound(log_w[-2], log_w[-1], sf.ratio_limit(family, k, r2))
            assert bound < log_w.max() + math.log(1e-40), (family, k, r2)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("k", [0.05, 0.5, 1.0, 20.0, 200.0])
    def test_window_is_the_gathered_reference_bit_for_bit(self, family, k):
        # the window is formed from the table's prefix in one buffer; the reference
        # gathers log_weight at n = 0 ... N - 1 and normalizes exp(log_w - max)
        r2s = {"bg": (0.0, 0.16, 36.0, 400.0), "perelomov": (0.0, 0.25, 0.99 ** 2), "sg": (0.0, 9.0, 361.0)}
        # first, a k no other call has used: its table starts empty and grows in the
        # call, for Perelomov at |lambda| = 0.99 again when the window doubles
        fresh = k * (1.0 + 2.0 ** -30)
        if family != "sg":  # the SG table has no 2k
            assert len(sf._table_slot(family, 2.0 * fresh)[0]) == 0
        for k_, r2 in [(fresh, r2s[family][-1])] + [(k, r2) for r2 in r2s[family]]:
            n, p = sf.distribution(family, k_, r2)
            assert n.tolist() == list(range(len(n)))
            log_w = sf.log_weight(family, k_, r2, n.astype(int))
            ref = np.exp(log_w - log_w.max())
            ref /= ref.sum()
            assert p.tobytes() == ref.tobytes(), (k_, r2)
            # the returned arrays are the caller's: writing them changes no later call
            n[:], p[:] = -1.0, np.nan
            n2, p2 = sf.distribution(family, k_, r2)
            assert n2.tolist() == list(range(len(n2))) and p2.tobytes() == ref.tobytes(), (k_, r2)


# family API calls that returned a value or nan, raised a bare ValueError,
# named the wrong cause or cached a NaN table
FAMILY_API_HOLES = {
    "log_weight r2 nan": lambda: sf.log_weight("bg", 1.0, math.nan, 3),
    "log_weight r2 -4": lambda: sf.log_weight("bg", 1.0, -4.0, 3),
    "log_weight r2 inf": lambda: sf.log_weight("bg", 1.0, math.inf, 3),
    "log_weight k nan": lambda: sf.log_weight("bg", math.nan, 4.0, 3),
    "log_weight k -1": lambda: sf.log_weight("bg", -1.0, 4.0, 3),
    "log_norm r2 -1": lambda: sf.log_norm("sg", 1.0, -1.0),
    "log_norm k nan": lambda: sf.log_norm("bg", math.nan, 1.0),
    "ratio_limit r2 nan": lambda: sf.ratio_limit("bg", 1.0, math.nan),
    "ratio_limit r2 -1": lambda: sf.ratio_limit("sg", 1.0, -1.0),
    "weight_table a -2": lambda: sf.weight_table("bg", -2.0, 10),
    "weight_table a nan": lambda: sf.weight_table("perelomov", math.nan, 10),
    "distribution r2 -1": lambda: sf.distribution("sg", 1.0, -1.0),
    "distribution r2 1": lambda: sf.distribution("perelomov", 1.0, 1.0),
    "distribution family": lambda: sf.distribution("poisson", 1.0, 1.0),
}


@pytest.mark.parametrize("name", list(FAMILY_API_HOLES))
def test_family_api_checks_its_arguments(name):
    misses = sf._table_slot.cache_info().misses
    with pytest.raises(sf.DomainError):
        FAMILY_API_HOLES[name]()
    assert sf._table_slot.cache_info().misses == misses


@pytest.mark.parametrize("k", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("fn", [sf.g_k, sf.log_g_k, sf.rho_k], ids=["g_k", "log_g_k", "rho_k"])
def test_non_finite_k_rejected(fn, k):
    # log_g_k(inf, 1) returned 0.0 and log_g_k(nan, 1) returned nan
    with pytest.raises(sf.DomainError):
        fn(k, 1.0)


K_CHECKED = {
    "RepParams": lambda k: su.RepParams(k, 8),
    "BGState": lambda k: co.BGState(k, 1.0),
    "PerelomovState": lambda k: co.PerelomovState(k, 0.5),
    "SGState": lambda k: co.SGState(k, 1.0),
    "g_k": lambda k: sf.g_k(k, 1.0),
    "log_g_k": lambda k: sf.log_g_k(k, 1.0),
    "rho_k": lambda k: sf.rho_k(k, 1.0),
    "bg_distribution": lambda k: sf.distribution("bg", k, 1.0),
    "rho_k_asymptotic": lambda k: sf.rho_k_asymptotic(k, 1.0),
    "rho_k_small_x": lambda k: sf.rho_k_small_x(k, 1.0),
    "bg_expectations": lambda k: co.bg_expectations(k, 1.0),
    "bg_overlap": lambda k: co.bg_overlap(k, 1.0, 1.0),
    "perelomov_expectations": lambda k: co.perelomov_expectations(k, 0.5),
    "sg_expectations": lambda k: co.sg_expectations(k, 1.0),
    "sg_sums": lambda k: co.sg_sums(k, 1.0),
    "inv_sqrt_k0_expectation": lambda k: co.inv_sqrt_k0_expectation(k, 1.0),
    "number_prob": lambda k: co.number_prob(co.BGState(k, 1.0), 0),
    "cross_kernel_C": lambda k: co.cross_kernel_C(k, 1.0),
    "cross_kernel_D": lambda k: co.cross_kernel_D(k, 1.0),
    "cross_overlaps": lambda k: co.cross_overlaps(k, 1.0, 1.0, 0.5),
    "sg_asymptotics": lambda k: co.sg_asymptotics(k, 10.0),
    "number_state_stats": lambda k: su.number_state_stats(k, 0),
    "casimir_eigenvalue": su.casimir_eigenvalue,
}


@pytest.mark.parametrize("k", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("name", list(K_CHECKED))
def test_check_k_guards_every_entry_point(name, k):
    # sg_sums(nan, 1) returned nan, sg_asymptotics(-1, 10) a value and
    # cross_kernel_C(0, 1) raised ZeroDivisionError
    with pytest.raises(sf.DomainError, match="k must be positive and finite"):
        K_CHECKED[name](k)


# entry point called with a bad value of one argument, and the pattern its
# DomainError matches
ARG_CHECKED = {
    "g_k": (lambda v: sf.g_k(0.5, v), "w must be finite"),
    "cross_kernel_C": (lambda v: co.cross_kernel_C(1.0, v), "u must be finite"),
    "cross_kernel_D": (lambda v: co.cross_kernel_D(1.0, v), "u must be finite"),
    "bg_overlap_z2": (lambda v: co.bg_overlap(0.5, v, 1.0), "z2 must be finite"),
    "bg_overlap_z1": (lambda v: co.bg_overlap(0.5, 1.0, v), "z1 must be finite"),
    "log_g_k": (lambda v: sf.log_g_k(1.0, v), "finite w >= 0"),
    "rho_k": (lambda v: sf.rho_k(1.0, v), "finite x >= 0"),
    "rho_k_asymptotic": (lambda v: sf.rho_k_asymptotic(1.0, v), "finite x > 0"),
    "rho_k_small_x": (lambda v: sf.rho_k_small_x(1.0, v), "finite x >= 0"),
    "bg_distribution": (lambda v: sf.distribution("bg", 1.0, v * v), r"r2 = \|parameter\|\^2"),
    "inv_sqrt_k0_expectation": (lambda v: co.inv_sqrt_k0_expectation(1.0, v), r"finite \|z\| >= 0"),
    "bg_expectations": (lambda v: co.bg_expectations(1.0, v), r"r2 = \|parameter\|\^2"),
    "BGState": (lambda v: co.BGState(1.0, v), "z must be finite"),
    "PerelomovState": (lambda v: co.PerelomovState(1.0, v), "lam must be finite"),
    "SGState": (lambda v: co.SGState(1.0, v), "alpha must be finite"),
    "perelomov_expectations": (lambda v: co.perelomov_expectations(1.0, v), r"\|lambda\| must be < 1"),
    "sg_sums": (lambda v: co.sg_sums(1.0, v), r"\|alpha\| must be finite"),
    "sg_expectations": (lambda v: co.sg_expectations(1.0, v), r"\|alpha\| must be finite"),
    "sg_asymptotics": (lambda v: co.sg_asymptotics(1.0, v), r"finite \|alpha\| >= 5"),
}


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", list(ARG_CHECKED))
def test_non_finite_argument_rejected(name, v):
    # g_k(0.5, nan) raised OverflowError, inv_sqrt_k0_expectation(1, nan) ran
    # the quadrature on nan for over 20 s and bg_expectations(1, nan) raised a
    # bare ValueError; PerelomovState(1, nan) grew to the cap,
    # perelomov_expectations(1, nan) returned nan and sg_expectations(1, inf)
    # raised a bare OverflowError
    fn, match = ARG_CHECKED[name]
    with pytest.raises(sf.DomainError, match=match):
        fn(v)


@pytest.mark.parametrize("name", ["log_g_k", "rho_k", "inv_sqrt_k0_expectation",
                                  "rho_k_asymptotic", "rho_k_small_x", "sg_sums"])
def test_negative_modulus_rejected(name):
    # rho_k_asymptotic(1, -5) returned 1.154 and sg_sums(1, -3) the sums at |alpha| = 3
    fn, match = ARG_CHECKED[name]
    with pytest.raises(sf.DomainError, match=match):
        fn(-1.0)


@pytest.mark.parametrize("n", [-1, 2.5, 2.0], ids=["-1", "2.5", "2.0"])
@pytest.mark.parametrize("fn", [lambda n: su.number_state_stats(1.0, n),
                                lambda n: co.number_prob(co.BGState(0.5, 1.0), n)],
                         ids=["number_state_stats", "number_prob"])
def test_quantum_number_must_be_a_non_negative_integer(fn, n):
    # number_state_stats(1, 2.5) returned a value, and the BG number
    # distribution 0.0 at n = -1 and 0.0397 at n = 2.5
    with pytest.raises(sf.DomainError, match="n must be a non-negative integer"):
        fn(n)
