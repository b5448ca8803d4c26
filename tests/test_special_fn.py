"""Special-function kernel against mpmath and closed-form oracles."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from so12phase import special_fn as sf


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
        for k, w in [(0.5, 100.0), (3.0, 1e4), (50.0, 1e6), (0.5, 1e6)]:
            with mp.workdps(50):
                ref = float(mp.log(mp.hyp0f1(2 * k, w)))
            assert sf.log_g_k(k, w) == pytest.approx(ref, rel=1e-12)

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
        # real w with 2 sqrt(w) > 600 goes through exp(log_g_k): the estimate
        # bounds the error, and a value beyond the largest double raises
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


K_GRID = (0.05, 0.25, 0.5, 1.0, 3.0, 10.0, 50.0)
MODULUS_GRID = (1e-3, 0.1, 1.0, 5.0, 20.0, 100.0, 300.0, 1000.0)


class TestKernelGrid:
    """The kernels against mpmath over the parameter range the library uses."""

    @pytest.mark.parametrize("k", K_GRID)
    def test_log_g_k(self, k):
        for m in MODULUS_GRID:
            with mp.workdps(40):
                ref = float(mp.log(mp.hyp0f1(2 * k, m * m)))
            assert abs(sf.log_g_k(k, m * m) - ref) <= 1e-13 * max(1.0, abs(ref)), (k, m)

    @pytest.mark.parametrize("k", K_GRID)
    def test_rho_k(self, k):
        for m in MODULUS_GRID:
            with mp.workdps(40):
                ref = float(mp.besseli(2 * k, 2 * m) / mp.besseli(2 * k - 1, 2 * m))
            assert sf.rho_k(k, m) == pytest.approx(ref, rel=1e-13), (k, m)

    @pytest.mark.parametrize("k", K_GRID)
    def test_real_g_k(self, k):
        for m in MODULUS_GRID:
            if 2 * m > 600:
                continue
            with mp.workdps(40):
                ref = float(mp.hyp0f1(2 * k, m * m))
            assert sf.g_k(k, m * m).value == pytest.approx(ref, rel=1e-13), (k, m)


class TestRhoK:
    def test_zero_at_origin(self):
        assert sf.rho_k(0.5, 0.0) == 0.0

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


@pytest.mark.parametrize("k", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("fn", [sf.g_k, sf.log_g_k, sf.rho_k], ids=["g_k", "log_g_k", "rho_k"])
def test_non_finite_k_rejected(fn, k):
    # log_g_k(inf, 1) returned 0.0 and log_g_k(nan, 1) returned nan
    with pytest.raises(sf.DomainError):
        fn(k, 1.0)
