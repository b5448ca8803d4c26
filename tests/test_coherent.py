"""Coherent-state families: closed forms against truncated-matrix oracles."""

import cmath
import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from so12phase import coherent as co
from so12phase import special_fn as sf
from so12phase import su11_rep as su


def matrix_moments(vec, ops):
    """Quadratic-form oracle: <A>, <A^2> for each named operator matrix."""
    out = {}
    for name, op in ops.items():
        av = op.expectation(vec.coeffs)
        asq = complex(np.vdot(vec.coeffs, op.entries @ (op.entries @ vec.coeffs)))
        out[name] = (av, asq)
    return out


class TestBGAmplitudes:
    def test_zero_parameter_is_ground(self):
        vec = co.bg_amplitudes(co.BGState(0.5, 0.0))
        assert vec.coeffs[0] == 1.0
        assert np.all(vec.coeffs[1:] == 0.0)

    def test_lowering_eigenvector(self):
        k, z = 0.5, 2.0 * cmath.exp(1j * math.pi / 3)
        vec = co.bg_amplitudes(co.BGState(k, z))
        g = su.build_generators(su.RepParams(k, vec.cutoff))
        resid = np.linalg.norm(g["Kminus"].entries @ vec.coeffs - z * vec.coeffs)
        assert resid < 1e-8

    def test_ground_weight(self):
        k, z = 0.75, 1.7
        vec = co.bg_amplitudes(co.BGState(k, z))
        assert abs(vec.coeffs[0]) ** 2 == pytest.approx(
            1.0 / sf.g_k(k, abs(z) ** 2).value, rel=1e-12)

    def test_normalization(self):
        vec = co.bg_amplitudes(co.BGState(1.0, 3.0 - 1.0j))
        assert vec.norm_defect() < 1e-10

    def test_cutoff_exhaustion(self):
        # mean quantum number ~ |z| beyond the hard cap of 2048
        with pytest.raises(co.CutoffExhausted):
            co.bg_amplitudes(co.BGState(0.5, 3000.0))


class TestStateVectorTails:
    # states whose weights all underflow in the starting window of 64 terms,
    # and Perelomov states whose weight ratio approaches |lambda|^2 > 0.75
    @pytest.mark.parametrize("state", [
        co.SGState(0.5, 40.0), co.BGState(3.0, 800.0),
        co.PerelomovState(0.5, 0.9), co.PerelomovState(0.25, 0.95)])
    def test_representable_state_is_returned(self, state):
        vec = co.amplitudes(state)
        assert np.any(vec.coeffs)
        assert vec.norm_defect() <= co.TAIL_TOL
        assert vec.tail_norm <= co.TAIL_TOL

    @pytest.mark.parametrize("state", [
        co.PerelomovState(500.0, 0.9), co.BGState(0.5, 1e5)])
    def test_state_beyond_cap_raises(self, state):
        # mean quantum numbers ~4263 and ~1e5, beyond MAX_CUTOFF
        with pytest.raises(co.CutoffExhausted):
            co.amplitudes(state)

    def test_rising_ratio_tail_is_bounded(self):
        # at 2k < 1 the Perelomov weight ratio rises towards |lambda|^2, so
        # the reported tail must bound the exact remainder of the series
        k, lam = 0.25, 0.95
        vec = co.perelomov_amplitudes(co.PerelomovState(k, lam))
        n = np.arange(vec.cutoff, vec.cutoff + 20000, dtype=float)
        logw = (2 * k * math.log1p(-lam * lam) + 2 * n * math.log(lam)
                + gammaln(2 * k + n) - math.lgamma(2 * k) - gammaln(n + 1.0))
        assert math.sqrt(float(np.sum(np.exp(logw)))) <= vec.tail_norm

    def test_wrong_normalization_raises(self):
        # a weight set that misses unit norm is refused, not returned
        with pytest.raises(co.NormDefect):
            co._grow_until_tail(lambda n: np.where(n == 0, math.log(0.5), -np.inf), 1.0, 0.0)


# one state of each family, then each family's zero parameter
FAMILY_STATES = [co.BGState(0.75, 2.0 - 1.0j), co.PerelomovState(0.25, 0.6j),
                 co.SGState(1.5, -1.2 + 0.4j), co.BGState(0.75, 0.0),
                 co.PerelomovState(0.25, 0.0), co.SGState(1.5, 0.0)]


class TestFamilyProtocol:
    @pytest.mark.parametrize("state", FAMILY_STATES,
                             ids=["bg", "perelomov", "sg", "bg0", "perelomov0", "sg0"])
    def test_number_prob_is_the_squared_amplitude(self, state):
        vec = co.amplitudes(state)
        probs = [co.number_prob(state, n) for n in range(vec.cutoff)]
        assert probs == pytest.approx(np.abs(vec.coeffs) ** 2, rel=1e-12, abs=0.0)
        assert math.fsum(probs) == pytest.approx(1.0 - vec.tail_norm ** 2, rel=1e-12)

    def test_amplitudes_rejects_a_non_state(self):
        with pytest.raises(TypeError, match="not a coherent state"):
            co.amplitudes(object())

    @pytest.mark.parametrize("lam", [1.0, 1.5j], ids=["1", "1.5"])
    @pytest.mark.parametrize("fn", [lambda lam: co.PerelomovState(1.0, lam),
                                    lambda lam: co.perelomov_expectations(1.0, lam),
                                    lambda lam: co.cross_overlaps(1.0, 1.0, 1.0, lam)],
                             ids=["PerelomovState", "perelomov_expectations", "cross_overlaps"])
    def test_lambda_outside_unit_disc_rejected(self, fn, lam):
        # PerelomovState and cross_overlaps raised a bare ValueError
        with pytest.raises(sf.DomainError, match=r"\|lambda\| must be < 1"):
            fn(lam)


class TestBGExpectations:
    def test_vacuum(self):
        ex = co.bg_expectations(1.3, 0.0)
        assert ex["K0"] == 1.3
        assert ex["Q"] is None and ex["R"] is None

    def test_phase_readout(self):
        ex = co.bg_expectations(0.5, 3.0 * cmath.exp(0.7j))
        assert -ex["K2"] / ex["K1"] == pytest.approx(math.tan(0.7), rel=1e-12)

    def test_q_approaches_minus_half(self):
        qs = [co.bg_expectations(0.5, r)["Q"] for r in (10.0, 20.0, 50.0)]
        gaps = [abs(q + 0.5) for q in qs]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.02

    def test_k_independence_of_quadratures(self):
        z = 1.3 * cmath.exp(0.4j)
        vals = [(co.bg_expectations(k, z)["K1"], co.bg_expectations(k, z)["K2"])
                for k in (0.25, 0.5, 1.0, 3.0)]
        assert all(v == vals[0] for v in vals)

    def test_minimal_uncertainty_exact(self):
        ex = co.bg_expectations(0.5, 2.0 * cmath.exp(1j * math.pi / 3))
        assert ex["var_K1"] * ex["var_K2"] == pytest.approx(
            ex["K0"] ** 2 / 4.0, rel=1e-12)
        assert ex["S_corr"] == 0.0

    @pytest.mark.parametrize("k,z", [
        (0.5, 0.8 + 0.3j), (1.0, 2.5j), (0.25, 1.0), (2.7, 3.0 - 2.0j)])
    def test_matrix_oracle(self, k, z):
        vec = co.bg_amplitudes(co.BGState(k, z))
        g = su.build_generators(su.RepParams(k, vec.cutoff))
        ex = co.bg_expectations(k, z)
        mom = matrix_moments(vec, {"K0": g["K0"], "K1": g["K1"], "K2": g["K2"]})
        assert mom["K0"][0].real == pytest.approx(ex["K0"], rel=1e-7)
        assert mom["K1"][0].real == pytest.approx(ex["K1"], abs=1e-7)
        assert mom["K2"][0].real == pytest.approx(ex["K2"], abs=1e-7)
        assert mom["K0"][1].real == pytest.approx(ex["K0_sq"], rel=1e-7)
        assert mom["K1"][1].real == pytest.approx(ex["K1_sq"], rel=1e-7)
        var1 = mom["K1"][1].real - mom["K1"][0].real ** 2
        assert var1 == pytest.approx(ex["var_K1"], rel=1e-7)

    def test_casimir_deficit(self):
        # <K1^2 + K2^2> - <K0^2> equals k(1-k) in closed form
        for k in (0.25, 0.5, 1.0, 2.7):
            ex = co.bg_expectations(k, 1.7 - 0.6j)
            assert ex["K1_sq"] + ex["K2_sq"] - ex["K0_sq"] == pytest.approx(
                k * (1 - k), abs=1e-10)

    def test_inv_expectation(self):
        k, z = 0.75, 2.2
        ex = co.bg_expectations(k, z)
        assert ex["E_inv"] == pytest.approx(sf.rho_k(k, abs(z)) / abs(z), rel=1e-13)

    def test_one_distribution_per_call(self, monkeypatch):
        # every moment up to NEAR_MODULUS reads one shared distribution
        calls, build = [], sf.bg_distribution

        def counted(k, x):
            calls.append(x)
            return build(k, x)

        monkeypatch.setattr(sf, "bg_distribution", counted)
        for r in (0.0, 1.0, co.NEAR_MODULUS):
            co.bg_expectations(0.5, r)
        assert calls == [0.0, 1.0, co.NEAR_MODULUS]

    def test_a_expectation_matrix_oracle(self):
        k, z = 1.0, 1.5j
        vec = co.bg_amplitudes(co.BGState(k, z))
        lad = su.composite_ladder(su.RepParams(k, vec.cutoff))
        a_mat = complex(np.vdot(vec.coeffs, lad["a"].entries @ vec.coeffs))
        assert co.bg_expectations(k, z)["a_expect"] == pytest.approx(a_mat, rel=1e-8)

    def test_inv_sqrt_branch_overlap(self):
        # series and integral evaluations agree around the |z| = 20 handoff
        for k in (0.5, 1.0, 2.0):
            lo = co.inv_sqrt_k0_expectation(k, 20.0)
            hi = co.inv_sqrt_k0_expectation(k, np.nextafter(20.0, 30.0))
            assert hi == pytest.approx(lo, rel=1e-9)


    @pytest.mark.parametrize("k", [0.05, 0.25, 0.5, 1.0, 3.0, 10.0, 50.0])
    def test_inv_sqrt_series_side(self, k):
        # 34-digit direct sum of (2k+n)^{-1/2} |z|^{2n} / ((2k)_n n!) over g_k
        for z in (1e-3, 0.1, 1.0, 5.0, 10.0, 20.0):
            with mp.workdps(34):
                kk, r2 = mp.mpf(k), mp.mpf(z) ** 2
                t, num, den, n = mp.mpf(1), mp.mpf(0), mp.mpf(0), 0
                while n < 10 or t > mp.mpf(10) ** -40 * den:
                    num += t / mp.sqrt(2 * kk + n)
                    den += t
                    t *= r2 / ((2 * kk + n) * (n + 1))
                    n += 1
                ref = float(num / den)
            assert co.inv_sqrt_k0_expectation(k, z) == pytest.approx(ref, rel=1e-13), (k, z)

class TestBGOverlap:
    def test_self_overlap(self):
        assert co.bg_overlap(0.7, 1.3j, 1.3j) == pytest.approx(1.0, rel=1e-12)

    def test_against_ground(self):
        k, z = 1.0, 2.0
        assert co.bg_overlap(k, 0.0, z) == pytest.approx(
            1.0 / math.sqrt(sf.g_k(k, abs(z) ** 2).value), rel=1e-12)

    def test_vector_oracle(self):
        k = 1.0
        v1 = co.bg_amplitudes(co.BGState(k, 1j))
        v2 = co.bg_amplitudes(co.BGState(k, 1.0))
        n = max(v1.cutoff, v2.cutoff)
        c1 = np.pad(v1.coeffs, (0, n - v1.cutoff))
        c2 = np.pad(v2.coeffs, (0, n - v2.cutoff))
        inner = complex(np.vdot(c2, c1))
        assert co.bg_overlap(k, 1.0, 1j) == pytest.approx(inner, abs=1e-10)


class TestBGNumberProb:
    def test_ground_weight(self):
        k, z = 0.6, 1.1
        assert co.number_prob(co.BGState(k, z), 0) == pytest.approx(
            1.0 / sf.g_k(k, abs(z) ** 2).value, rel=1e-12)

    def test_sums_to_one(self):
        k, z = 0.75, 4.0
        total = math.fsum(co.number_prob(co.BGState(k, z), n) for n in range(200))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_sub_poissonian_tail(self):
        ex = co.bg_expectations(0.5, 50.0)
        assert ex["var_N"] / ex["Nbar"] == pytest.approx(0.5, abs=0.02)

    def test_normalization_beyond_ten_thousand_terms(self):
        # g_k(|z|^2 = 1e8) needs about 2e4 terms; a normalization cut at 10^4
        # gave 0.01118
        k, z, n = 0.5, 1e4, 10000
        with mp.workdps(40):
            ref = float(mp.mpf(z) ** (2 * n) / (mp.rf(2 * k, n) * mp.factorial(n)
                                                 * mp.hyp0f1(2 * k, mp.mpf(z) ** 2)))
        assert co.number_prob(co.BGState(k, z), n) == pytest.approx(ref, abs=1e-10)


class TestPerelomov:
    def test_zero_parameter(self):
        vec = co.perelomov_amplitudes(co.PerelomovState(1.0, 0.0))
        assert vec.coeffs[0] == 1.0

    def test_normalization(self):
        vec = co.perelomov_amplitudes(co.PerelomovState(1.0, 0.6 * cmath.exp(1j * math.pi / 4)))
        assert vec.norm_defect() < 1e-10

    def test_displacement_eigen_relation(self):
        k, lam = 0.5, 0.4 + 0.3j
        vec = co.perelomov_amplitudes(co.PerelomovState(k, lam))
        g = su.build_generators(su.RepParams(k, vec.cutoff))
        dinv = np.diag(1.0 / (np.arange(vec.cutoff) + 2 * k))
        op = dinv @ g["Kminus"].entries
        resid = np.linalg.norm(op @ vec.coeffs - lam * vec.coeffs)
        assert resid < 1e-8

    def test_domain(self):
        with pytest.raises(ValueError):
            co.PerelomovState(1.0, 1.0)

    def test_w_lambda_consistency(self):
        st_ = co.PerelomovState(1.0, 0.5 * cmath.exp(0.3j))
        assert abs(st_.w) == pytest.approx(math.log(1.5 / 0.5), rel=1e-12)
        assert cmath.phase(st_.w) == pytest.approx(0.3, rel=1e-12)
        again = co.PerelomovState.from_w(1.0, st_.w)
        assert again.lam == pytest.approx(st_.lam, rel=1e-12)

    def test_expectations_closed_forms(self):
        k, lam = 0.5, 0.5
        ex = co.perelomov_expectations(k, lam)
        w = 2 * math.atanh(0.5)
        assert ex["K0"] == pytest.approx(k * math.cosh(w), rel=1e-12)
        assert ex["K1"] == pytest.approx(k * math.sinh(w), rel=1e-12)
        assert ex["R"] == 1.0 / (2 * k)

    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9])
    @pytest.mark.parametrize("k", [0.25, 1.0, 10.0])
    def test_closed_forms_near_the_edge(self, k, gap):
        # 1 - r*r lost the digits that (1 - r)(1 + r) keeps: K0 was 5e-10 off at gap 1e-9
        lam = 1.0 - gap
        ex = co.perelomov_expectations(k, lam)
        with mp.workdps(50):
            r2 = mp.mpf(lam) ** 2
            k0 = k * (1 + r2) / (1 - r2)
            var_k0 = 2 * k * r2 / (1 - r2) ** 2
        assert ex["K0"] == pytest.approx(float(k0), rel=1e-14)
        assert ex["var_K0"] == pytest.approx(float(var_k0), rel=1e-14)

    @pytest.mark.parametrize("r", [1e-8, 1e-5, 1e-3, 0.3])
    @pytest.mark.parametrize("k", [0.05, 0.5, 10.0, 50.0])
    def test_mean_number_at_small_lambda(self, k, r):
        # Nbar = K0 - k cancelled: 5e-11 off at k = 10, |lambda| = 1e-3
        lam = r * cmath.exp(0.9j)
        ex = co.perelomov_expectations(k, lam)
        with mp.workdps(40):
            r2 = mp.mpf(abs(lam)) ** 2
            nbar = 2 * k * r2 / (1 - r2)
        assert ex["Nbar"] == pytest.approx(float(nbar), rel=1e-14, abs=0.0)
        assert ex["Q"] == pytest.approx(float(nbar / (2 * k)), rel=1e-14, abs=0.0)

    def test_r_constant_in_lambda(self):
        vals = [co.perelomov_expectations(1.0, lam)["R"] for lam in (0.1, 0.5j, -0.7)]
        assert vals == [0.5, 0.5, 0.5]

    def test_squeezing_at_axis_angles(self):
        # theta = 0: the K2 quadrature drops to k/2, below half of <K0>
        ex = co.perelomov_expectations(0.5, 0.5)
        assert ex["var_K2"] == pytest.approx(0.25, abs=1e-12)
        assert ex["K0"] / 2 == pytest.approx(0.41666666666666663, abs=1e-12)
        assert ex["var_K2"] < ex["K0"] / 2
        ex2 = co.perelomov_expectations(0.5, 0.5j)
        assert ex2["var_K1"] == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("k,lam", [(0.5, 0.3), (1.0, 0.5j), (2.0, -0.25 + 0.55j)])
    def test_matrix_oracle(self, k, lam):
        vec = co.perelomov_amplitudes(co.PerelomovState(k, lam))
        g = su.build_generators(su.RepParams(k, vec.cutoff))
        ex = co.perelomov_expectations(k, lam)
        mom = matrix_moments(vec, {"K0": g["K0"], "K1": g["K1"], "K2": g["K2"]})
        assert mom["K0"][0].real == pytest.approx(ex["K0"], rel=1e-7)
        assert mom["K1"][0].real == pytest.approx(ex["K1"], abs=1e-7)
        var2 = mom["K2"][1].real - mom["K2"][0].real ** 2
        assert var2 == pytest.approx(ex["var_K2"], rel=1e-7)

    @given(st.floats(0.26, 3.0), st.floats(0.0, 0.8), st.floats(0.0, 6.28))
    @settings(max_examples=40, deadline=None)
    def test_identities(self, k, r, th):
        ex = co.perelomov_expectations(k, r * cmath.exp(1j * th))
        assert ex["sum_sq_identity"] == pytest.approx(0.0, abs=1e-8 * max(1, ex["K0"] ** 2))
        assert ex["fluct_identity"] == pytest.approx(0.0, abs=1e-8 * max(1, ex["var_K0"]))
        assert ex["schwarz_defect"] == pytest.approx(0.0, abs=1e-10 * max(1, ex["K0"] ** 2))


class TestBoseStatistics:
    """At k = 1/2 the displacement states carry the Bose-Einstein law
    (1-|lam|^2)|lam|^{2n}, of mean |lam|^2/(1-|lam|^2)."""

    def test_ground_weight(self):
        assert co.number_prob(co.PerelomovState(0.5, 0.6), 0) == pytest.approx(1 - 0.36, rel=1e-15)

    def test_normalized(self):
        state = co.PerelomovState(0.5, 0.8)
        total = math.fsum(co.number_prob(state, n) for n in range(400))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_parameter_is_ground(self):
        state = co.PerelomovState(0.5, 0.0)
        assert [co.number_prob(state, n) for n in range(3)] == [1.0, 0.0, 0.0]

    def test_geometric_weights_match_squared_amplitudes(self):
        for lam in (0.45, 0.8j, -0.99, 1e-3 * cmath.exp(0.4j)):
            state = co.PerelomovState(0.5, lam)
            with mp.workdps(40):
                x = mp.mpf(abs(lam)) ** 2
                law = [float((1 - x) * x ** n) for n in range(401)]
            for n, ref in enumerate(law):
                if ref > 1e-300:
                    assert co.number_prob(state, n) == pytest.approx(ref, rel=1e-12, abs=0.0), (lam, n)
            vec = co.perelomov_amplitudes(state)
            assert np.abs(vec.coeffs[:6]) ** 2 == pytest.approx(law[:6], rel=1e-12, abs=0.0)

    def test_mean_matches_displacement_family(self):
        for lam in (1e-8, 1e-3, 0.55j, -0.9, 1.0 - 1e-6):
            with mp.workdps(40):
                x = mp.mpf(abs(lam)) ** 2
                mean = float(x / (1 - x))
            assert co.perelomov_expectations(0.5, lam)["Nbar"] == pytest.approx(mean, rel=1e-14, abs=0.0), lam


class TestSG:
    def test_zero_parameter(self):
        vec = co.sg_amplitudes(co.SGState(0.5, 0.0))
        assert vec.coeffs[0] == 1.0

    def test_mean_number_k_independent(self):
        for k in (0.25, 2.0):
            ex = co.sg_expectations(k, 1.7)
            assert ex["Nbar"] == pytest.approx(1.7 ** 2, rel=1e-14)

    def test_composite_eigenvector(self):
        k, alpha = 1.0, 1.5j
        vec = co.sg_amplitudes(co.SGState(k, alpha))
        lad = su.composite_ladder(su.RepParams(k, vec.cutoff))
        resid = np.linalg.norm(lad["a"].entries @ vec.coeffs - alpha * vec.coeffs)
        assert resid < 1e-8

    def test_k0_variance(self):
        ex = co.sg_expectations(0.75, 2.0)
        assert ex["var_K0"] == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("k,alpha", [(0.5, 1.0), (1.0, 0.7 - 1.1j), (0.25, 2.0j)])
    def test_matrix_oracle(self, k, alpha):
        vec = co.sg_amplitudes(co.SGState(k, alpha))
        g = su.build_generators(su.RepParams(k, vec.cutoff))
        ex = co.sg_expectations(k, alpha)
        mom = matrix_moments(vec, {"K0": g["K0"], "K1": g["K1"], "K2": g["K2"]})
        assert mom["K0"][0].real == pytest.approx(ex["K0"], rel=1e-7)
        assert mom["K1"][0].real == pytest.approx(ex["K1"], abs=1e-7)
        assert mom["K1"][1].real == pytest.approx(ex["K1_sq"], rel=1e-7)
        assert mom["K2"][1].real == pytest.approx(ex["K2_sq"], rel=1e-7)

    def test_casimir_deficit(self):
        for k in (0.25, 0.5, 1.0, 3.0):
            ex = co.sg_expectations(k, 1.3 + 0.4j)
            k0sq = ex["K0"] ** 2 + ex["var_K0"]
            assert ex["K1_sq"] + ex["K2_sq"] - k0sq == pytest.approx(
                k * (1 - k), abs=1e-8)


class TestSGAsymptotics:
    def test_domain(self):
        with pytest.raises(ValueError):
            co.sg_asymptotics(0.5, 2.0)

    def test_h2_minus_h1sq_leading(self):
        sa = co.sg_asymptotics(1.0, 30.0)
        assert sa["diff"] == pytest.approx(0.75, abs=1e-3)

    def test_h_leading_term(self):
        k, r = 0.5, 20.0
        sa = co.sg_asymptotics(k, r)
        se = co.sg_sums(k, r)
        assert sa["h"] == pytest.approx(se["h"], rel=1e-2)
        assert se["h"] == pytest.approx(r * r / 4.0, rel=0.01)

    def test_h1_near_direct_series(self):
        k, r = 0.5, 20.0
        sa = co.sg_asymptotics(k, r)
        se = co.sg_sums(k, r)
        assert sa["h1"] == pytest.approx(se["h1"], rel=1e-4)

    def test_deviation_decays_at_predicted_power(self):
        # |h1_series - h1_expansion| should fall like |alpha|^{-6} * |alpha|
        k = 1.0
        rs = np.array([8.0, 16.0, 32.0])
        errs = [abs(co.sg_sums(k, r)["h1"] - co.sg_asymptotics(k, r)["h1"]) / r
                for r in rs]
        slope = np.polyfit(np.log(rs), np.log(errs), 1)[0]
        assert slope == pytest.approx(-6.0, abs=0.4)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_h1_sq_deviation_decays_at_predicted_power(self, k):
        # |h1_series^2 - h1_sq_expansion| should fall like |alpha|^{-6} * |alpha|^2
        rs = np.array([8.0, 16.0, 32.0])
        errs = [abs(co.sg_sums(k, r)["h1"] ** 2 - co.sg_asymptotics(k, r)["h1_sq"]) / r ** 2
                for r in rs]
        slope = np.polyfit(np.log(rs), np.log(errs), 1)[0]
        assert slope == pytest.approx(-6.0, abs=0.4)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_diff_deviation_decays_at_predicted_power(self, k):
        # |(h2 - h1^2)_series - diff_expansion| should fall like |alpha|^{-4}
        rs = np.array([8.0, 16.0, 32.0])
        errs = []
        for r in rs:
            se = co.sg_sums(k, r)
            errs.append(abs(se["h2"] - se["h1"] ** 2 - co.sg_asymptotics(k, r)["diff"]))
        slope = np.polyfit(np.log(rs), np.log(errs), 1)[0]
        assert slope == pytest.approx(-4.0, abs=0.4)

    def test_coefficients_against_poisson_sums(self):
        # the x^-4 terms of h1 and h1^2 and the x^-2 term of h2 - h1^2, read
        # off 50-digit Poisson sums at x = 32, 64 with the next order
        # removed by Richardson extrapolation
        def sums(k, x):
            big = x * x
            acc1 = acc2 = mp.mpf(0)
            logw = -big
            for n in range(int(big + 14 * mp.sqrt(big + 1) + 60) + 1):
                if n:
                    logw += mp.log(big) - mp.log(n)
                w = mp.exp(logw)
                acc1 += w * mp.sqrt(2 * k + n)
                acc2 += w * mp.sqrt((2 * k + n) * (2 * k + n + 1))
            return acc1, acc2

        with mp.workdps(50):
            for k in (0.5, 1.0, 2.0):
                fits = []
                for x in (32, 64):
                    h1, h2 = sums(mp.mpf(k), mp.mpf(x))
                    fits.append(((h1 / x - 1 - (k - 0.125) / x ** 2) * x ** 4,
                                 (h1 ** 2 / x ** 2 - 1 - (2 * k - 0.25) / x ** 2) * x ** 4,
                                 (h2 - h1 ** 2 - 0.75) * x ** 2))
                c14, c_sq, c_diff = (float((4 * hi - lo) / 3) for lo, hi in zip(*fits))
                sa = co.sg_asymptotics(k, 64.0)
                assert sa["c1_minus4"] == pytest.approx(c14, abs=1e-5)
                assert (sa["h1_sq"] / 64.0 ** 2 - 1 - (2 * k - 0.25) / 64.0 ** 2) * 64.0 ** 4 \
                    == pytest.approx(c_sq, abs=1e-5)
                assert (sa["diff"] - 0.75) * 64.0 ** 2 == pytest.approx(c_diff, abs=1e-5)

    @pytest.mark.parametrize("k", [0.05, 0.25, 1.0, 3.0, 10.0])
    def test_sums_against_mpmath(self, k):
        # 40-digit Poisson sums: the oracle forms h and h2 - h1^2 by
        # cancelling terms of size x^2 and x, so it carries digits to spare
        for r in (0.0, 0.1, 5.0, 20.0, 40.0, 100.0):
            with mp.workdps(40):
                kk, x = mp.mpf(k), mp.mpf(r) ** 2
                width = 14 * mp.sqrt(x + 1) + 60
                n0 = int(max(0, mp.floor(x - width)))
                t = mp.exp(-x + n0 * mp.log(x) - mp.loggamma(n0 + 1)) if x > 0 else mp.mpf(1)
                h1 = h2 = mp.mpf(0)
                for n in range(n0, int(x + width) + 1):
                    h1 += t * mp.sqrt(2 * kk + n)
                    h2 += t * mp.sqrt((2 * kk + n) * (2 * kk + n + 1))
                    t *= x / (n + 1)
                ref = {"h1": h1, "h2": h2, "h": x * x / 2 - (h2 - 2 * kk - 1) * x / 2 + kk / 2,
                       "diff": h2 - h1 * h1}
            se = co.sg_sums(k, r)
            for key, val in ref.items():
                assert se[key] == pytest.approx(float(val), rel=1e-12), (k, r, key)

    def test_var_k1_structure_at_cos1(self):
        # beta = 0: var K1 ~ (3/4 + 1/4)|alpha|^2 to leading order
        k, r = 0.5, 8.0
        ex = co.sg_expectations(k, r)
        assert ex["var_K1"] == pytest.approx(r * r, rel=0.05)


class TestCrossOverlaps:
    def test_trivial_kernel(self):
        cr = co.cross_overlaps(1.0, 0.0, 1j, 0.3)
        assert cr["C_k"] == 1.0 + 0j

    def test_overlap_modulus_extremes(self):
        # fixed moduli: the lambda-z overlap is largest at equal phases and
        # smallest at opposite phases
        k, rl, rz = 0.5, 0.5, 2.0
        aligned = abs(co.cross_overlaps(k, 0, rz, rl)["overlap_lz"])
        anti = abs(co.cross_overlaps(k, 0, rz * cmath.exp(1j * math.pi), rl)["overlap_lz"])
        mid = abs(co.cross_overlaps(k, 0, rz * cmath.exp(1j * 1.0), rl)["overlap_lz"])
        assert aligned > mid > anti

    def test_vector_oracles(self):
        k, alpha, z, lam = 1.0, 1.0, 1j, 0.4 + 0.2j
        cr = co.cross_overlaps(k, alpha, z, lam)
        va = co.sg_amplitudes(co.SGState(k, alpha))
        vz = co.bg_amplitudes(co.BGState(k, z))
        vl = co.perelomov_amplitudes(co.PerelomovState(k, lam))
        n = max(va.cutoff, vz.cutoff, vl.cutoff)
        pad = lambda v: np.pad(v.coeffs, (0, n - v.cutoff))
        assert cr["overlap_az"] == pytest.approx(
            complex(np.vdot(pad(va), pad(vz))), abs=1e-10)
        assert cr["overlap_al"] == pytest.approx(
            complex(np.vdot(pad(va), pad(vl))), abs=1e-10)
        assert cr["overlap_lz"] == pytest.approx(
            complex(np.vdot(pad(vl), pad(vz))), abs=1e-10)

    def test_c_kernel_series_oracle(self):
        k, u = 1.0, 1j  # conj(alpha) * z with alpha = 1, z = i
        acc, term = 0.0 + 0j, 1.0 + 0j
        for n in range(200):
            acc += term
            term *= u / ((n + 1.0) * math.sqrt(2 * k + n))
        assert co.cross_overlaps(k, 1.0, 1j, 0.0)["C_k"] == pytest.approx(acc, abs=1e-10)

    def test_large_alpha_log_domain(self):
        # e^{-|alpha|^2/2} = e^{-800} underflows while D_k(36) ~ 1.3e284
        k, alpha, z, lam = 1, 40, 0.5, 0.9
        with mp.workdps(40):
            u = mp.mpf(alpha) * lam
            d_k = mp.fsum(mp.sqrt(mp.rf(2 * k, n)) * u ** n / mp.factorial(n)
                          for n in range(4000))
            ref = mp.exp(-mp.mpf(alpha) ** 2 / 2) * (1 - mp.mpf(lam) ** 2) ** k * d_k
        got = co.cross_overlaps(k, alpha, z, lam)["overlap_al"]
        assert got == pytest.approx(complex(ref), rel=1e-10, abs=0)

    @pytest.mark.parametrize("kernel,u", [(co.cross_kernel_D, 38), (co.cross_kernel_D, 50),
                                          (co.cross_kernel_C, 1e5)])
    def test_kernel_overflow_raises(self, kernel, u):
        with pytest.raises(OverflowError):
            kernel(1, u)


FAMILIES = [(co.BGState, 1.2 + 0.5j), (co.PerelomovState, 0.4 - 0.3j), (co.SGState, 1.1j)]
FAMILY_IDS = ["bg", "perelomov", "sg"]


class TestTimeEvolution:
    @pytest.mark.parametrize("cls,par", FAMILIES, ids=FAMILY_IDS)
    def test_parameter_turns(self, cls, par):
        k, t = 0.75, 0.9
        s2, phase = co.time_evolve(cls(k, par), t)
        assert type(s2) is cls and s2.k == k
        assert s2.parameter == pytest.approx(par * cmath.exp(-1j * t), rel=1e-15)
        assert phase == pytest.approx(cmath.exp(-1j * k * t), rel=1e-15)

    def test_perelomov_w_follows(self):
        s2, _ = co.time_evolve(co.PerelomovState(1.0, 0.5 * cmath.exp(0.3j)), 0.9)
        assert s2.w == pytest.approx(math.log(3.0) * cmath.exp(-0.6j), rel=1e-12)
        assert co.PerelomovState.from_w(1.0, s2.w).lam == pytest.approx(s2.lam, rel=1e-12)

    @pytest.mark.parametrize("cls,par", FAMILIES[1:], ids=FAMILY_IDS[1:])
    def test_vector_oracle(self, cls, par):
        # test_matrix_exponential_oracle for the other two families
        k, t = 0.5, 0.9
        vec = co.amplitudes(cls(k, par))
        s2, phase = co.time_evolve(cls(k, par), t)
        vec2 = co.amplitudes(s2)
        n = min(vec.cutoff, vec2.cutoff)
        evolved = np.exp(-1j * (k + np.arange(n)) * t) * vec.coeffs[:n]
        assert np.allclose(evolved, phase * vec2.coeffs[:n], atol=1e-10)

    def test_identity_at_zero(self):
        s = co.BGState(0.5, 1 + 1j)
        s2, phase = co.time_evolve(s, 0.0)
        assert s2.z == s.z and phase == 1.0

    def test_full_period(self):
        k = 0.75
        s2, phase = co.time_evolve(co.SGState(k, 1.1j), 2 * math.pi)
        assert s2.alpha == pytest.approx(1.1j, rel=1e-12)
        assert phase == pytest.approx(cmath.exp(-2j * math.pi * k), rel=1e-12)

    def test_matrix_exponential_oracle(self):
        # evolving the coefficient vector with exp(-i K0 t) matches the
        # parameter map plus global phase
        k, z, t = 0.5, 1.2 + 0.5j, 0.9
        vec = co.bg_amplitudes(co.BGState(k, z))
        evolved_vec = np.exp(-1j * (k + np.arange(vec.cutoff)) * t) * vec.coeffs
        s2, phase = co.time_evolve(co.BGState(k, z), t)
        vec2 = co.bg_amplitudes(s2)
        n = min(vec.cutoff, vec2.cutoff)
        assert np.allclose(evolved_vec[:n], phase * vec2.coeffs[:n], atol=1e-10)

    def test_quadrature_traces_cosine(self):
        k, r, phi = 0.5, 1.5, 0.8
        for t in (0.0, 0.4, 1.9):
            s2, _ = co.time_evolve(co.BGState(k, r * cmath.exp(1j * phi)), t)
            ex = co.bg_expectations(k, s2.z)
            assert ex["K1"] == pytest.approx(r * math.cos(phi - t), abs=1e-12)


class TestSerialization:
    def test_round_trip_fields(self):
        s = co.BGState(0.5, 1.0)
        vec = co.bg_amplitudes(s)
        blob = co.serialize_state(s, vec)
        assert blob["family"] == "bg"
        assert blob["coeffs"][0][0] == pytest.approx(1 / math.sqrt(float(mp.besseli(0, 2.0))))

    @pytest.mark.parametrize("cls,par,family", [f + (i,) for f, i in zip(FAMILIES, FAMILY_IDS)],
                             ids=FAMILY_IDS)
    def test_family_fields(self, cls, par, family):
        s = cls(1.5, par)
        vec = co.amplitudes(s)
        blob = json.loads(json.dumps(co.serialize_state(s, vec)))
        assert blob["family"] == family and blob["k"] == 1.5
        assert blob["parameter"] == [par.real, par.imag]
        assert blob["cutoff"] == vec.cutoff == len(blob["coeffs"])
        assert blob["tail_norm"] == vec.tail_norm
        assert [complex(*c) for c in blob["coeffs"]] == list(vec.coeffs)


@pytest.mark.parametrize("k", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("make", [
    lambda k: co.BGState(k, 1.0),
    lambda k: co.PerelomovState(k, 0.5),
    lambda k: co.SGState(k, 1.0),
    lambda k: co.bg_expectations(k, 1.0),
    lambda k: co.perelomov_expectations(k, 0.5),
    lambda k: co.sg_expectations(k, 1.0),
], ids=["BGState", "PerelomovState", "SGState", "bg_expectations", "perelomov_expectations",
        "sg_expectations"])
def test_non_finite_k_rejected(make, k):
    # a nan k used to grow a BG state to MAX_CUTOFF and report CutoffExhausted
    with pytest.raises(ValueError, match="k"):
        make(k)
