"""Discrete-series matrices: ladder algebra, Casimir, composites, contraction."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so12phase import su11_rep as su
from so12phase.coherent import MAX_CUTOFF
from so12phase.special_fn import DomainError

K_GRID = (0.25, 0.5, 1.0, 3.0, 10.0)


def interior(mat, m):
    return mat[:m, :m]


class TestBuildGenerators:
    def test_k0_diagonal(self):
        g = su.build_generators(su.RepParams(0.5, 4))
        assert np.allclose(np.diag(g["K0"].entries), [0.5, 1.5, 2.5, 3.5])

    def test_kplus_element(self):
        g = su.build_generators(su.RepParams(1.0, 6))
        assert g["Kplus"].entries[1, 0] == pytest.approx(math.sqrt(2.0))

    def test_kminus_annihilates_ground(self):
        g = su.build_generators(su.RepParams(0.7, 8))
        assert np.all(g["Kminus"].entries[:, 0] == 0.0)

    def test_mutual_adjoints(self):
        g = su.build_generators(su.RepParams(1.3, 12))
        assert np.array_equal(g["Kplus"].entries, g["Kminus"].entries.conj().T)

    @pytest.mark.parametrize("k", [0.25, 0.5, 0.75, 1.0, 1.5, 2.3])
    @pytest.mark.parametrize("n_dim", [16, 64, 256])
    def test_commutators_on_interior(self, k, n_dim):
        # residuals are relative to the spectral scale k+N: the raw products
        # reach O(N^2) entries, so an absolute 1e-12 is unattainable in
        # doubles once N is in the hundreds
        res = su.commutator_residuals(su.RepParams(k, n_dim))
        scale = max(1.0, k + n_dim)
        assert res["comm_K0_K1"] < 1e-12 * scale
        assert res["comm_K0_K2"] < 1e-12 * scale
        assert res["comm_K1_K2"] < 1e-12 * scale

    @pytest.mark.parametrize("k", [0.5, 3.0])
    def test_commutators_at_max_cutoff(self, k):
        # the audit runs on the bands: one dense 2048^2 complex matrix alone
        # is 64 MiB, so the 8 MiB peak pins O(N) memory
        tracemalloc.start()
        try:
            res = su.commutator_residuals(su.RepParams(k, MAX_CUTOFF))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scale = k + MAX_CUTOFF
        assert res["comm_K0_K1"] < 1e-12 * scale
        assert res["comm_K0_K2"] < 1e-12 * scale
        assert res["comm_K1_K2"] < 1e-12 * scale
        assert peak < 8 * 2 ** 20

    def test_bad_params(self):
        with pytest.raises(ValueError):
            su.RepParams(-1.0, 16)
        with pytest.raises(ValueError):
            su.RepParams(0.5, 3)

    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_non_finite_k_rejected(self, k):
        with pytest.raises(ValueError):
            su.RepParams(k, 8)

    @pytest.mark.parametrize("fn,k", [
        (su.build_generators, 1e308),   # K1 would hold inf+nanj
        (su.composite_ladder, 1e308),   # a would hold 0 * inf = nan
        (su.holstein_primakoff, 1e308),
        (su.casimir, 1e200),            # K0^2 overflows: -inf+nanj entries
        (su.commutator_residuals, 1e200),
    ], ids=["build_generators", "composite_ladder", "holstein_primakoff", "casimir",
            "commutator_residuals"])
    def test_overflow_raises(self, fn, k):
        with pytest.raises(ValueError):
            fn(su.RepParams(k, 8))

    @pytest.mark.parametrize("cutoff", [3, 8.5, "8"])
    def test_cutoff_checked(self, cutoff):
        # raised a bare ValueError
        with pytest.raises(DomainError, match="cutoff must be an integer of at least 4"):
            su.RepParams(0.5, cutoff)

    def test_non_integral_cutoff_rejected(self):
        with pytest.raises(ValueError):
            su.RepParams(0.5, 8.5)

    def test_numpy_integer_cutoff_accepted(self):
        # coherent state vectors report their cutoff as a numpy integer
        p = su.RepParams(0.5, np.int64(8))
        assert su.build_generators(p)["K0"].dim == 8
        assert su.commutator_residuals(p)["interior_dim"] == 6

    def test_overflow_raises_without_warning(self):
        # the non-finite Casimir entries are caught before any inf - inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                su.casimir(su.RepParams(1e200, 8))

    def test_build_memory_is_the_outputs(self):
        # at N = 1024 K0, K+ and K1 are 8 MiB each, K- is a view of K+ and K2
        # is 16 MiB; the bound leaves no room for an N^2 temporary beside them
        tracemalloc.start()
        try:
            su.build_generators(su.RepParams(1.0, 1024))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * 2 ** 20 + 16 * 2 ** 20 + 2 ** 20

    def test_holstein_primakoff_memory_is_the_outputs(self):
        # at N = 1024 K+ and K0 are 8 MiB each and K- is a view of K+
        tracemalloc.start()
        try:
            su.holstein_primakoff(su.RepParams(1.0, 1024))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * 2 ** 20 + 2 ** 20

    def test_group_of_origin(self):
        assert su.RepParams(2.0, 8).group_of_origin == "SO(1,2)"
        assert su.RepParams(1.5, 8).group_of_origin == "SU(1,1)"
        assert su.RepParams(0.27, 8).group_of_origin == "universal cover"


class TestCasimir:
    @pytest.mark.parametrize("k,expected", [
        (0.5, 0.25),          # harmonic-oscillator index
        (1.0, 0.0),           # the only index with no deviation
        (0.25, 3.0 / 16.0),
        (0.75, 3.0 / 16.0),
    ])
    def test_eigenvalues(self, k, expected):
        assert su.casimir_eigenvalue(k) == pytest.approx(expected, abs=0)
        cas = su.casimir(su.RepParams(k, 16)).entries
        m = su.RepParams(k, 16).interior_dim
        dev = interior(cas - expected * np.eye(16), m)
        assert np.max(np.abs(dev)) < 1e-12

    def test_equals_ladder_form(self):
        # K+K- + K0(1 - K0) agrees with K1^2+K2^2-K0^2 on the interior
        p = su.RepParams(0.75, 24)
        g = su.build_generators(p)
        alt = (g["Kplus"] @ g["Kminus"]
               + g["K0"].entries @ (np.eye(24) - g["K0"].entries))
        dev = interior(su.casimir(p).entries - alt, p.interior_dim)
        assert np.max(np.abs(dev)) < 1e-12


class TestCompositeLadder:
    def test_vacuum(self):
        p = su.RepParams(0.5, 8)
        lad = su.composite_ladder(p)
        assert lad["Nop"].entries[0, 0] == 0.0

    @pytest.mark.parametrize("k", [0.25, 0.5, 1.0, 2.7])
    def test_number_operator(self, k):
        lad = su.composite_ladder(su.RepParams(k, 12))
        assert lad["Nop"].entries[3, 3] == pytest.approx(3.0, abs=1e-13)

    @pytest.mark.parametrize("k", [0.25, 0.5, 1.0, 2.7])
    def test_canonical_commutator(self, k):
        p = su.RepParams(k, 32)
        lad = su.composite_ladder(p)
        comm = lad["a"] @ lad["a_dag"] - lad["a_dag"] @ lad["a"]
        dev = interior(comm - np.eye(32), p.interior_dim)
        assert np.max(np.abs(dev)) < 1e-13

    def test_ladder_action(self):
        lad = su.composite_ladder(su.RepParams(1.7, 10))
        n = np.arange(1, 10)
        assert np.allclose(lad["a"].entries[n - 1, n], np.sqrt(n), atol=1e-14)
        assert np.allclose(lad["a_dag"].entries[n, n - 1], np.sqrt(n), atol=1e-14)


class TestCompositeQP:
    def test_offdiagonal_element(self):
        qp = su.composite_qp(su.RepParams(0.9, 8))
        assert qp["Qtilde"].entries[0, 1] == pytest.approx(1 / math.sqrt(2))

    def test_diagonal_vanishes(self):
        qp = su.composite_qp(su.RepParams(0.9, 8))
        assert np.all(np.abs(np.diag(qp["Qtilde"].entries)) == 0.0)

    @pytest.mark.parametrize("k", [0.25, 0.5, 1.0, 2.7])
    def test_canonical_pair(self, k):
        p = su.RepParams(k, 24)
        qp = su.composite_qp(p)
        comm = qp["Qtilde"] @ qp["Ptilde"] - qp["Ptilde"] @ qp["Qtilde"]
        dev = interior(comm - 1j * np.eye(24), p.interior_dim)
        assert np.max(np.abs(dev)) < 1e-13

    def test_k_independence(self):
        a = su.composite_qp(su.RepParams(0.25, 16))["Qtilde"].entries
        b = su.composite_qp(su.RepParams(3.0, 16))["Qtilde"].entries
        assert np.max(np.abs(a - b)) < 1e-13


class TestNumberStateStats:
    def test_ground_state_variance(self):
        for k in (0.25, 0.5, 1.0, 3.2):
            stats = su.number_state_stats(k, 0)
            assert stats["var_K1"] == pytest.approx(k / 2.0, abs=0)
            assert stats["is_minimal"]

    def test_closed_form_vs_matrices(self):
        # truncated-matrix quadratic forms agree with the closed form
        k, n = 0.5, 2
        stats = su.number_state_stats(k, n)
        assert stats["var_K1"] == pytest.approx(3.25, abs=0)
        p = su.RepParams(k, 16)
        g = su.build_generators(p)
        vec = np.zeros(16, dtype=complex)
        vec[n] = 1.0
        k1sq = np.vdot(vec, g["K1"] @ (g["K1"] @ vec)).real
        assert k1sq == pytest.approx(stats["var_K1"], abs=1e-12)

    def test_equality_case(self):
        stats = su.number_state_stats(1.0, 0)
        prod = math.sqrt(stats["var_K1"] * stats["var_K2"])
        assert prod == pytest.approx(0.5, abs=1e-15)
        assert prod == pytest.approx(math.sqrt(stats["K0_bound"]), abs=1e-15)

    @given(st.floats(0.1, 5.0), st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_fluctuation_constraint(self, k, n):
        # sum rule linking the K1/K2 fluctuations to the K0 moments for
        # eigenstates of K0
        stats = su.number_state_stats(k, n)
        lhs = stats["var_K1"] + stats["var_K2"] - 0.0 + 0.0 + 0.0 - (n + k) ** 2
        assert lhs == pytest.approx(k - k * k, rel=1e-12, abs=1e-12)
        assert stats["var_K1"] * stats["var_K2"] >= 0.25 * (n + k) ** 2 - 1e-12
        if n > 0:
            assert stats["var_K1"] * stats["var_K2"] > 0.25 * (n + k) ** 2


class TestContraction:
    def test_diagonal_element_large_k(self):
        rows, _ = su.contraction_limit([1e4], 3, 3)
        assert rows[0]["K3"] == pytest.approx(1.0003, abs=1e-7)

    def test_raising_element_limit(self):
        # the 0 -> 1 scaled raising element equals the oscillator value 1
        # exactly for every k, realizing its limit identically
        rows, limits = su.contraction_limit([10.0, 1e4], 0, 1)
        assert limits["Kplus_scaled"] == 1.0
        assert all(r["Kplus_scaled"] == 1.0 for r in rows)

    def test_raising_element_monotone(self):
        rows, limits = su.contraction_limit([10.0, 100.0, 1e4, 1e6], 1, 2)
        gaps = [abs(r["Kplus_scaled"] - limits["Kplus_scaled"]) for r in rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-6

    def test_small_k_value(self):
        rows, _ = su.contraction_limit([1.0], 1, 2)
        assert rows[0]["Kplus_scaled"] == pytest.approx(math.sqrt(3.0))

    def test_requires_increasing(self):
        with pytest.raises(ValueError):
            su.contraction_limit([2.0, 1.0], 0, 0)

    @pytest.mark.parametrize("ks, n1, n2, match", [
        ([1, 2], -3, -2, "n must be"), ([1, 2], 0, 2.5, "n must be"),
        ([0, 1], 0, 0, "k must be"), ([1, math.nan], 0, 1, "k must be"),
        ([2, 1], 0, 0, "k values must increase")],
        ids=["negative-n", "non-integer-n", "zero-k", "nan-k", "decreasing-k"])
    def test_domain_checked(self, ks, n1, n2, match):
        # ([1, 2], -3, -2) returned nan with a RuntimeWarning and ([0, 1], 0, 0)
        # raised ZeroDivisionError
        with pytest.raises(DomainError, match=match):
            su.contraction_limit(ks, n1, n2)


class TestHolsteinPrimakoff:
    @pytest.mark.parametrize("k", [0.5, 0.75, 1.3])
    def test_matches_direct_construction(self, k):
        p = su.RepParams(k, 16)
        hp = su.holstein_primakoff(p)
        g = su.build_generators(p)
        for name in ("Kplus", "Kminus", "K0"):
            assert np.max(np.abs(hp[name].entries - g[name].entries)) < 1e-13

    def test_k0_ground_entry(self):
        hp = su.holstein_primakoff(su.RepParams(0.8, 8))
        assert hp["K0"].entries[0, 0] == 0.8

    def test_casimir_of_constructed(self):
        p = su.RepParams(0.75, 16)
        hp = su.holstein_primakoff(p)
        k1 = 0.5 * (hp["Kplus"].entries + hp["Kminus"].entries)
        k2 = (hp["Kplus"].entries - hp["Kminus"].entries) / 2j
        cas = k1 @ k1 + k2 @ k2 - hp["K0"].entries @ hp["K0"].entries
        dev = interior(cas - (3.0 / 16.0) * np.eye(16), p.interior_dim)
        assert np.max(np.abs(dev)) < 1e-12

    @pytest.mark.parametrize("n_dim", [2.5, 0, -3, 4.0, "4"])
    def test_oscillator_size_checked(self, n_dim):
        # oscillator_ladder(2.5) returned 3-level bands and (0) empty ones
        with pytest.raises(DomainError, match="n_dim must be a positive integer"):
            su.oscillator_ladder(n_dim)

    def test_oscillator_sizes(self):
        assert len(su.oscillator_ladder(1)[0][1]) == 0
        a, a_dag = su.oscillator_ladder(np.int64(4))
        assert np.array_equal(a[1], np.sqrt([1.0, 2.0, 3.0]))
        assert np.array_equal(a_dag[-1], a[1])


class TestOperatorMatrix:
    def test_hermitian_flag_enforced(self):
        with pytest.raises(ValueError):
            su.OperatorMatrix.from_bands({1: np.ones(1)}, 2, hermitian=True)
        with pytest.raises(ValueError):
            su.OperatorMatrix.from_bands({1: np.ones(3)}, 4, hermitian=True)

    @pytest.mark.parametrize("bands", [
        {0: np.array([math.nan, 1.0])},
        {1: np.array([math.inf])},   # deviation and tolerance both inf
    ], ids=["nan", "inf"])
    def test_hermitian_flag_rejects_non_finite(self, bands):
        with pytest.raises(ValueError):
            su.OperatorMatrix.from_bands(bands, 2, hermitian=True)

    def test_from_bands_copies_its_bands(self):
        # from_bands kept the caller's arrays: after these writes expectation()
        # gave 17 while the entries gave 9, and op.hermitian stayed True
        b = {0: np.array([1.0, 2.0]), 1: np.array([3.0]), -1: np.array([3.0])}
        op = su.OperatorMatrix.from_bands(b, 2, hermitian=True)
        b[0][0] = 5.0
        b[1][0] = 7.0
        assert op.expectation(np.ones(2)) == 9
        assert not any(v.flags.writeable for v in op.bands.values())

    def test_bands_read_only(self):
        # after op.bands[1] = [7.] expectation() gave 13 while the entries gave
        # 9, and op.hermitian stayed True; a complex adjoint's bands were writeable
        op = su.OperatorMatrix.from_bands({0: [1.0, 2.0], 1: [3.0], -1: [3.0]}, 2, hermitian=True)
        for m in (op, op.adjoint(), su.build_generators(su.RepParams(0.5, 4))["K2"].adjoint()):
            with pytest.raises(TypeError):
                m.bands[1] = np.array([7.0])
            assert not any(v.flags.writeable for v in m.bands.values())
        assert op.expectation(np.ones(2)) == 9

    def test_equality_is_identity(self):
        # a field-wise __eq__ would compare the entries arrays and raise
        op = su.build_generators(su.RepParams(0.5, 8))["K0"]
        assert op == op
        assert not op == su.build_generators(su.RepParams(0.5, 8))["K0"]

    def test_serialization_roundtrip(self):
        # the blob holds the bands: at most 3N [re, im] pairs, not N^2
        for n_dim in (4, MAX_CUTOFF):
            g = su.build_generators(su.RepParams(0.5, n_dim))
            for name in ("K2", "K0"):
                blob = json.loads(json.dumps(su.serialize_operator(g[name])))
                bands = {int(d): np.array([complex(*z) for z in v]) for d, v in blob["bands"].items()}
                back = su.OperatorMatrix.from_bands(bands, blob["dim"], blob["hermitian"])
                assert np.array_equal(back.entries, g[name].entries), (n_dim, name)
                assert sum(map(len, blob["bands"].values())) <= 3 * n_dim, (n_dim, name)

    @pytest.mark.parametrize("bands,dim", [
        ({7: np.ones(3)}, 5),    # was written onto diagonal +1
        ({-5: np.ones(1)}, 5),
        ({1: np.ones(3)}, 5),    # too short
        ({0: np.ones(6)}, 5),    # too long
    ], ids=["offset_7", "offset_-5", "short", "long"])
    def test_from_bands_rejects_misfit_band(self, bands, dim):
        offset = next(iter(bands))
        with pytest.raises(ValueError, match=f"band {offset} "):
            su.OperatorMatrix.from_bands(bands, dim)

    def test_entries_read_only(self):
        p = su.RepParams(0.7, 8)
        for name, op in _operators(p).items():
            with pytest.raises(ValueError):
                op.entries[0, 0] = 1.0
        with pytest.raises(ValueError):
            su.OperatorMatrix.from_bands({0: np.ones(4)}, 4).entries[1, 1] = 2.0

    @pytest.mark.parametrize("builder,x,x_dag", [
        (su.build_generators, "Kplus", "Kminus"),
        (su.holstein_primakoff, "Kplus", "Kminus"),
        (su.composite_ladder, "a", "a_dag"),
    ], ids=["build_generators", "holstein_primakoff", "composite_ladder"])
    def test_adjoint_pairs_share_memory(self, builder, x, x_dag):
        ops = builder(su.RepParams(1.3, 12))
        assert np.shares_memory(ops[x].entries, ops[x_dag].entries)
        assert np.array_equal(ops[x_dag].entries, ops[x].entries.T)
        assert sorted(ops[x_dag].bands) == sorted(-d for d in ops[x].bands)
        assert all(np.array_equal(ops[x_dag].bands[-d], v) for d, v in ops[x].bands.items())

    @pytest.mark.parametrize("op", [
        lambda p: su.build_generators(p)["K2"],
        lambda p: su.composite_qp(p)["Ptilde"],
    ], ids=["K2", "Ptilde"])
    def test_adjoint_of_complex(self, op):
        op = op(su.RepParams(0.8, 10))
        adj = op.adjoint()
        assert adj.entries.dtype == np.complex128
        assert np.array_equal(adj.entries, op.entries.conj().T)
        assert not np.shares_memory(adj.entries, op.entries)
        assert sorted(adj.bands) == sorted(-d for d in op.bands)
        assert all(np.array_equal(adj.bands[-d], np.conj(v)) for d, v in op.bands.items())


@pytest.mark.parametrize("k", K_GRID)
@pytest.mark.parametrize("n_dim", [8, 64, 256])
class TestSparseMatchesDense:
    """The L3 products run on the band dicts (`su._product`, `su._combine`);
    the references here are the dense products of `build_generators` output."""

    def test_composites(self, k, n_dim):
        p = su.RepParams(k, n_dim)
        g = su.build_generators(p)
        kplus, kminus, k0 = g["Kplus"].entries, g["Kminus"].entries, g["K0"].entries
        dinv = 1.0 / np.sqrt(np.diag(k0).real + k).astype(complex)
        a = dinv[:, None] * kminus
        a_dag = kplus * dinv[None, :]
        lad = su.composite_ladder(p)
        assert np.array_equal(lad["a"].entries, a)
        assert np.array_equal(lad["a_dag"].entries, a_dag)
        assert np.array_equal(lad["Nop"].entries, k0 - k * np.eye(n_dim))
        qp = su.composite_qp(p)
        assert np.array_equal(qp["Qtilde"].entries, (a_dag + a) / np.sqrt(2.0))
        assert np.array_equal(qp["Ptilde"].entries, 1j * (a_dag - a) / np.sqrt(2.0))

    def test_holstein_primakoff(self, k, n_dim):
        p = su.RepParams(k, n_dim)
        osc = np.zeros((n_dim, n_dim), dtype=complex)
        n = np.arange(1, n_dim)
        osc[n - 1, n] = np.sqrt(n)
        root = np.sqrt(np.arange(n_dim) + 2.0 * k).astype(complex)
        hp = su.holstein_primakoff(p)
        assert np.array_equal(hp["Kplus"].entries, osc.conj().T * root[None, :])
        assert np.array_equal(hp["Kminus"].entries, root[:, None] * osc)
        assert np.array_equal(hp["K0"].entries, su.build_generators(p)["K0"].entries)

    def test_casimir(self, k, n_dim):
        p = su.RepParams(k, n_dim)
        g = su.build_generators(p)
        ref = g["K1"] @ g["K1"] + g["K2"] @ g["K2"] - g["K0"] @ g["K0"]
        dev = np.max(np.abs(su.casimir(p).entries - ref))
        assert dev <= 1e-12 * (k + n_dim) ** 2


def _operators(p):
    ops = dict(su.build_generators(p))
    ops["casimir"] = su.casimir(p)
    for fn in (su.composite_ladder, su.composite_qp, su.holstein_primakoff):
        ops.update({fn.__name__ + "." + name: op for name, op in fn(p).items()})
    return ops


# every operator of `_operators` whose bands are all real
REAL_OPERATORS = {"K0", "Kplus", "Kminus", "K1", "casimir", "composite_ladder.a", "composite_ladder.a_dag",
                  "composite_ladder.Nop", "composite_qp.Qtilde", "holstein_primakoff.Kplus",
                  "holstein_primakoff.Kminus", "holstein_primakoff.K0"}


@pytest.mark.parametrize("k", [0.25, 1.3])
def test_real_operators_stored_real(k, monkeypatch):
    p = su.RepParams(k, 64)
    ops = _operators(p)
    for name, op in ops.items():
        assert op.entries.dtype == (np.float64 if name in REAL_OPERATORS else np.complex128), name
    # the reference: every builder run on complex source bands, so that every
    # product and every dense array is complex throughout
    gen, osc = su._generator_bands, su.oscillator_ladder

    def as_complex(bands):
        return {d: v.astype(complex) for d, v in bands.items()}

    monkeypatch.setattr(su, "_generator_bands", lambda q: {x: as_complex(b) for x, b in gen(q).items()})
    monkeypatch.setattr(su, "oscillator_ladder", lambda n_dim: tuple(map(as_complex, osc(n_dim))))
    for name, ref in _operators(p).items():
        assert ref.entries.dtype == np.complex128, name
        assert np.array_equal(ops[name].entries.astype(complex), ref.entries), name


def test_product_of_real_and_complex_bands():
    # a's real diagonal is met first and starts the d = 0 accumulator; its
    # complex band 1 then adds to it through b's band -1
    rng = np.random.default_rng(3)
    a = {0: rng.normal(size=6), 1: rng.normal(size=5) + 1j * rng.normal(size=5)}
    b = {0: rng.normal(size=6), -1: rng.normal(size=5)}
    out = su._product(a, b, 6)
    assert all(v.dtype == np.complex128 for v in out.values())
    assert np.allclose(_dense(out, 6), _dense(a, 6) @ _dense(b, 6), rtol=1e-14, atol=0)


@pytest.mark.parametrize("k", K_GRID)
@pytest.mark.parametrize("n_dim", [8, 64, 256])
def test_banded_expectation_matches_dense(k, n_dim):
    rng = np.random.default_rng(n_dim)
    vec = rng.normal(size=n_dim) + 1j * rng.normal(size=n_dim)
    for name, op in _operators(su.RepParams(k, n_dim)).items():
        dense = np.vdot(vec, op.entries @ vec)
        assert op.expectation(vec) == pytest.approx(dense, rel=1e-13), name


def test_dense_input_expectation():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    def diagonals(a):  # a full 5 x 5 matrix is its nine diagonals
        return {d: a.diagonal(d) for d in range(-4, 5)}

    herm = su.OperatorMatrix.from_bands(diagonals(m + m.conj().T), 5, hermitian=True)
    vec = rng.normal(size=5) + 1j * rng.normal(size=5)
    assert herm.expectation(vec) == pytest.approx(np.vdot(vec, herm.entries @ vec), rel=1e-13)
    assert sorted(herm.bands) == list(range(-4, 5))
    assert su.OperatorMatrix.from_bands(diagonals(m.real), 5).entries.dtype == np.float64
    with pytest.raises(ValueError):
        herm.expectation(np.ones(6))


@st.composite
def _band_pair(draw):
    dim = draw(st.integers(4, 16))
    entry = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)

    def bands():
        offsets = draw(st.sets(st.integers(-3, 3), max_size=4))
        return {d: np.array(draw(st.lists(entry, min_size=dim - abs(d), max_size=dim - abs(d))),
                            dtype=complex) for d in offsets}

    return dim, bands(), bands(), draw(entry), draw(entry)


def _dense(bands, dim):
    return su.OperatorMatrix.from_bands(bands, dim).entries


@settings(max_examples=200, deadline=None)
@given(_band_pair())
def test_band_algebra_matches_dense(case):
    dim, a, b, ca, cb = case
    da, db = _dense(a, dim), _dense(b, dim)
    # relative to the sums of |terms|, which bound the rounding of either order
    for got, ref, scale in (
            (_dense(su._product(a, b, dim), dim), da @ db, np.abs(da) @ np.abs(db)),
            (_dense(su._combine((ca, a), (cb, b)), dim), ca * da + cb * db,
             abs(ca) * np.abs(da) + abs(cb) * np.abs(db))):
        assert np.all(np.abs(got - ref) <= 1e-14 * scale)
