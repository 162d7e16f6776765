import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tvo
from tvo import (
    CapacityError,
    ConjugationError,
    DegenerateDataError,
    FusionIntegralityError,
    ModularData,
    StructureError,
    charge_conjugation,
    conjugate_equivalent,
    double_data,
    fusion_from_S,
    global_index,
    verify_verlinde,
)

from tvo.modular import INTEGER_TOLERANCE, _associativity_bound

from helpers import (
    fusion_associative_loops,
    round_verlinde_sums,
    verlinde_by_row_gemms,
    verlinde_loops,
)

PHI = (1 + math.sqrt(5)) / 2


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_shape_mismatch_is_structural_error():
    with pytest.raises(StructureError):
        ModularData(np.eye(2), np.ones(3))
    with pytest.raises(StructureError):
        ModularData(np.ones((2, 3)), np.ones(2))


def test_modular_data_is_s_t_and_labels_only():
    # every comparison uses DEFAULT_TOLERANCE; a data set carries no tolerance
    d = tvo.fibonacci()
    with pytest.raises(TypeError):
        ModularData(d.S, d.T, d.labels, 1e-3)
    with pytest.raises(TypeError):
        ModularData(d.S, d.T, tolerance=1e-3)


def test_arrays_are_read_only():
    d = tvo.fibonacci()
    with pytest.raises(ValueError):
        d.S[0, 0] = 2.0


# ---------------------------------------------------------------------------
# verify_verlinde
# ---------------------------------------------------------------------------

def test_trivial_data_passes_strictly():
    rep = verify_verlinde(tvo.trivial_data())
    assert rep.strict_pass
    assert abs(rep.anomaly_phase - 1) < 1e-12
    assert rep.worst_residual < 1e-12


def test_toric_code_passes_strictly(toric_code):
    rep = verify_verlinde(toric_code)
    assert rep.strict_pass
    assert rep.worst_residual < 1e-9


def test_fibonacci_axioms_pass_but_not_strict():
    # independent computation of the anomaly scalar from the closed-form data
    s = 1 / math.sqrt(2 + PHI)
    S = s * np.array([[1, PHI], [PHI, -1]], dtype=complex)
    M = S @ np.diag([1, cmath.exp(4j * math.pi / 5)])
    M3 = M @ M @ M
    u_expected = M3[0, 0] / (S @ S)[0, 0]

    rep = verify_verlinde(tvo.fibonacci())
    assert rep.axioms_pass
    assert not rep.strict_pass
    assert not rep.sl2_relations_pass
    assert abs(rep.anomaly_phase - u_expected) < 1e-12
    # the scalar is e^{7 pi i / 10} for this data
    assert abs(rep.anomaly_phase - cmath.exp(0.7j * math.pi)) < 1e-12
    assert rep.st_proportional


@pytest.mark.parametrize("maker", [tvo.fibonacci, tvo.ising, lambda: tvo.su2_level_k(6),
                                   lambda: tvo.pointed_cyclic(5, 2)])
def test_anomaly_phase_unimodular_when_proportional(maker):
    rep = verify_verlinde(maker())
    assert rep.st_proportional
    assert abs(abs(rep.anomaly_phase) - 1.0) < 1e-9


def test_report_stats_time_every_stage():
    rep = verify_verlinde(tvo.su2_level_k(3))
    assert set(rep.stats) == {"rank", "tensor_s", "rounding_s", "ring_s", "sl2_s",
                              "ring_bound", "ring_exact"}
    assert rep.stats["rank"] == 4
    assert rep.stats["ring_bound"] < 0.5 and rep.stats["ring_exact"] is False
    assert all(v >= 0 for v in rep.stats.values())
    # the stats take no part in equality or in the printed lines
    again = verify_verlinde(tvo.su2_level_k(3))
    again.stats["tensor_s"] += 1.0
    assert again == rep and again.lines() == rep.lines()


def test_rank_81_double_passes_strictly_with_the_group_law():
    # D(Z/3 x Z/3): label (g, h) sits at index(g) * 9 + index(h), so the base-3
    # digits of a label are (g0, g1, h0, h1) and fusion adds them mod 3
    d = tvo.quantum_double_abelian(tvo.FiniteAbelianGroup((3, 3)))
    assert d.rank == 81
    assert verify_verlinde(d).strict_pass
    expected = np.zeros((81, 81, 81), dtype=np.int64)
    for i in range(81):
        for j in range(81):
            k = sum((i // 3**e + j // 3**e) % 3 * 3**e for e in range(4))
            expected[i, j, k] = 1
    assert np.array_equal(fusion_from_S(d).N, expected)


# ---------------------------------------------------------------------------
# the fusion-ring certificate and its exact fallback
# ---------------------------------------------------------------------------

def _rounded_table(d):
    """The clipped integer table verify_verlinde checks, its residual and its bad entries."""
    Nr, int_res, bad = round_verlinde_sums(verlinde_by_row_gemms(d.S), INTEGER_TOLERANCE)
    return tvo.FusionTable(np.maximum(Nr, 0).astype(np.int64)), int_res, bad


def _ring_passed(rep):
    return next(c.passed for c in rep.checks if c.name == "fusion ring consistency")


def _abelian(*factors):
    return lambda: tvo.quantum_double_abelian(tvo.FiniteAbelianGroup(factors))


# every catalog family, up to rank 81
_CATALOG_TO_81 = {
    "trivial": tvo.trivial_data,
    "fibonacci": tvo.fibonacci,
    "ising": tvo.ising,
    **{f"su2-{k}": (lambda k=k: tvo.su2_level_k(k)) for k in (1, 2, 5, 10, 40, 80)},
    "pointed-z5-2": lambda: tvo.pointed_cyclic(5, 2),
    "pointed-z12": lambda: tvo.pointed_cyclic(12, tvo.standard_pointed_form(12)),
    "dw-z2": _abelian(2),
    "dw-z3": _abelian(3),
    "dw-z2x2x2": _abelian(2, 2, 2),
    "dw-z3x3": _abelian(3, 3),
    **{f"twisted-z{n}-{k}": (lambda n=n, k=k: tvo.twisted_double_cyclic(n, k))
       for n, k in ((2, 1), (3, 1), (4, 1), (7, 3))},
    **{f"double-{name}": (lambda make=make: tvo.double_data(make()))
       for name, make in (("fibonacci", tvo.fibonacci), ("ising", tvo.ising),
                          ("su2-3", lambda: tvo.su2_level_k(3)),
                          ("su2-8", lambda: tvo.su2_level_k(8)))},
    "tube-z3-1": lambda: tvo.tube_modular_data(tvo.tube_pointed(3, 1)),
}


@pytest.mark.parametrize("name", sorted(_CATALOG_TO_81))
def test_certified_ring_verdict_equals_the_exact_check(name):
    d = _CATALOG_TO_81[name]()
    assert d.rank <= 81
    rep = verify_verlinde(d)
    table, int_res, bad = _rounded_table(d)
    exact = table.unit_ok() and table.commutative_ok() and table.associative_ok()
    assert _ring_passed(rep) == exact
    if d.rank <= 16:
        assert exact == fusion_associative_loops(table.N)
    # certified, with room to spare, and the exact products did not run
    assert not bad.any()
    assert rep.stats["ring_bound"] == _associativity_bound(d.S, int_res, table) < 1e-6
    assert rep.stats["ring_exact"] is False


_NOISY = [tvo.ising, lambda: tvo.su2_level_k(5), lambda: tvo.su2_level_k(20), _abelian(2, 2),
          lambda: tvo.twisted_double_cyclic(3, 1), lambda: tvo.double_data(tvo.fibonacci())]


@given(st.sampled_from(range(len(_NOISY))), st.floats(-12.0, -3.0), st.integers(0, 2**32 - 1))
def test_a_certified_ring_under_noise_passes_the_exact_check(which, exponent, seed):
    d = _NOISY[which]()
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(d.S.shape) + 1j * rng.standard_normal(d.S.shape)
    noisy = ModularData(d.S + 10.0**exponent * noise, d.T)
    rep = verify_verlinde(noisy)
    table, _, _ = _rounded_table(noisy)
    assert _ring_passed(rep) == (table.unit_ok() and table.commutative_ok() and table.associative_ok())
    if rep.stats["ring_bound"] < 0.5:
        assert not rep.stats["ring_exact"] and table.associative_ok()
    else:
        assert rep.stats["ring_exact"] or not (table.unit_ok() and table.commutative_ok())


def test_ring_check_without_a_bound_takes_the_exact_path():
    # su2-3 with S_01 = S_10 raised by 0.2: the Verlinde sums are far from
    # integers, so no bound is formed, and the rounded table is unital and
    # commutative but not associative
    d = tvo.su2_level_k(3)
    bump = np.zeros((4, 4))
    bump[0, 1] = bump[1, 0] = 0.2
    noisy = ModularData(d.S + bump, d.T)
    table, _, bad = _rounded_table(noisy)
    assert bad.any() and table.unit_ok() and table.commutative_ok()
    assert not table.associative_ok() and not fusion_associative_loops(table.N)
    rep = verify_verlinde(noisy)
    assert rep.stats["ring_bound"] == float("inf") and rep.stats["ring_exact"] is True
    assert not _ring_passed(rep)


def test_a_bound_of_one_half_takes_the_exact_path(monkeypatch):
    d = tvo.ising()
    table, int_res, _ = _rounded_table(d)
    # a table 0.4 from its sums cannot be certified
    assert _associativity_bound(d.S, 0.4, table) >= 0.5 > _associativity_bound(d.S, int_res, table)
    plain = verify_verlinde(d)
    ran = []
    exact = tvo.FusionTable.associative_ok
    monkeypatch.setattr(tvo.FusionTable, "associative_ok", lambda self: ran.append(1) or exact(self))
    monkeypatch.setattr(tvo.modular, "_associativity_bound", lambda *args: 0.5)
    rep = verify_verlinde(d)
    assert ran == [1]
    assert rep.stats["ring_bound"] == 0.5 and rep.stats["ring_exact"] is True
    assert rep == plain and rep.lines() == plain.lines()


def test_rank_121_passes_without_the_exact_products(monkeypatch):
    def refuse(self):
        raise AssertionError("the exact associativity products ran")

    monkeypatch.setattr(tvo.FusionTable, "associative_ok", refuse)
    # su2-120 is anomalous (c = 360/122), so its pass is on the axioms; the
    # rank-121 double of su2-10 passes strictly
    rep = verify_verlinde(tvo.su2_level_k(120))
    assert rep.axioms_pass
    assert rep.stats["ring_bound"] < 1e-5 and rep.stats["ring_exact"] is False
    rep = verify_verlinde(tvo.double_data(tvo.su2_level_k(10)))
    assert rep.stats["rank"] == 121 and rep.strict_pass
    assert rep.stats["ring_bound"] < 1e-5 and rep.stats["ring_exact"] is False


# ---------------------------------------------------------------------------
# the one Verlinde pass behind verify_verlinde and fusion_from_S
# ---------------------------------------------------------------------------

def _refuse_the_pass(monkeypatch):
    def refuse(data):
        raise AssertionError("the Verlinde sums were computed again")

    monkeypatch.setattr(tvo.modular, "_verlinde_pass", refuse)


def test_a_verified_data_set_fuses_and_verifies_without_a_second_pass(monkeypatch):
    d = tvo.double_data(tvo.su2_level_k(3))
    first = verify_verlinde(d)
    assert first.stats["tensor_s"] > 0
    _refuse_the_pass(monkeypatch)
    table = fusion_from_S(d)
    again = verify_verlinde(d)
    assert again == first and again.lines() == first.lines()
    assert again.stats["tensor_s"] == again.stats["rounding_s"] == 0.0
    assert fusion_from_S(d) is not table and np.array_equal(fusion_from_S(d).N, table.N)


@pytest.mark.parametrize("make", [tvo.ising, lambda: tvo.su2_level_k(40),
                                  lambda: tvo.twisted_double_cyclic(7, 3)])
def test_the_pass_is_the_same_whichever_call_runs_it(make):
    a, b = make(), make()
    rep_a, table_a = verify_verlinde(a), fusion_from_S(a)
    table_b, rep_b = fusion_from_S(b), verify_verlinde(b)
    assert rep_a == rep_b and rep_a.lines() == rep_b.lines()
    assert rep_a.stats["ring_bound"] == rep_b.stats["ring_bound"]
    assert np.array_equal(table_a.N, table_b.N)


def test_errors_are_raised_on_every_call(monkeypatch):
    big = tvo.su2_level_k(406)
    for call in (verify_verlinde, fusion_from_S, verify_verlinde, fusion_from_S):
        with pytest.raises(CapacityError, match="rank 407 .*cap 1 GiB"):
            call(big)
    d = tvo.su2_level_k(3)
    S = d.S.copy()
    S[0, 2] = 0.0
    degenerate = ModularData(S, d.T)
    for _ in range(2):
        with pytest.raises(DegenerateDataError):
            fusion_from_S(degenerate)
    assert not verify_verlinde(degenerate)._get("fusion integrality").passed
    _refuse_the_pass(monkeypatch)
    with pytest.raises(DegenerateDataError):
        fusion_from_S(degenerate)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf)])
def test_non_finite_sums_name_their_first_index_without_warnings(bad):
    d = tvo.su2_level_k(3)
    S, T = d.S.copy(), d.T.copy()
    S[1, 2] = S[2, 1] = bad
    T[2] = T[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructureError, match=r"^S\[1, 2\] = .* is not finite$"):
            ModularData(S, d.T)
        with pytest.raises(StructureError, match=r"^T\[2\] = .* is not finite$"):
            ModularData(d.S, T)


def test_an_overflowing_s_fails_verify_without_warnings():
    d = tvo.su2_level_k(3)
    S = d.S.copy()
    S[1, 2] = 1e200  # finite, but its Verlinde sums and S S^dagger overflow
    broken = ModularData(S, d.T)
    with np.errstate(all="ignore"):
        Nc = verlinde_by_row_gemms(S)
        first = tuple(np.argwhere(round_verlinde_sums(Nc, INTEGER_TOLERANCE)[2]
                                  | ~np.isfinite(Nc))[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FusionIntegralityError) as err:
            fusion_from_S(broken)
        rep = verify_verlinde(broken)
    assert err.value.indices == first
    # an overflowing sum ends the pass without a table
    assert rep._get("fusion integrality").residual == float("inf")
    assert not rep._get("S unitary").passed
    assert rep._get("S unitary").residual == broken._unitarity[0] == float("inf")


@pytest.mark.parametrize("call", [verify_verlinde, fusion_from_S])
def test_the_pass_peaks_near_its_integer_table(call):
    # the rank-121 double of su2-10: the int64 table is r^3 * 8 bytes (14.2 MB)
    d = tvo.double_data(tvo.su2_level_k(10))
    tracemalloc.start()
    try:
        call(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * d.rank**3 * 8


def test_report_flags_broken_unitarity():
    S = np.array([[1.0, 0.1], [0.1, -1.0]], dtype=complex)
    rep = verify_verlinde(ModularData(S, np.array([1, 1j])))
    assert not rep.axioms_pass
    failing = {c.name for c in rep.checks if not c.passed}
    assert "S unitary" in failing


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def test_trivial_fusion():
    table = fusion_from_S(tvo.trivial_data())
    assert table.N.shape == (1, 1, 1)
    assert table.N[0, 0, 0] == 1


def test_fibonacci_fusion_against_loop_oracle():
    d = tvo.fibonacci()
    expected = np.round(verlinde_loops(d.S).real).astype(int)
    table = fusion_from_S(d)
    assert (table.N == expected).all()
    assert table.N[1, 1, 0] == 1 and table.N[1, 1, 1] == 1


@pytest.mark.parametrize("maker", [tvo.ising, lambda: tvo.su2_level_k(3),
                                   lambda: tvo.pointed_cyclic(4, 1),
                                   lambda: tvo.twisted_double_cyclic(5, 2)])
def test_fusion_matches_loop_oracle(maker):
    d = maker()
    raw = verlinde_loops(d.S)
    assert np.abs(raw.imag).max() < 1e-9
    table = fusion_from_S(d)
    assert np.abs(raw.real - table.N).max() < 1e-9
    assert table.unit_ok() and table.commutative_ok() and table.associative_ok()


@pytest.mark.parametrize("factors", [(4,), (2, 2)])
def test_associativity_matches_loop_oracle_at_rank_16(factors):
    table = fusion_from_S(tvo.quantum_double_abelian(tvo.FiniteAbelianGroup(factors)))
    assert table.rank == 16
    assert table.associative_ok() and fusion_associative_loops(table.N)


def test_associativity_detects_a_redirected_product():
    # the group law of Z/4 x Z/4 (element 4a + b), with (1,0)(0,1) = (0,1)(1,0)
    # sent to (2,0) instead of (1,1): still unital and commutative
    N = np.zeros((16, 16, 16), dtype=np.int64)
    for g in range(16):
        for h in range(16):
            N[g, h, 4 * ((g // 4 + h // 4) % 4) + (g + h) % 4] = 1
    for g, h in ((4, 1), (1, 4)):
        N[g, h] = 0
        N[g, h, 8] = 1
    table = tvo.FusionTable(N)
    assert table.unit_ok() and table.commutative_ok()
    assert not fusion_associative_loops(N)
    assert not table.associative_ok()


def test_associativity_refuses_tables_past_the_float64_bound():
    # rank * max(N)^2 must stay below 2^53 for the float64 products to be exact
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0] = np.eye(2, dtype=np.int64)
    N[1, 0, 1] = 1
    N[1, 1, 0] = 2**26 - 1
    assert tvo.FusionTable(N).associative_ok() and fusion_associative_loops(N)
    for big in (2**26, 2**27):
        N[1, 1, 0] = big
        with pytest.raises(CapacityError, match=r"rank \* max\(N\)\^2 < 2\^53"):
            tvo.FusionTable(N).associative_ok()


def test_toric_code_fusion_is_klein_group_law(toric_code):
    table = fusion_from_S(toric_code)
    assert set(np.unique(table.N)) <= {0, 1}
    # each pair fuses to exactly one label: the group law of Z/2 x Z/2
    assert (table.N.sum(axis=2) == 1).all()


def test_ising_sigma_squared_contains_psi():
    table = fusion_from_S(tvo.ising())
    assert table.N[1, 1, 2] == 1 and table.N[1, 1, 0] == 1 and table.N[1, 1, 1] == 0


def test_fusion_integrality_error_names_indices():
    d = tvo.fibonacci()
    S = d.S.copy()
    S[1, 1] += 0.05  # breaks the Verlinde sums badly but keeps shapes
    with pytest.raises(FusionIntegralityError) as err:
        fusion_from_S(ModularData(S, d.T))
    assert err.value.indices is not None


# ---------------------------------------------------------------------------
# charge conjugation
# ---------------------------------------------------------------------------

def test_fusion_rounding_agrees_with_verify(toric_code):
    # real and imaginary deviations of 8.07e-7 each: within the integer
    # tolerance one by one, though their sum is not
    S = toric_code.S.copy()
    S[1, 1] += 5.38e-7 * (1 + 1j)
    d = ModularData(S, toric_code.T)
    check = verify_verlinde(d)._get("fusion integrality")
    assert check.passed and 8e-7 < check.residual < 1e-6
    assert np.array_equal(fusion_from_S(d).N, fusion_from_S(toric_code).N)
    S[1, 1] += 3e-6j
    d = ModularData(S, toric_code.T)
    assert not verify_verlinde(d)._get("fusion integrality").passed
    with pytest.raises(FusionIntegralityError):
        fusion_from_S(d)


def test_conjugation_trivial_cases(toric_code):
    assert charge_conjugation(tvo.trivial_data()).tolist() == [0]
    assert charge_conjugation(toric_code).tolist() == [0, 1, 2, 3]


def test_conjugation_pointed_z3_swaps_nonvacuum():
    perm = charge_conjugation(tvo.pointed_cyclic(3, 2))
    assert perm.tolist() == [0, 2, 1]


@pytest.mark.parametrize("k", range(1, 7))
def test_conjugation_is_involution_su2(k):
    perm = charge_conjugation(tvo.su2_level_k(k))
    assert (perm[perm] == np.arange(k + 1)).all()


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (4, 2), (5, 3), (6, 0)])
def test_conjugation_is_involution_twisted(n, k):
    perm = charge_conjugation(tvo.twisted_double_cyclic(n, k))
    assert (perm[perm] == np.arange(n * n)).all()


def test_conjugation_result_is_the_callers_copy():
    d = tvo.pointed_cyclic(3, 2)
    perm = charge_conjugation(d)
    perm[:] = 0
    assert charge_conjugation(d).tolist() == [0, 2, 1]
    assert verify_verlinde(d)._get("S^2 permutation").passed


def test_conjugation_error_for_non_permutation():
    S = np.array([[1, 1], [1, 1]], dtype=complex) / 2
    with pytest.raises(ConjugationError):
        charge_conjugation(ModularData(S, np.ones(2)))


def test_conjugation_error_off_a_permutation_or_off_the_vacuum():
    # S^2 selects the identity, but 0.02 off it
    S = np.array([[1, 0.01], [0.01, 1]], dtype=complex)
    with pytest.raises(ConjugationError, match=r"not a permutation matrix \(residual 2.000e-02\)"):
        charge_conjugation(ModularData(S, np.ones(2)))
    # a 4-cycle S: S^2 is the permutation i -> i + 2, which moves the vacuum
    S = np.roll(np.eye(4, dtype=complex), 1, axis=1)
    with pytest.raises(ConjugationError, match="does not fix the vacuum"):
        charge_conjugation(ModularData(S, np.ones(4)))


# ---------------------------------------------------------------------------
# doubling
# ---------------------------------------------------------------------------

def test_double_trivial_is_trivial():
    d = double_data(tvo.trivial_data())
    assert d.rank == 1
    assert abs(d.S[0, 0] - 1) < 1e-15 and abs(d.T[0] - 1) < 1e-15


def test_double_toric_rank16_strict(toric_code):
    d = double_data(toric_code)
    assert d.rank == 16
    assert verify_verlinde(d).strict_pass


def test_double_fibonacci_cancels_anomaly():
    d = double_data(tvo.fibonacci())
    assert d.rank == 4
    assert abs(d.anomaly_phase - 1) < 1e-9
    assert verify_verlinde(d).strict_pass


@pytest.mark.parametrize(
    "maker",
    [tvo.fibonacci, tvo.ising, lambda: tvo.su2_level_k(4), lambda: tvo.pointed_cyclic(5, 2)],
)
def test_global_index_of_double_is_square(maker):
    d = maker()
    assert math.isclose(global_index(double_data(d)), global_index(d) ** 2, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# global index
# ---------------------------------------------------------------------------

def test_global_index_values(toric_code):
    assert math.isclose(global_index(tvo.trivial_data()), 1.0)
    assert math.isclose(global_index(toric_code), 4.0)
    assert math.isclose(global_index(tvo.fibonacci()), 2 + PHI, rel_tol=1e-12)


def test_global_index_degenerate():
    S = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(DegenerateDataError):
        global_index(ModularData(S, np.ones(2)))


# ---------------------------------------------------------------------------
# conjugate equivalence
# ---------------------------------------------------------------------------

def test_conjugate_of_data_is_equivalent():
    for maker in (tvo.fibonacci, tvo.ising, lambda: tvo.twisted_double_cyclic(3, 1)):
        d = maker()
        perm = conjugate_equivalent(d, d.conjugate())
        assert perm is not None
        _assert_conj_perm(d, d.conjugate(), perm)


def test_real_data_self_equivalent(toric_code):
    perm = conjugate_equivalent(toric_code, toric_code)
    assert perm is not None
    _assert_conj_perm(toric_code, toric_code, perm)


def test_rank2_spectra_differ():
    assert conjugate_equivalent(tvo.fibonacci(), tvo.pointed_cyclic(2, 1)) is None


def test_rank_mismatch_is_none():
    assert conjugate_equivalent(tvo.fibonacci(), tvo.ising()) is None


def test_same_rank_different_s_rows_is_none():
    # semion vs fermion-like pointed forms share T-spectra sizes but not values
    a = tvo.pointed_cyclic(2, 1)
    b = tvo.pointed_cyclic(2, 3)
    res = conjugate_equivalent(a, b)
    if res is not None:
        _assert_conj_perm(a, b, res)
    # conj(semion twist i) = -i = fermionic twist of q=3 form: equivalence exists
    assert res is not None


def test_non_finite_twist_is_not_equivalent_and_quiet():
    fib = tvo.fibonacci()
    # finite twists whose differences overflow to inf
    a = ModularData(fib.S, np.array([1.5e308, -1.5e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "invalid value" warnings included
        assert conjugate_equivalent(a, fib) is None
        assert conjugate_equivalent(fib, a) is None
        # S and T are real, so the identity matches a with its conjugate
        assert conjugate_equivalent(a, a).tolist() == [0, 1]


def test_capacity_error_for_large_flat_block():
    n = 17
    S = np.ones((n, n), dtype=complex)
    data = ModularData(S, np.ones(n))
    with pytest.raises(CapacityError):
        conjugate_equivalent(data, data)


def test_rank_1001_search_needs_no_recursion():
    d = tvo.su2_level_k(1000)
    perm = conjugate_equivalent(d, d.conjugate())
    assert perm.tolist() == list(range(1001))


def test_verlinde_tensor_above_the_cap_is_refused_before_allocation():
    # rank 407 would need 1.004 GiB; the cap is 1 GiB (rank 406)
    d = tvo.su2_level_k(406)
    for call in (verify_verlinde, fusion_from_S):
        with pytest.raises(CapacityError, match="rank 407 .*cap 1 GiB"):
            call(d)


def test_node_budget_counts_one_node_per_assigned_label(monkeypatch):
    # su2 level 4 has distinct T eigenvalues: one candidate per label, no backtracking
    d = tvo.su2_level_k(4)
    monkeypatch.setattr(tvo.modular, "_NODE_BUDGET", d.rank)
    assert conjugate_equivalent(d, d.conjugate()) is not None
    monkeypatch.setattr(tvo.modular, "_NODE_BUDGET", d.rank - 1)
    with pytest.raises(CapacityError):
        conjugate_equivalent(d, d.conjugate())


def _assert_conj_perm(a, b, perm):
    assert perm[0] == 0
    P = np.asarray(perm)
    assert np.abs(a.T - b.T.conj()[P]).max() < 1e-9
    assert np.abs(a.S - b.S.conj()[np.ix_(P, P)]).max() < 1e-9


# su2-k has distinct twists; D(Z2 x Z2), of rank 16, repeats them, so its
# search backtracks
@given(st.builds(tvo.su2_level_k, st.integers(1, 6))
       | st.builds(_abelian(2, 2)),
       st.randoms(use_true_random=False))
def test_scrambled_conjugate_recovered(d, rnd):
    perm = list(range(1, d.rank))
    rnd.shuffle(perm)
    perm = np.array([0] + perm)
    inv = np.argsort(perm)
    scrambled = ModularData(d.S.conj()[np.ix_(inv, inv)], d.T.conj()[inv])
    found = conjugate_equivalent(d, scrambled)
    assert found is not None
    _assert_conj_perm(d, scrambled, found)
