import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tvo
from tvo import (
    CapacityError,
    FiniteAbelianGroup,
    GeneratorError,
    PreconditionError,
    conjugate_equivalent,
    dw_brieskorn_oracle,
    dw_lens_oracle,
    e6_lens_reference,
    golden_fixtures,
    verify_verlinde,
)
from tvo.cli import resolve_builtin_data

from helpers import abelian_double_loops, surgery_hom_count, twisted_double_loops

ALL_GENERATORS = [
    ("trivial", tvo.trivial_data),
    ("fibonacci", tvo.fibonacci),
    ("ising", tvo.ising),
    ("su2_1", lambda: tvo.su2_level_k(1)),
    ("su2_5", lambda: tvo.su2_level_k(5)),
    ("su2_8", lambda: tvo.su2_level_k(8)),
    ("pointed_2_1", lambda: tvo.pointed_cyclic(2, 1)),
    ("pointed_3_2", lambda: tvo.pointed_cyclic(3, 2)),
    ("pointed_5_2", lambda: tvo.pointed_cyclic(5, 2)),
    ("dw_z2", lambda: tvo.quantum_double_abelian(FiniteAbelianGroup((2,)))),
    ("dw_z3", lambda: tvo.quantum_double_abelian(FiniteAbelianGroup((3,)))),
    ("dw_z2xz2", lambda: tvo.quantum_double_abelian(FiniteAbelianGroup((2, 2)))),
    ("twisted_2_1", lambda: tvo.twisted_double_cyclic(2, 1)),
    ("twisted_4_3", lambda: tvo.twisted_double_cyclic(4, 3)),
]


@pytest.mark.parametrize("name,maker", ALL_GENERATORS)
def test_generator_structural_invariants(name, maker):
    d = maker()
    rep = verify_verlinde(d)
    matrix_checks = {"S unitary", "S symmetric", "T unitary", "S^2 permutation",
                     "S^2 fixes vacuum", "S row 0 nonzero"}
    for c in rep.checks:
        if c.name in matrix_checks:
            assert c.passed, f"{name}: {c.name} residual {c.residual}"
            assert c.residual < 1e-9
    assert abs(d.T[0] - 1.0) < 1e-12, "vacuum twist must be 1"


def test_su2_level1_is_semion_like():
    d = tvo.su2_level_k(1)
    assert d.rank == 2
    assert np.abs(d.S - np.array([[1, 1], [1, -1]]) / math.sqrt(2)).max() < 1e-12
    assert abs(d.T[1] - 1j) < 1e-12
    table = tvo.fusion_from_S(d)
    assert set(np.unique(table.N)) <= {0, 1}
    assert table.N[1, 1, 0] == 1  # Z/2 group law


def test_su2_level_k_requires_positive_level():
    with pytest.raises(PreconditionError):
        tvo.su2_level_k(0)


def test_pointed_cyclic_trivial_and_semion():
    assert tvo.pointed_cyclic(1, 0).rank == 1
    semion = tvo.pointed_cyclic(2, 1)
    assert set(np.round(semion.T, 9).tolist()) == {1, 1j}


def test_pointed_cyclic_degenerate_forms_rejected():
    with pytest.raises(GeneratorError):
        tvo.pointed_cyclic(2, 0)
    with pytest.raises(GeneratorError):
        tvo.pointed_cyclic(2, 2)
    with pytest.raises(GeneratorError):
        tvo.pointed_cyclic(4, 2)
    with pytest.raises(GeneratorError):
        tvo.pointed_cyclic(6, 3)


def test_quantum_double_z2_matches_printed_matrix(toric_code):
    S_expected = 0.5 * np.array(
        [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]
    )
    assert np.abs(toric_code.S - S_expected).max() < 1e-12
    assert np.abs(toric_code.T - np.array([1, 1, 1, -1])).max() < 1e-12


def test_quantum_double_trivial_group():
    d = tvo.quantum_double_abelian(FiniteAbelianGroup((1,)))
    assert d.rank == 1 and abs(d.S[0, 0] - 1) < 1e-12


def test_quantum_double_z3_global_index():
    d = tvo.quantum_double_abelian(FiniteAbelianGroup((3,)))
    assert d.rank == 9
    assert math.isclose(tvo.global_index(d), 9.0, rel_tol=1e-12)


def test_twisted_double_k0_equals_untwisted():
    for n in range(1, 7):
        a = tvo.twisted_double_cyclic(n, 0)
        b = tvo.quantum_double_abelian(FiniteAbelianGroup((n,)))
        assert np.abs(a.S - b.S).max() < 1e-12
        assert np.abs(a.T - b.T).max() < 1e-12


def test_double_semion_spectrum():
    d = tvo.twisted_double_cyclic(2, 1)
    spectrum = sorted(np.round(d.T, 9).tolist(), key=lambda z: (z.real, z.imag))
    assert np.abs(np.array(spectrum) - np.array([-1j, 1j, 1, 1])).max() < 1e-9


def test_twisted_double_n1_trivial():
    for k in range(3):
        d = tvo.twisted_double_cyclic(1, k)
        assert d.rank == 1


@pytest.mark.parametrize("n", range(2, 7))
def test_twisted_equivalent_to_untwisted_double(n):
    perm = conjugate_equivalent(
        tvo.twisted_double_cyclic(n, 0),
        tvo.quantum_double_abelian(FiniteAbelianGroup((n,))),
    )
    assert perm is not None


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def test_dw_lens_oracle_values():
    z2 = FiniteAbelianGroup((2,))
    assert dw_lens_oracle(z2, 3) == Fraction(1, 2)
    assert dw_lens_oracle(z2, 4) == Fraction(1, 1)
    assert dw_lens_oracle(FiniteAbelianGroup((1,)), 11) == 1


def test_dw_lens_oracle_gcd_property():
    for n in range(1, 21):
        G = FiniteAbelianGroup((n,))
        for p in range(1, 21):
            assert dw_lens_oracle(G, p) == Fraction(math.gcd(p, n), n)


def test_dw_lens_oracle_product_group():
    G = FiniteAbelianGroup((2, 4))
    assert dw_lens_oracle(G, 2) == Fraction(2 * 2, 8)


@pytest.mark.parametrize("factors", [(2, 4), (3, 6), (2, 2, 2), (4, 6), (3, 3, 5)])
def test_dw_lens_oracle_matches_brute_force_count(factors):
    G = FiniteAbelianGroup(factors)
    for p in range(1, 13):
        assert dw_lens_oracle(G, p) == surgery_hom_count([[p]], factors)


def test_dw_lens_oracle_huge_group_is_counted_exactly():
    # G is never enumerated: 10^12 elements would not fit in memory
    tracemalloc.start()
    try:
        assert dw_lens_oracle(FiniteAbelianGroup((10**12,)), 3) == Fraction(1, 10**12)
        assert dw_lens_oracle(FiniteAbelianGroup((10**12, 6)), 6) == Fraction(2 * 6, 6 * 10**12)
        assert dw_lens_oracle(FiniteAbelianGroup((2**70, 3)), 2**80) == Fraction(2**70, 3 * 2**70)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_dw_lens_oracle_precondition():
    with pytest.raises(PreconditionError):
        dw_lens_oracle(FiniteAbelianGroup((2,)), 0)


def test_dw_brieskorn_oracle_values():
    assert dw_brieskorn_oracle(FiniteAbelianGroup((2,)), 2, 3, 5) == Fraction(1, 2)
    assert dw_brieskorn_oracle(FiniteAbelianGroup((3,)), 2, 3, 7) == Fraction(1, 3)
    assert dw_brieskorn_oracle(FiniteAbelianGroup((1,)), 3, 5, 7) == 1


def test_dw_brieskorn_oracle_rejects_non_coprime():
    with pytest.raises(PreconditionError):
        dw_brieskorn_oracle(FiniteAbelianGroup((2,)), 2, 4, 5)
    with pytest.raises(PreconditionError):
        dw_brieskorn_oracle(FiniteAbelianGroup((2,)), 1, 3, 5)


# ---------------------------------------------------------------------------
# E6 closed forms and golden fixtures
# ---------------------------------------------------------------------------

def test_e6_reference_point_values():
    assert abs(e6_lens_reference(2, 1) - 0.5) < 1e-12
    assert abs(e6_lens_reference(3, 1) - (1 - 1j) / 4) < 1e-12
    assert abs(e6_lens_reference(1, 2) - (3 - math.sqrt(3)) / 12) < 1e-12


def test_e6_reference_sphere_consistency():
    # L(1,1) and L(1,2) are both the 3-sphere
    assert abs(e6_lens_reference(1, 1) - e6_lens_reference(1, 2)) < 1e-12
    # L(3,2) is L(3,1) with reversed orientation
    assert abs(e6_lens_reference(3, 2) - e6_lens_reference(3, 1).conjugate()) < 1e-12


def test_e6_reference_reads_p_modulo_its_period():
    # p = 10^20 is past float precision and 10^400 past the float range
    for p in range(1, 13):
        for big in (p + 12, p + 12 * 10**8, p + 10**20 - 10**20 % 12, p + 12 * 10**400):
            assert e6_lens_reference(big, 1) == e6_lens_reference(p, 1)
            if p % 2:
                assert e6_lens_reference(big, 2) == e6_lens_reference(p, 2)
    assert abs(e6_lens_reference(10**20, 1) - (0.5 + math.sqrt(3) / 6 * 1j)) < 1e-12
    with pytest.raises(PreconditionError, match="odd p"):
        e6_lens_reference(10**400, 2)


def test_e6_reference_preconditions():
    with pytest.raises(PreconditionError):
        e6_lens_reference(4, 2)
    with pytest.raises(PreconditionError):
        e6_lens_reference(3, 3)
    with pytest.raises(PreconditionError):
        e6_lens_reference(0, 1)


def test_golden_fixture_surds():
    fx = {(f.source, f.manifold): f.value for f in golden_fixtures()}
    s13 = math.sqrt(13)
    assert abs(fx[("haagerup", ("lens", 7, 1))] - (13 + 3 * s13) / 78) < 1e-12
    assert abs(fx[("haagerup", ("brieskorn", 2, 3, 5))] - (7 / 6 - s13 / 26)) < 1e-12
    w = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
    assert abs(fx[("d5", ("lens", 3, 1))] - (1 + 2 * w * w) / 6) < 1e-12
    assert abs(fx[("d5", ("lens", 3, 1))] - fx[("d5", ("lens", 3, 2))].conjugate()) < 1e-12
    assert abs(fx[("d5", ("lens", 5, 1))] - 1 / 6) < 1e-12
    s3 = math.sqrt(3)
    assert abs(fx[("e6", ("brieskorn", 2, 3, 5))] - ((6 + 2 * s3) + (3 - 3 * s3) * 1j) / 12) < 1e-12
    assert abs(fx[("e6", ("brieskorn", 3, 5, 7))] - (2 - s3 * 1j) / 2) < 1e-12
    assert abs(fx[("e6-z3", ("lens", 3, 1))] - (7 - math.sqrt(7) * 1j) / 14) < 1e-12
    assert abs(fx[("e6-z5", ("lens", 5, 1))] - 1 / 3) < 1e-12
    assert abs(fx[("e6-z5", ("lens", 5, 2))] - 2 / 3) < 1e-12
    assert abs(fx[("e6-z2x2", ("lens", 7, 1))] - (2 - math.sqrt(2)) / 16) < 1e-12


def test_golden_fixture_sources():
    sources = tvo.catalog.fixture_sources()
    assert set(sources) == {"d5", "e6", "e6-z3", "e6-z4", "e6-z5", "e6-z2x2", "haagerup"}
    with pytest.raises(PreconditionError):
        golden_fixtures("nope")


# ---------------------------------------------------------------------------
# group arithmetic
# ---------------------------------------------------------------------------

def test_group_elements_and_index():
    G = FiniteAbelianGroup((2, 3))
    els = G.elements()
    assert len(els) == 6 == G.order
    for i, g in enumerate(els):
        assert G.index(g) == i
    assert G.add((1, 2), (1, 2)) == (0, 1)
    assert G.neg((1, 2)) == (1, 1)


def test_group_factors_are_read_as_ints():
    # np.int64(3) was refused and True accepted, printing as ZTrue
    for factor in (np.int64(3), 3.0):
        G = FiniteAbelianGroup((factor,))
        assert G == FiniteAbelianGroup((3,)) and type(G.factors[0]) is int
        assert str(G) == "Z3"
    with pytest.raises(GeneratorError, match="cyclic factor must be an integer, got 2.5"):
        FiniteAbelianGroup((2.5,))
    with pytest.raises(GeneratorError, match="cyclic factors must be positive integers"):
        FiniteAbelianGroup((2, 0))


@given(st.integers(2, 9))
def test_pointed_standard_form_is_valid(n):
    q = tvo.standard_pointed_form(n)
    d = tvo.pointed_cyclic(n, q)
    assert d.rank == n
    rep = verify_verlinde(d)
    assert rep.axioms_pass


# ---------------------------------------------------------------------------
# the doubles against plain-loop oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("factors", [(1,), (2, 4), (3, 3), (2, 2, 2)])
def test_quantum_double_matches_loop_oracle(factors):
    S, T = abelian_double_loops(factors)
    d = tvo.quantum_double_abelian(FiniteAbelianGroup(factors))
    assert np.abs(d.S - S).max() <= 1e-15
    assert np.abs(d.T - T).max() <= 1e-15


def test_abelian_double_twists_are_exact_roots_of_unity():
    # chi_h(g) sums (g_i h_i mod n_i) / n_i: at (1,3|1,3) on Z2 x Z4 the
    # angle is 3/4 of a turn, not 11/4
    d = tvo.quantum_double_abelian(FiniteAbelianGroup((2, 4)))
    assert abs(d.T[d.labels.index("(1,3|1,3)")] - (-1j)) <= 4e-16


@pytest.mark.parametrize("n", range(1, 7))
def test_twisted_double_matches_loop_oracle(n):
    # both sides exponentiate unreduced angles of up to 4 pi n, computed in a
    # different order (numpy divides by n as a multiply by 1/n), so they may
    # differ by a rounding of that angle: 7.1e-15 at n = 6
    tol = 2 * math.ulp(4 * math.pi * n)
    for k in range(n):
        S, T = twisted_double_loops(n, k)
        d = tvo.twisted_double_cyclic(n, k)
        assert np.abs(d.S - S).max() <= tol, (n, k)
        assert np.abs(d.T - T).max() <= tol, (n, k)


@pytest.mark.parametrize("n", range(1, 13))
def test_twisted_double_matches_reduced_loop_oracle(n):
    # with the numerator reduced mod n^2 on both sides every angle is below
    # 2 pi, so the entries are exact roots of unity to a few ulp of 1
    for k in range(n):
        S, T = twisted_double_loops(n, k, reduced=True)
        d = tvo.twisted_double_cyclic(n, k)
        assert np.abs(d.S - S).max() <= 2e-15, (n, k)
        assert np.abs(d.T - T).max() <= 2e-15, (n, k)


def test_rank_625_double_builds_unitary():
    d = resolve_builtin_data("dw-z5x5")
    assert d.rank == 625
    assert np.abs(d.S @ d.S.conj().T - np.eye(625)).max() <= 1e-12


@pytest.mark.parametrize("build, rank", [
    (lambda: tvo.su2_level_k(8192), 8193),
    (lambda: tvo.pointed_cyclic(8193, 2), 8193),
    (lambda: tvo.twisted_double_cyclic(91, 1), 8281),
    (lambda: tvo.quantum_double_abelian(FiniteAbelianGroup((7, 13))), 8281),
    (lambda: tvo.double_data(tvo.su2_level_k(90)), 8281),
])
def test_generators_refuse_s_matrices_above_the_cap(build, rank):
    # a rank x rank complex S fits 1 GiB up to rank 8192; the check runs
    # before anything of that size is allocated
    with pytest.raises(CapacityError, match=f"rank {rank}\\).* needs .*cap 1 GiB"):
        build()


def test_tube_algebra_above_the_cap_is_refused():
    # n^4 complex structure constants: n = 90 fits 1 GiB, n = 91 does not
    with pytest.raises(CapacityError, match="Z/91 .*cap 1 GiB"):
        tvo.tube_pointed(91, 1)


@pytest.mark.parametrize("build,name", [
    (lambda: tvo.su2_level_k(2.5), "su2_level_k k"),
    (lambda: tvo.pointed_cyclic(3.5, 1), "pointed_cyclic n"),
    (lambda: tvo.pointed_cyclic(3, 1.5), "pointed_cyclic q"),
    (lambda: tvo.twisted_double_cyclic(2.5, 1), "twisted_double_cyclic n"),
    (lambda: tvo.twisted_double_cyclic(3, 0.5), "twisted_double_cyclic k"),
    (lambda: tvo.pointed_sixj(2.5, 1), "pointed_sixj n"),
    (lambda: tvo.pointed_sixj(2, "1"), "pointed_sixj k"),
    (lambda: tvo.tube_pointed(2.5, 1), "tube_pointed n"),
    (lambda: tvo.tube_pointed(2, 1.5), "tube_pointed k"),
])
def test_generators_refuse_non_integral_parameters(build, name):
    # su2_level_k(2.5) built rank-4 data failing the Verlinde suite; the
    # others raised a bare TypeError
    with pytest.raises(PreconditionError, match=f"{name} must be an integer"):
        build()


@pytest.mark.parametrize("call,name", [
    (lambda: dw_lens_oracle(FiniteAbelianGroup((2,)), 2.5), "dw_lens_oracle p"),
    (lambda: e6_lens_reference(2.5, 1), "e6_lens_reference p"),
    (lambda: e6_lens_reference(3, 1.5), "e6_lens_reference q"),
    (lambda: dw_brieskorn_oracle(FiniteAbelianGroup((2,)), 2.5, 3, 5), "dw_brieskorn_oracle p"),
    (lambda: dw_brieskorn_oracle(FiniteAbelianGroup((2,)), 2, "3", 5), "dw_brieskorn_oracle q"),
    (lambda: dw_brieskorn_oracle(FiniteAbelianGroup((2,)), 2, 3, 5.5), "dw_brieskorn_oracle r"),
])
def test_oracles_refuse_non_integral_arguments(call, name):
    # dw_lens_oracle(G, 2.5) returned 1/2, e6_lens_reference(2.5, 1) a
    # complex value and dw_brieskorn_oracle(G, 2.5, 3, 5) a bare TypeError
    with pytest.raises(PreconditionError, match=f"{name} must be an integer"):
        call()


def test_oracles_read_integral_arguments_as_ints():
    G = FiniteAbelianGroup((2, 4))
    assert dw_lens_oracle(G, np.float64(6)) == dw_lens_oracle(G, 6)
    assert dw_brieskorn_oracle(G, 2.0, np.int64(3), 5) == dw_brieskorn_oracle(G, 2, 3, 5)
    assert e6_lens_reference(np.int32(5), 2.0) == e6_lens_reference(5, 2)


def test_generators_read_integral_parameters_as_ints():
    for build, args in [(tvo.su2_level_k, (3,)), (tvo.pointed_cyclic, (3, 2)),
                        (tvo.twisted_double_cyclic, (3, 1))]:
        want, got = build(*args), build(*(np.float64(a) for a in args))
        assert got.labels == want.labels
        assert got.S.tobytes() == want.S.tobytes() and got.T.tobytes() == want.T.tobytes()
    assert tvo.pointed_sixj(np.int64(3), 2.0).weights == tvo.pointed_sixj(3, 2).weights
    assert tvo.tube_pointed(3.0, np.int32(1)).mult.tobytes() == tvo.tube_pointed(3, 1).mult.tobytes()
