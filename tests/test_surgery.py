import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tvo
from tvo import (
    DegenerateDataError,
    FiniteAbelianGroup,
    PlumbingTree,
    PreconditionError,
    StructureError,
    brieskorn,
    double_data,
    dw_lens_oracle,
    lens_general,
    lens_p1,
    lens_p2,
    plumbing_invariant,
)
from tvo.surgery import negative_continued_fraction

from helpers import brieskorn_loops, lens_p1_loops, lens_p2_loops

PHI = (1 + math.sqrt(5)) / 2

STRICT_DATA = [
    ("toric", lambda: tvo.quantum_double_abelian(FiniteAbelianGroup((2,)))),
    ("dw_z3", lambda: tvo.quantum_double_abelian(FiniteAbelianGroup((3,)))),
    ("double_fib", lambda: double_data(tvo.fibonacci())),
    ("double_ising", lambda: double_data(tvo.ising())),
    ("double_su2_3", lambda: double_data(tvo.su2_level_k(3))),
    ("twisted_4_1", lambda: tvo.twisted_double_cyclic(4, 1)),
    ("twisted_3_2", lambda: tvo.twisted_double_cyclic(3, 2)),
]


# ---------------------------------------------------------------------------
# lens formulas
# ---------------------------------------------------------------------------

def test_lens_p1_trivial_data():
    d = tvo.trivial_data()
    for p in range(0, 13):
        assert abs(lens_p1(d, p).value - 1) < 1e-15


def test_lens_p1_toric_values(toric_code):
    assert abs(lens_p1(toric_code, 3).value - 0.5) < 1e-12
    assert abs(lens_p1(toric_code, 4).value - 1.0) < 1e-12
    for p in range(1, 13):
        expected = (3 + (-1) ** p) / 4
        assert abs(lens_p1(toric_code, p).value - expected) < 1e-12
        assert abs(lens_p1(toric_code, p).value - float(dw_lens_oracle(FiniteAbelianGroup((2,)), p))) < 1e-12


def test_lens_p1_matches_loops():
    d = double_data(tvo.su2_level_k(2))
    for p in (0, 1, 5, 8):
        assert abs(lens_p1(d, p).value - lens_p1_loops(d.S, d.T, p)) < 1e-12


def test_lens_p1_double_fibonacci_spot_value():
    d = double_data(tvo.fibonacci())
    expected = (5 + math.sqrt(5)) / 10
    assert abs(lens_p1(d, 3).value - expected) < 1e-9
    single = lens_p1(tvo.fibonacci(), 3).value
    assert abs(lens_p1(d, 3).value - abs(single) ** 2) < 1e-12


def test_lens_p1_rejects_negative_p(toric_code):
    with pytest.raises(PreconditionError):
        lens_p1(toric_code, -1)


def test_lens_p1_p0_is_s1xs2_value(toric_code):
    # sum of squared S column entries, reported without interpretation
    assert abs(lens_p1(toric_code, 0).value - 1.0) < 1e-12


def test_lens_p2_trivial_and_toric(toric_code):
    assert abs(lens_p2(tvo.trivial_data(), 3).value - 1) < 1e-15
    assert abs(lens_p2(toric_code, 3).value - 0.5) < 1e-12
    assert abs(lens_p2(toric_code, 1).value - lens_p1(toric_code, 1).value) < 1e-12


def test_lens_p2_matches_loops(toric_code):
    d = double_data(tvo.ising())
    for p in (1, 3, 7, 11):
        assert abs(lens_p2(d, p).value - lens_p2_loops(d.S, d.T, p)) < 1e-12


def test_lens_p2_rejects_even_p(toric_code):
    with pytest.raises(PreconditionError):
        lens_p2(toric_code, 4)


@pytest.mark.parametrize("name,maker", STRICT_DATA)
def test_s3_normalization(name, maker):
    d = maker()
    assert d.is_strictly_anomaly_free
    assert abs(lens_p1(d, 1).value - d.S[0, 0]) < 1e-9
    assert abs(lens_p2(d, 1).value - d.S[0, 0]) < 1e-9


@pytest.mark.parametrize("name,maker", STRICT_DATA)
def test_orientation_reversal_at_p3(name, maker):
    d = maker()
    a = lens_p1(d, 3).value
    b = lens_p2(d, 3).value
    assert abs(b - a.conjugate()) < 1e-9


# ---------------------------------------------------------------------------
# brieskorn
# ---------------------------------------------------------------------------

def test_brieskorn_trivial():
    assert abs(brieskorn(tvo.trivial_data(), 2, 3, 5).value - 1) < 1e-15


def test_brieskorn_toric_values(toric_code):
    assert abs(brieskorn(toric_code, 2, 3, 5).value - 0.5) < 1e-12
    assert abs(brieskorn(toric_code, 2, 3, 7).value - 0.5) < 1e-12


def test_brieskorn_matches_quadruple_loops(toric_code):
    for d in (toric_code, double_data(tvo.fibonacci()), tvo.twisted_double_cyclic(2, 1)):
        for triple in ((2, 3, 5), (2, 5, 7)):
            fast = brieskorn(d, *triple).value
            slow = brieskorn_loops(d.S, d.T, *triple)
            assert abs(fast - slow) < 1e-11


def test_brieskorn_preconditions(toric_code):
    with pytest.raises(PreconditionError):
        brieskorn(toric_code, 1, 3, 5)


# ---------------------------------------------------------------------------
# plumbing trees
# ---------------------------------------------------------------------------

def test_tree_validation():
    with pytest.raises(StructureError):
        PlumbingTree(((0, 1), (1, 2)), ())  # disconnected
    with pytest.raises(StructureError):
        PlumbingTree(((0, 1), (1, 2)), ((0, 1), (1, 0)))  # too many edges
    with pytest.raises(StructureError):
        PlumbingTree(((0, 1),), ((0, 0),))  # self loop
    with pytest.raises(StructureError):
        PlumbingTree(((0, 1), (0, 2)), ((0, 0),))  # duplicate ids
    with pytest.raises(StructureError):
        PlumbingTree(((0, 1), (1, 2), (2, 3)), ((0, 1), (0, 2), (1, 2)))  # cycle


@pytest.mark.parametrize("name,maker", STRICT_DATA)
def test_single_vertex_tree_is_lens_p1(name, maker):
    d = maker()
    for p in range(0, 13):
        tree = PlumbingTree.single(p)
        assert abs(plumbing_invariant(d, tree).value - lens_p1(d, p).value) < 1e-9


@pytest.mark.parametrize("maker", [tvo.fibonacci, tvo.ising, lambda: tvo.su2_level_k(7)])
def test_single_vertex_tree_equality_holds_for_anomalous_data_too(maker):
    # the reduction to the single sum is a formula identity, independent of
    # whether the data is anomaly-free
    d = maker()
    for p in range(0, 13):
        assert abs(plumbing_invariant(d, PlumbingTree.single(p)).value
                   - lens_p1(d, p).value) < 1e-9


@pytest.mark.parametrize("p", [1, 3, 5, 7, 9, 11])
def test_chain_tree_is_lens_p2(p, toric_code):
    tree = PlumbingTree.chain([(p + 1) // 2, 2])
    assert abs(plumbing_invariant(toric_code, tree).value - lens_p2(toric_code, p).value) < 1e-9


def test_chain_tree_is_lens_p2_complex_data():
    d = tvo.twisted_double_cyclic(4, 1)
    for p in (3, 5, 9):
        tree = PlumbingTree.chain([(p + 1) // 2, 2])
        assert abs(plumbing_invariant(d, tree).value - lens_p2(d, p).value) < 1e-9


@pytest.mark.parametrize("triple", [(2, 3, 5), (2, 3, 7), (2, 5, 7), (3, 5, 7)])
def test_star_tree_is_brieskorn(triple, toric_code):
    tree = PlumbingTree.star(1, triple)
    assert abs(plumbing_invariant(toric_code, tree).value - brieskorn(toric_code, *triple).value) < 1e-9


def test_star_tree_is_brieskorn_complex_data():
    d = double_data(tvo.su2_level_k(2))
    tree = PlumbingTree.star(1, (2, 3, 5))
    assert abs(plumbing_invariant(d, tree).value - brieskorn(d, 2, 3, 5).value) < 1e-9


# ---------------------------------------------------------------------------
# general lens spaces
# ---------------------------------------------------------------------------

def test_continued_fraction_expansions():
    assert negative_continued_fraction(5, 2) == [3, 2]
    assert negative_continued_fraction(7, 3) == [3, 2, 2]
    assert negative_continued_fraction(12, 5) == [3, 2, 3]
    assert negative_continued_fraction(7, 1) == [7]
    assert negative_continued_fraction(1, 1) == [1]


def test_continued_fraction_value_property():
    for p in range(2, 30):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            chain = negative_continued_fraction(p, q)
            assert all(a >= 2 for a in chain[1:])
            val = chain[-1]
            for a in reversed(chain[:-1]):
                val = a - 1 / val
            assert math.isclose(val, p / q, rel_tol=1e-12)


@pytest.mark.parametrize("name,maker", STRICT_DATA)
def test_lens_general_q1_is_lens_p1(name, maker):
    d = maker()
    for p in range(1, 13):
        assert abs(lens_general(d, p, 1).value - lens_p1(d, p).value) < 1e-9


def test_lens_general_52_is_lens_p2(toric_code):
    assert abs(lens_general(toric_code, 5, 2).value - lens_p2(toric_code, 5).value) < 1e-12


def test_lens_general_73_matches_oracle(toric_code):
    got = lens_general(toric_code, 7, 3).value
    assert abs(got - float(dw_lens_oracle(FiniteAbelianGroup((2,)), 7))) < 1e-12


def test_lens_general_preconditions(toric_code):
    with pytest.raises(PreconditionError):
        lens_general(toric_code, 4, 2)
    with pytest.raises(PreconditionError):
        lens_general(toric_code, 5, 7)
    with pytest.raises(PreconditionError):
        lens_general(toric_code, 0, 1)


def test_lens_general_p1_is_sphere(toric_code):
    assert abs(lens_general(toric_code, 1, 1).value - toric_code.S[0, 0]) < 1e-12


@pytest.mark.parametrize("p", [1000, 2000])
def test_lens_general_long_chain_matches_oracle(p, toric_code):
    # L(p, p-1) is the chain of p-1 vertices of framing 2
    got = lens_general(toric_code, p, p - 1)
    assert abs(got.value - float(dw_lens_oracle(FiniteAbelianGroup((2,)), p))) < 1e-12


def test_long_tree_with_shuffled_ids_matches_oracle():
    rng = np.random.default_rng(3)
    n = 1500
    ids = [int(i) for i in rng.permutation(n)]
    # a path through the ids in shuffled order, vertices listed in another order
    tree = PlumbingTree(tuple((v, 2) for v in sorted(ids)),
                        tuple(zip(ids[:-1], ids[1:])))
    got = plumbing_invariant(tvo.quantum_double_abelian(FiniteAbelianGroup((3,))), tree).value
    assert abs(got - float(dw_lens_oracle(FiniteAbelianGroup((3,)), n + 1))) < 1e-12


# ---------------------------------------------------------------------------
# one engine
# ---------------------------------------------------------------------------

ENGINE_DATA = [
    ("toric", lambda: tvo.quantum_double_abelian(FiniteAbelianGroup((2,)))),
    ("double_su2_8", lambda: double_data(tvo.su2_level_k(8))),
]


@pytest.mark.parametrize("name,maker", ENGINE_DATA)
def test_lens_closed_forms_are_the_general_chain(name, maker):
    d = maker()
    for p in range(1, 16):
        assert lens_p1(d, p).value == lens_general(d, p, 1).value
        if p % 2 == 1 and p > 1:
            assert lens_p2(d, p).value == lens_general(d, p, 2).value


@pytest.mark.parametrize("name,maker", ENGINE_DATA)
def test_repeated_calls_are_bit_identical(name, maker):
    d = maker()
    tree = PlumbingTree(((5, 3), (2, -1), (9, 2), (4, 1), (7, 2)),
                        ((5, 2), (5, 9), (9, 4), (9, 7)))
    for fn, args in ((lens_p1, (7,)), (lens_p2, (9,)), (brieskorn, (2, 3, 7)),
                     (lens_general, (12, 5)), (plumbing_invariant, (tree,))):
        assert fn(d, *args).value == fn(d, *args).value


@pytest.mark.parametrize("name,maker", ENGINE_DATA)
def test_closed_forms_use_the_tree_they_print(name, maker):
    d = maker()
    assert brieskorn(d, 2, 3, 5).value == plumbing_invariant(
        d, PlumbingTree.star(1, (2, 3, 5))).value
    assert lens_p2(d, 7).value == plumbing_invariant(d, PlumbingTree.chain([4, 2])).value
    assert lens_p1(d, 0).value == plumbing_invariant(d, PlumbingTree.single(0)).value


def test_schedule_is_outside_equality():
    a = PlumbingTree(((0, 1), (1, 2), (2, 3)), ((0, 1), (1, 2)))
    b = PlumbingTree(((0, 1), (1, 2), (2, 3)), ((0, 1), (1, 2)))
    assert a == b and hash(a) == hash(b)
    assert "schedule" not in repr(a)
    # every vertex after its parent, children in id order
    star = PlumbingTree(((4, 1), (9, 2), (1, 3), (6, 5)), ((4, 9), (1, 4), (6, 4)))
    assert star.schedule == ((1, 3, (1, 2, 3)), (3, 1, ()), (5, 1, ()), (2, 1, ()))


# ---------------------------------------------------------------------------
# doubling identity and warnings
# ---------------------------------------------------------------------------

@given(st.integers(1, 12))
def test_doubling_identity_lens(p):
    for maker in (tvo.fibonacci, tvo.ising, lambda: tvo.su2_level_k(5),
                  lambda: tvo.pointed_cyclic(4, 1)):
        d = maker()
        dd = double_data(d)
        single = lens_p1(d, p).value
        assert abs(lens_p1(dd, p).value - abs(single) ** 2) < 1e-9


def test_doubling_identity_brieskorn():
    d = tvo.su2_level_k(4)
    dd = double_data(d)
    for triple in ((2, 3, 5), (3, 5, 7)):
        single = brieskorn(d, *triple).value
        assert abs(brieskorn(dd, *triple).value - abs(single) ** 2) < 1e-9


@pytest.mark.parametrize("p", [1, 3, 5, 7, 9, 11])
def test_doubling_identity_lens_p2(p):
    for maker in (tvo.fibonacci, lambda: tvo.su2_level_k(3)):
        d = maker()
        dd = double_data(d)
        single = lens_p2(d, p).value
        assert abs(lens_p2(dd, p).value - abs(single) ** 2) < 1e-9


def test_anomalous_data_carries_warning(toric_code):
    assert lens_p1(tvo.fibonacci(), 3).warnings
    assert not lens_p1(toric_code, 3).warnings
    assert "anomaly" in lens_p1(tvo.ising(), 2).warnings[0]


def test_degenerate_s_column_rejected():
    S = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    data = tvo.ModularData(S, np.ones(2))
    with pytest.raises(DegenerateDataError):
        brieskorn(data, 2, 3, 5)


def test_degenerate_s_column_only_matters_above_degree_one():
    S = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    data = tvo.ModularData(S, np.ones(2))
    assert lens_p1(data, 3).value == 1
    assert lens_p2(data, 3).value == 0
    with pytest.raises(DegenerateDataError):
        lens_general(data, 7, 3)


def test_invariant_value_must_be_finite():
    with pytest.raises(tvo.TvoError):
        tvo.InvariantValue(complex("nan"), "synthetic")
    with pytest.raises(tvo.TvoError):
        tvo.InvariantValue(complex(float("inf"), 0), "synthetic")


# ---------------------------------------------------------------------------
# framings modulo the order of T
# ---------------------------------------------------------------------------

def test_t_order_is_read_and_verified(toric_code):
    assert toric_code._t_order == 2
    assert tvo.fibonacci()._t_order == 5
    assert tvo.ising()._t_order == 16
    assert tvo.su2_level_k(3)._t_order == 20
    # at rank 1001 the phases come from numerators reduced mod 4008: t^4008 = 1 to 6e-12
    assert tvo.su2_level_k(1000)._t_order == 4008
    irrational = tvo.ModularData(np.eye(2), [1.0, np.exp(2j * np.pi * math.sqrt(2))])
    assert irrational._t_order is None


def test_huge_framing_is_its_residue(toric_code):
    fib = tvo.fibonacci()
    assert abs(lens_p1(fib, 10**15).value - lens_p1(fib, 0).value) <= 1e-12
    assert abs(lens_p1(toric_code, 10**15 + 1).value - 0.5) <= 1e-15
    assert abs(lens_p1(toric_code, 10**20).value - 1.0) <= 1e-15
    d = double_data(tvo.su2_level_k(3))
    chain = PlumbingTree.chain([10**18 + 3, -(10**18) - 2, 5])
    small = PlumbingTree.chain([3, -2, 5])
    assert abs(plumbing_invariant(d, chain).value - plumbing_invariant(d, small).value) <= 1e-12


def test_su2_1000_huge_framing_is_its_residue():
    d = tvo.su2_level_k(1000)
    assert lens_p1(d, 4008 * 10**15 + 3).value == lens_p1(d, 3).value


def test_framings_below_the_order_keep_the_raw_power():
    for d in (tvo.su2_level_k(3), tvo.su2_level_k(1000)):
        N = d._t_order
        for p in (0, 1, 7, 19, 10**6 + 1):
            if N is None or p < N:
                raw = complex((d.T ** p * d.S[:, 0] ** 2).sum())
                assert lens_p1(d, p).value == raw
