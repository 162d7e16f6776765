import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import tvo
from tvo import (
    CapacityError,
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
import tvo.surgery
from tvo.cli import _DATA, resolve_builtin_data
from tvo.surgery import (
    _BASE_OVERHEAD,
    _BASE_TABLE_CAP,
    _SURGERY_CAP,
    _ncf_runs,
    _vertex_base,
    negative_continued_fraction,
)

from helpers import (
    brieskorn_loops,
    chain_surgery_loops,
    lens_p1_loops,
    lens_p2_loops,
    negative_continued_fraction_loop,
)

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
    with pytest.raises(StructureError, match="at least one vertex"):
        PlumbingTree((), ())  # empty
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


def test_tree_refusals_name_their_fault():
    with pytest.raises(StructureError, match=r"edge \(0,5\) references unknown vertex"):
        PlumbingTree(((0, 1), (1, 2)), ((0, 5),))
    # V - 1 edges, but a doubled edge leaves vertex 2 and 3 apart from 0 and 1
    with pytest.raises(StructureError, match="edge set is not connected"):
        PlumbingTree(((0, 1), (1, 2), (2, 3), (3, 4)), ((0, 1), (0, 1), (2, 3)))


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


def test_continued_fraction_refuses_non_positive_arguments():
    for p, q in ((0, 1), (1, 0), (-3, 2)):
        with pytest.raises(PreconditionError, match="continued fraction requires positive p, q"):
            negative_continued_fraction(p, q)


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

@pytest.mark.parametrize("p", range(1, 13))
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


# ---------------------------------------------------------------------------
# runs: the continued fraction by jumps, chains by transfer-matrix powers
# ---------------------------------------------------------------------------

def _expand(runs):
    return [a for a, count in runs for _ in range(count)]


def _runs_matrix(runs):
    """prod over runs of [[a, -1], [1, 0]]^count, by exact integer powering;
    its first column is (p, q) exactly when the runs expand to p/q."""
    def mul(x, y):
        return [[x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]],
                [x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]]]
    total = [[1, 0], [0, 1]]
    for a, count in runs:
        power, base = [[1, 0], [0, 1]], [[a, -1], [1, 0]]
        while count:
            if count & 1:
                power = mul(power, base)
            base = mul(base, base)
            count >>= 1
        total = mul(total, power)
    return total


def test_ncf_runs_expand_to_the_ceiling_recursion():
    for p in range(2, 401):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                runs = _ncf_runs(p, q)
                assert _expand(runs) == negative_continued_fraction_loop(p, q), (p, q)
                assert negative_continued_fraction(p, q) == _expand(runs)
                # maximal runs: no two neighbours share a framing
                assert all(x[0] != y[0] for x, y in zip(runs, runs[1:]))


def test_ncf_runs_are_logarithmic_at_1e18():
    p = 10**18
    rng = np.random.default_rng(12)
    qs = [p - 1, 1, 3, p // 2 + 1, p - 3] + [int(x) for x in rng.integers(2, p - 1, size=20)]
    for q in qs:
        if math.gcd(p, q) != 1:
            continue
        runs = _ncf_runs(p, q)
        assert len(runs) <= 2 * p.bit_length() + 1, (q, len(runs))
        assert all(a >= 2 for a, _ in runs) and all(c >= 1 for _, c in runs)
        M = _runs_matrix(runs)
        assert (M[0][0], M[1][0]) == (p, q)
    runs = _ncf_runs(p, p - 1)
    assert runs == [(2, p - 1)] and sum(c for _, c in runs) == p - 1


ORACLE_DATA = [
    ("fibonacci", tvo.fibonacci),
    ("su2_8", lambda: tvo.su2_level_k(8)),
    ("double_su2_5", lambda: double_data(tvo.su2_level_k(5))),
    ("twisted_5_2", lambda: tvo.twisted_double_cyclic(5, 2)),
]


@pytest.mark.parametrize("name,maker", ORACLE_DATA)
def test_lens_general_matches_the_chain_loop_oracle(name, maker):
    d = maker()
    cases = [(p, q) for p in range(2, 30) for q in range(1, p) if math.gcd(p, q) == 1]
    # long runs of 2s, of 3s and of 4s, alone and mixed, up to 2e4 vertices
    for runs in ([(2, 499)], [(2, 19999)], [(3, 40)], [(5, 1), (2, 3000), (7, 1), (2, 4000)],
                 [(4, 25), (2, 9000), (3, 1), (2, 50)], [(2, 6000), (3, 30), (2, 7)]):
        M = _runs_matrix(runs)
        cases.append((M[0][0], M[1][0]))
    powered = 0
    for p, q in cases:
        chain = negative_continued_fraction_loop(p, q)
        got = lens_general(d, p, q)
        assert abs(got.value - chain_surgery_loops(d.S, d.T, chain)) <= 1e-11, (p, q)
        powered += got.stats["powered_runs"]
    assert powered >= 4


@pytest.mark.parametrize("maker", [lambda: double_data(tvo.su2_level_k(5)),
                                   lambda: tvo.twisted_double_cyclic(5, 2),
                                   lambda: tvo.quantum_double_abelian(FiniteAbelianGroup((3, 3)))])
def test_orientation_reversal_on_long_chains(maker):
    # L(p, p - 1) is L(p, 1) with the opposite orientation
    d = maker()
    for k in range(1, 7):
        p = 10**k + 1
        assert abs(lens_general(d, p, p - 1).value - lens_p1(d, p).value.conjugate()) <= 1e-9, p


def test_long_chains_on_the_z3xz3_double_give_the_exact_count():
    G = FiniteAbelianGroup((3, 3))
    d = tvo.quantum_double_abelian(G)
    rng = np.random.default_rng(7)
    for p in (3**12, 10**6 - 1, 10**6, 10**6 + 1, 2**19 + 1):
        want = float(dw_lens_oracle(G, p))  # prod gcd(p, n_i) / |G|
        qs = [p - 1, 2 if p % 2 else 3] + [int(x) for x in rng.integers(2, p - 1, size=3)]
        for q in qs:
            if math.gcd(p, q) == 1:
                # roundoff grows by up to ~2.7e-16 per vertex where 3 | p, in the
                # mat-vec loop (2.0e-16) and in powering alike
                assert abs(lens_general(d, p, q).value - want) <= 4e-16 * p, (p, q)


def test_contraction_counters_on_a_long_chain(toric_code):
    got = lens_general(toric_code, 2000, 1999)
    # root and leaf alone, the 1997 interior 2s as one powered run; 2 = 0 mod ord(T)
    assert got.stats == {"vertices": 1999, "entries": 3, "bases": 2, "powered_runs": 1,
                         "matmuls": (1997).bit_length() - 1, "framing_reduced": True}
    # on rank 2 a run of 20 stays on the mat-vec loop
    assert lens_general(tvo.fibonacci(), 23, 22).stats["powered_runs"] == 0
    assert lens_general(tvo.fibonacci(), 24, 23).stats["powered_runs"] == 1


def test_contraction_counters_on_a_tree(toric_code):
    tree = PlumbingTree(((5, 3), (2, -1), (9, 2), (4, 1), (7, 2)),
                        ((5, 2), (5, 9), (9, 4), (9, 7)))
    d = double_data(tvo.su2_level_k(8))
    got = plumbing_invariant(d, tree)
    assert got.stats == {"vertices": 5, "entries": 5, "bases": 5, "powered_runs": 0,
                         "matmuls": 0, "framing_reduced": False}
    # stats take no part in equality
    assert got == tvo.InvariantValue(got.value, got.method, got.warnings)
    assert plumbing_invariant(toric_code, tree).stats["framing_reduced"] is True


# ---------------------------------------------------------------------------
# the surgery cap
# ---------------------------------------------------------------------------

def test_chains_above_the_cap_are_refused(toric_code):
    assert _SURGERY_CAP == 10**6
    p = _SURGERY_CAP + 1  # the chain of L(p, p - 1) has p - 1 vertices
    assert abs(lens_general(toric_code, p, p - 1).value - 0.5) <= 1e-9
    with pytest.raises(CapacityError, match=r"1000001 vertices.*1000000"):
        lens_general(toric_code, p + 1, p)


@pytest.mark.parametrize("factors,p", [((6,), 10**6), ((3, 3), 10**6 - 1)])
def test_roundoff_at_the_cap_is_within_the_default_tolerance(factors, p):
    # the largest errors near the cap: 1.4e-10 and 2.7e-10 from the exact count,
    # where a chain of 10^7 vertices on the Z/6 double is off by 1.4e-9
    G = FiniteAbelianGroup(factors)
    got = lens_general(tvo.quantum_double_abelian(G), p, p - 1)
    assert got.stats["vertices"] == p - 1
    assert abs(got.value - float(dw_lens_oracle(G, p))) <= 1e-9


def _rotated_fibonacci():
    fib = tvo.fibonacci()
    return tvo.ModularData(fib.S, fib.T * np.exp(1j * math.sqrt(2) * 1e-3))


def test_framings_above_the_cap_are_refused_without_an_order():
    d = _rotated_fibonacci()
    assert d._t_order is None
    assert abs(lens_p1(d, _SURGERY_CAP).value) <= 1
    for framing in (_SURGERY_CAP + 1, 10**20):
        with pytest.raises(CapacityError, match=f"framing {framing} .*{_SURGERY_CAP}"):
            lens_p1(d, framing)
    with pytest.raises(CapacityError, match=f"framing -{_SURGERY_CAP + 1}"):
        plumbing_invariant(d, PlumbingTree.chain([2, -(_SURGERY_CAP + 1), 3]))
    # with an order the framing is reduced, however large
    fib = tvo.fibonacci()
    assert lens_p1(fib, 10**20).value == lens_p1(fib, 0).value


# ---------------------------------------------------------------------------
# the per-data table of vertex bases
# ---------------------------------------------------------------------------

def _fresh(d):
    """The same S and T in new arrays: a data set with an empty table."""
    return tvo.ModularData(np.array(d.S), np.array(d.T))


def _table_cases(N):
    """Calls whose framings sit at and above ord(T) = N, below zero, and on
    trees with vertices of degree 3 and 4."""
    tree = PlumbingTree(((5, N), (2, -1), (9, 2 * N + 1), (4, -(N + 2)), (7, 2), (3, 0), (8, -N)),
                        ((5, 2), (5, 9), (5, 3), (9, 4), (9, 7), (9, 8)))
    return [(lens_p1, (N,)), (lens_p1, (N + 1,)), (lens_p1, (3 * N + 2,)), (lens_p2, (2 * N + 1,)),
            (lens_general, (N + 2, N + 1)), (lens_general, (2 * N + 1, 2)), (lens_general, (7, 3)),
            (brieskorn, (2, 3, N)), (brieskorn, (N + 1, N + 2, 2 * N + 3)),
            (lens_p1, (N - 1,)), (plumbing_invariant, (PlumbingTree.single(-1),)),
            (plumbing_invariant, (tree,)),
            (plumbing_invariant, (PlumbingTree.chain([-3, N + 4, -(N + 1), 2, 2, 2, N]),))]


@pytest.mark.parametrize("name,maker", ORACLE_DATA)
def test_table_gives_the_bits_and_stats_of_a_cold_call(name, maker):
    d = maker()
    N = d._t_order
    assert N is not None
    cases = _table_cases(N)
    cold = [fn(_fresh(d), *args) for fn, args in cases]  # each on an empty table
    for fn, args in cases:
        fn(d, *args)
    assert d._vertex_bases
    warm = [fn(d, *args) for fn, args in cases]
    copy = _fresh(d)
    fresh = [fn(copy, *args) for fn, args in cases]
    for c, w, f in zip(cold, warm, fresh):
        assert repr(c.value) == repr(w.value) == repr(f.value), c.method
        assert c.stats == w.stats == f.stats and c.method == w.method and c.warnings == w.warnings
    assert any(c.stats["bases"] >= 5 for c in cold)


@pytest.mark.parametrize("name,maker", ORACLE_DATA)
def test_warm_values_match_the_chain_loop_oracle(name, maker):
    d = maker()
    N = d._t_order
    chains = [[-3, N + 4, -(N + 1), 2, 2, 2, N], [N, N, N], [2 * N + 1, -1, -2, 5]]
    for _ in range(2):  # cold, then warm
        for framings in chains:
            got = plumbing_invariant(d, PlumbingTree.chain(framings)).value
            assert abs(got - chain_surgery_loops(d.S, d.T, framings)) <= 1e-11, framings
        for p, q in ((N + 2, N + 1), (2 * N + 1, 2), (29, 12)):
            want = chain_surgery_loops(d.S, d.T, negative_continued_fraction(p, q))
            assert abs(lens_general(d, p, q).value - want) <= 1e-11, (p, q)
        if d.rank <= 9:  # the quadruple loop is r^4
            want = brieskorn_loops(d.S, d.T, 2, 3, N + 1)
            assert abs(brieskorn(d, 2, 3, N + 1).value - want) <= 1e-11


def test_conjugate_data_has_its_own_table():
    d = tvo.fibonacci()
    lens_p1(d, 3)
    c = d.conjugate()
    assert not c._vertex_bases and c._vertex_bases is not d._vertex_bases
    assert repr(lens_p1(c, 3).value) == repr(lens_p1(_fresh(c), 3).value)
    assert np.array_equal(c._vertex_bases[(3, 0)], c.T ** 3 * c.S[:, 0] ** 2)
    assert not np.array_equal(c._vertex_bases[(3, 0)], d._vertex_bases[(3, 0)])


def test_numpy_integer_framings_read_the_python_int_bases():
    # numpy's power takes another route for a numpy integer exponent of 2,
    # with other bits, so the lens functions turn their arguments into Python
    # ints first and a numpy framing reads and fills the same table entry
    d = tvo.fibonacci()
    assert (d.T ** 2).tobytes() != (d.T ** np.int64(2)).tobytes()
    numpy_first = lens_p1(d, np.int64(2)).value
    assert repr(lens_p1(d, 2).value) == repr(lens_p1(_fresh(d), 2).value)
    assert repr(numpy_first) == repr(lens_p1(d, np.int64(2)).value)
    assert repr(numpy_first) == repr(lens_p1(_fresh(d), np.int64(2)).value)
    assert list(d._vertex_bases) == [(2, 0)]


def test_numpy_integer_lens_arguments_give_the_python_int_bits():
    cases = [(lens_p1, (0,)), (lens_p1, (2,)), (lens_p1, (7,)), (lens_p2, (3,)),
             (lens_p2, (9,)), (lens_general, (4, 3)), (lens_general, (7, 4)),
             (lens_general, (23, 7))]
    for f, args in cases:
        numpy_args = tuple(np.int64(x) for x in args)
        for make in (tvo.fibonacci, lambda: tvo.su2_level_k(5)):
            assert repr(f(make(), *numpy_args).value) == repr(f(make(), *args).value), (f, args)


def test_table_stays_within_its_bound(monkeypatch):
    d = _rotated_fibonacci()
    assert d._t_order is None
    for a in range(10**4):  # 10^4 distinct framings, no order to reduce them by
        lens_p1(d, a)
    assert len(d._vertex_bases) == 10**4
    assert len(d._vertex_bases) * (d.rank + _BASE_OVERHEAD) <= _BASE_TABLE_CAP
    # at a bound of 2000 bases: the table stops there, and holds no more
    # bytes than the entries it is charged
    limit = 2000
    monkeypatch.setattr(tvo.surgery, "_BASE_TABLE_CAP", limit * (d.rank + _BASE_OVERHEAD))
    d = _rotated_fibonacci()
    lens_p1(d, 0)  # the data's other cached values, before the count starts
    d._vertex_bases.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for a in range(limit + 1000):
            _vertex_base(d, a, 0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(d._vertex_bases) == limit
    assert held <= 16 * tvo.surgery._BASE_TABLE_CAP
    # past the bound a base is computed per call, with the same bits
    a = limit + 5000
    assert repr(lens_p1(d, a).value) == repr(lens_p1(_fresh(d), a).value)
    assert (a, 0) not in d._vertex_bases and len(d._vertex_bases) == limit


def test_threads_sharing_one_data_set_get_the_single_thread_bits(monkeypatch):
    # no verified order of T, so each framing of lens_p1 is a key of its own
    double = double_data(tvo.su2_level_k(3))
    base = tvo.ModularData(double.S, double.T * np.exp(1j * math.sqrt(2) * 1e-3))
    assert base._t_order is None
    cases = (_table_cases(7) + [(lens_p1, (p,)) for p in range(400)]
             + [(lens_general, (p, q)) for p in range(2, 30) for q in range(1, p)
                if math.gcd(p, q) == 1])
    single = _fresh(base)
    want = [repr(fn(single, *args).value) for fn, args in cases]
    # a bound below the distinct keys, so the threads race on the cap check too
    limit = len(single._vertex_bases) // 2
    monkeypatch.setattr(tvo.surgery, "_BASE_TABLE_CAP", limit * (base.rank + _BASE_OVERHEAD))
    start = threading.Barrier(4, timeout=60)

    def work(k, shared, got):
        start.wait()
        n = len(cases)
        # every fourth case from the thread's own offset first, so that the
        # four threads miss the table at once, then the rest, twice
        order = list(range(k, n, 4)) + [i for i in range(n) if i % 4 != k]
        out = [None] * n
        for _ in range(2):
            for i in order:
                fn, args = cases[i]
                out[i] = repr(fn(shared, *args).value)
        got[k] = out

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):  # three fresh data sets, three races to the bound
            shared, got = _fresh(base), [None] * 4
            threads = [threading.Thread(target=work, args=(k, shared, got)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
            assert got == [want] * 4
            assert len(shared._vertex_bases) == limit
            for key, value in shared._vertex_bases.items():
                assert value.tobytes() == single._vertex_bases[key].tobytes()
    finally:
        sys.setswitchinterval(old)


# ---------------------------------------------------------------------------
# non-finite, non-unitary and overflowing data
# ---------------------------------------------------------------------------

def _fib_with(where, value):
    fib = tvo.fibonacci()
    S, T = np.array(fib.S), np.array(fib.T)
    if where == "T":
        T[1] = value
    else:
        S[1, 1] = value
    return tvo.ModularData(S, T)


@pytest.mark.parametrize("where", ["T", "S"])
def test_non_finite_data_is_refused_without_numpy_warnings(where):
    named = r"T\[1\]" if where == "T" else r"S\[1, 1\]"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(StructureError, match=named + " = .* is not finite"):
                _fib_with(where, bad)


@pytest.mark.parametrize("where,value", [("T", 1.5), ("S", 1e200), ("S", 0.0)])
def test_non_unitary_data_is_refused_by_every_evaluator(where, value):
    calls = [lambda d: lens_p1(d, 5), lambda d: lens_p2(d, 5), lambda d: lens_general(d, 5, 2),
             lambda d: brieskorn(d, 2, 3, 5),
             lambda d: plumbing_invariant(d, PlumbingTree.chain([2, 3, 4]))]
    d = _fib_with(where, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            for _ in range(2):  # cold, then with the residuals cached
                with pytest.raises(PreconditionError, match="surgery needs S unitary"):
                    call(d)
    assert not d._vertex_bases


def test_surgery_and_verify_read_one_cached_unitarity():
    d = tvo.su2_level_k(4)
    lens_p1(d, 3)
    assert max(d.__dict__["_unitarity"]) <= tvo.modular.DEFAULT_TOLERANCE
    d.__dict__["_unitarity"] = (0.5, 0.25)  # neither reader recomputes S S^dagger
    with pytest.raises(PreconditionError, match=r"= 5\.000e-01, .* = 2\.500e-01"):
        lens_general(d, 7, 3)
    rep = tvo.verify_verlinde(d)
    assert (rep._get("S unitary").residual, rep._get("T unitary").residual) == (0.5, 0.25)


def test_an_overflowing_vertex_base_is_a_capacity_error():
    # su2-10 has min |S_i0| = 0.1057, so S_0^(2 - deg) overflows above degree 317
    d = tvo.su2_level_k(10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            with pytest.raises(CapacityError, match=r"degree 400 .* 0\.105662"):
                plumbing_invariant(d, PlumbingTree.star(1, [2] * 400))
        v = plumbing_invariant(d, PlumbingTree.star(1, [2] * 316)).value
    assert v == complex(1.869541688407682e+217, 8.406952205416171e+229)


def test_every_builtin_family_passes_the_unitarity_gate():
    names = ["trivial", "fibonacci", "ising", "toric-code", "dw-z2x2", "dw-z2x3", "dw-z3x3",
             "dw-z2x2x2", "double-trivial", "double-fibonacci", "double-ising", "double-su2-3",
             "double-pointed-z3", "double-twisted-z3-1", "double-double-fibonacci",
             "double-double-double-trivial"]
    names += [f"su2-{k}" for k in range(1, 51)]
    for n in range(1, 7):
        names += [f"pointed-z{n}", f"dw-z{n}"]
        names += [f"pointed-z{n}-{q}" for q in range(2 * n) if math.gcd(q, n) == 1]
        names += [f"twisted-z{n}-{k}" for k in range(n)]
        names += [f"tube-z{n}-{k}" for k in range(n)]
    assert all(any(re.fullmatch(row[0], name) for name in names) for row in _DATA)
    for name in names:
        lens_p1(resolve_builtin_data(name), 1)


def test_surgery_refuses_non_integral_arguments():
    # int() would truncate each of these to a different manifold than the one asked for
    d = tvo.fibonacci()
    for call, name in [
        (lambda: lens_general(d, 9.5, 2), "lens_general p"),
        (lambda: lens_general(d, 9, 2.5), "lens_general q"),
        (lambda: lens_p1(d, 2.7), "lens_p1 p"),
        (lambda: lens_p2(d, 3.5), "lens_p2 p"),
        (lambda: brieskorn(d, 2.5, 3, 5), "brieskorn p"),
        (lambda: brieskorn(d, 2, 3, "5"), "brieskorn r"),
        (lambda: lens_p1(d, float("nan")), "lens_p1 p"),
    ]:
        with pytest.raises(PreconditionError, match=f"{name} must be an integer"):
            call()
    with pytest.raises(StructureError, match="framing of vertex 0 must be an integer, got 2.6"):
        PlumbingTree.single(2.6)
    with pytest.raises(StructureError, match="vertex id must be an integer"):
        PlumbingTree(((0.5, 1),), ())
    with pytest.raises(StructureError, match="edge end must be an integer"):
        PlumbingTree(((0, 1), (1, 2)), ((0, 1.5),))
    # integral values of any numeric type are the integers they equal
    assert repr(lens_general(d, 9.0, np.int64(2)).value) == repr(lens_general(d, 9, 2).value)
    assert lens_p1(d, np.float64(3.0)).method == "lens_p1(p=3)"
    assert brieskorn(d, 2.0, 3, 5).method == brieskorn(d, 2, 3, 5).method
    assert PlumbingTree.single(np.float64(2.0)) == PlumbingTree.single(2)


# ---------------------------------------------------------------------------
# contraction plans
# ---------------------------------------------------------------------------

_PLANS = (tvo.surgery._lens_p1_plan, tvo.surgery._lens_p2_plan,
          tvo.surgery._brieskorn_plan, tvo.surgery._lens_general_plan)


def _clear_plans():
    for plan in _PLANS:
        plan.cache_clear()


def _random_trees(seed, sizes):
    rng = np.random.default_rng(seed)
    for size in sizes:
        framings = [int(x) for x in rng.integers(-4, 5, size=size)]
        edges = [(int(rng.integers(v)), v) for v in range(1, size)]
        yield tuple(enumerate(framings)), tuple(edges)


def _plan_cases():
    cases = [(lens_general, (p, q)) for p in range(1, 26) for q in range(1, p + 1)
             if math.gcd(p, q) == 1]
    cases += [(lens_general, (p, p - 1)) for p in (233, 2000)]
    cases += [(lens_p1, (p,)) for p in range(12)] + [(lens_p2, (p,)) for p in range(1, 24, 2)]
    cases += [(brieskorn, (p, q, r)) for p in range(2, 8) for q in range(p, 8)
              for r in range(q, 8)]
    return cases


def _record(result):
    return repr((result.value, result.method, result.warnings, result.stats))


@pytest.mark.parametrize("make", [
    lambda: tvo.quantum_double_abelian(FiniteAbelianGroup((2,))),
    lambda: tvo.twisted_double_cyclic(5, 2),
    lambda: double_data(tvo.su2_level_k(8)),
], ids=["toric", "tw5-2", "dsu2-8"])
def test_cold_and_warm_plans_give_the_same_bits(make):
    d = make()
    cases = _plan_cases()
    cold = []
    for fn, args in cases:
        _clear_plans()
        cold.append(_record(fn(d, *args)))
    assert [_record(fn(d, *args)) for fn, args in cases] == cold
    assert [_record(fn(d, *args)) for fn, args in cases] == cold  # warm
    # a tree's schedule is built with the tree: a fresh tree against a reused one
    sizes = list(range(1, 101, 9)) + [100]
    trees = [PlumbingTree(v, e) for v, e in _random_trees(3, sizes)]
    first = [_record(plumbing_invariant(d, PlumbingTree(v, e)))
             for v, e in _random_trees(3, sizes)]
    assert [_record(plumbing_invariant(d, t)) for t in trees] == first
    assert [_record(plumbing_invariant(d, t)) for t in trees] == first


def test_plan_caches_stay_within_their_bound(toric_code):
    bound = tvo.surgery._PLAN_CACHE_SIZE
    n = bound + 100
    for p in range(n):
        lens_p1(toric_code, p)
        lens_p2(toric_code, 2 * p + 1)
        lens_general(toric_code, p + 2, p + 1)
        brieskorn(toric_code, 2, 3, p + 2)
    for plan in _PLANS:
        info = plan.cache_info()
        assert info.maxsize == bound
        assert info.currsize == bound
    # the least recently used plan went first, the latest is still there
    hits = tvo.surgery._lens_p1_plan.cache_info().hits
    lens_p1(toric_code, n - 1)
    assert tvo.surgery._lens_p1_plan.cache_info().hits == hits + 1
    lens_p1(toric_code, 0)
    assert tvo.surgery._lens_p1_plan.cache_info().hits == hits + 1


def test_refusals_are_raised_on_every_call(toric_code):
    d = toric_code
    cases = [
        (lambda: lens_general(d, 6, 4), PreconditionError, r"gcd\(p, q\) = 1, got \(6,4\)"),
        (lambda: lens_general(d, 5, 7), PreconditionError, "requires q < p"),
        (lambda: lens_general(d, 0, 1), PreconditionError, "requires positive p, q"),
        (lambda: lens_general(d, 9.5, 2), PreconditionError, "lens_general p must be an integer"),
        (lambda: lens_p1(d, -1), PreconditionError, "requires p >= 0"),
        (lambda: lens_p2(d, 4), PreconditionError, "odd positive p"),
        (lambda: brieskorn(d, 1, 3, 5), PreconditionError, "p, q, r >= 2"),
        (lambda: brieskorn(d, 2, 3, 4.5), PreconditionError, "brieskorn r must be an integer"),
        (lambda: lens_general(d, _SURGERY_CAP + 2, _SURGERY_CAP + 1), CapacityError,
         "above the cap"),
    ]
    _clear_plans()
    for call, error, match in cases:
        for _ in range(3):
            with pytest.raises(error, match=match):
                call()
    # a refusal of the arguments leaves nothing cached
    sizes = [plan.cache_info().currsize for plan in _PLANS]
    assert sizes == [0, 0, 0, 1]  # only the chain above the cap, refused per call


def test_plans_and_tree_plans_are_immutable(toric_code):
    tree = PlumbingTree.star(1, (2, 3, 5))
    plans = [tvo.surgery._lens_p1_plan(4), tvo.surgery._lens_p2_plan(7),
             tvo.surgery._brieskorn_plan(2, 3, 5), tvo.surgery._lens_general_plan(13, 5),
             tvo.surgery._lens_general_plan(2000, 1999), tree._contraction]
    assert tvo.surgery._lens_general_plan(13, 5) is plans[3]  # the cached plan itself
    for plan in plans:
        schedule = plan.schedule
        assert isinstance(plan.method, str) and type(schedule) is tuple
        assert all(type(entry) is tuple and type(entry[2]) is tuple for entry in schedule)
        assert all(type(entry[0]) is int for entry in schedule)
        assert plan.vertices == sum(entry[3] for entry in schedule)
        assert plan.branched == any(entry[1] > 1 for entry in schedule)
        for target in (plan, schedule):
            with pytest.raises(TypeError):
                target[0] = target[0]
        for name in ("schedule", "vertices", "branched", "other"):
            with pytest.raises(AttributeError):
                setattr(plan, name, 0)
        with pytest.raises(AttributeError):
            del plan.vertices
    # the Brieskorn plan is the star tree's, relabelled, for arguments of any
    # integral type
    assert plans[2].schedule == tree._contraction.schedule
    assert brieskorn(toric_code, np.int64(2), 3.0, 5).method == "brieskorn(p=2,q=3,r=5)"
    assert plans[2].method == "brieskorn(p=2,q=3,r=5)"
    assert tree._contraction is tree._contraction
    assert tree._contraction.method == "plumbing(tree with 4 vertices)"
    assert plumbing_invariant(toric_code, tree).stats["vertices"] == 4
