import math
import re
import tracemalloc

import numpy as np
import pytest

from tvo import (
    DecompositionError,
    PreconditionError,
    StructureError,
    TubeAlgebra,
    center_idempotents,
    conjugate_equivalent,
    lens_p1,
    tube_modular_data,
    tube_pointed,
    twisted_double_cyclic,
    verify_verlinde,
)
from tvo.catalog import cyclic_cocycle

from helpers import cyclic_cocycle_value

ALL_NK = [(n, k) for n in range(1, 7) for k in range(n)]
SMALL_NK = [(n, k) for n in range(1, 5) for k in range(n)]


def coboundary(f):
    """The sector table tau(x, y) = f(x) f(y) / f(x + y): associative and
    commutative, with u_x / f(x) multiplying as the group algebra."""
    f = np.asarray(f, dtype=complex)
    ar = np.arange(len(f))
    return f[:, None] * f[None, :] / f[np.add.outer(ar, ar) % len(f)]


def dense_idempotents(cb):
    """The (n^2, n^2) matrix whose row g*n + j is the idempotent of flux g
    and charge j, built from the blocks."""
    n = cb.blocks.shape[0]
    out = np.zeros((n * n, n * n), dtype=complex)
    for g in range(n):
        out[g * n:(g + 1) * n, g * n:(g + 1) * n] = cb.blocks[g]
    return out


@pytest.mark.parametrize("n,k", ALL_NK)
def test_algebra_is_associative_star_algebra(n, k):
    alg = tube_pointed(n, k)
    assert alg.dim == n * n
    assert alg.associativity_residual() < 1e-12
    assert alg.star_antihomomorphism_residual() < 1e-12


def test_star_is_involution():
    alg = tube_pointed(4, 3)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    assert np.abs(alg.star(alg.star(u)) - u).max() < 1e-12
    # (u_(g,x))^* = conj(tau_g(x, -x)) u_(g,-x), a phase other than 1 here
    for g in range(4):
        for x in range(4):
            want = np.zeros(alg.dim, dtype=complex)
            want[g * 4 + (-x) % 4] = alg.tau[g, x, (-x) % 4].conjugate()
            assert np.array_equal(alg.star(np.eye(alg.dim)[g * 4 + x]), want)


def test_tube_algebra_is_its_read_only_table():
    table = np.ones((2, 2, 2), dtype=complex)
    alg = TubeAlgebra(table)
    assert (alg.n, alg.dim) == (2, 4) and not alg.tau.flags.writeable
    table[0, 0, 0] = 5  # the algebra keeps its own copy of a writeable table
    assert alg.tau[0, 0, 0] == 1
    assert alg.tau is TubeAlgebra(alg.tau).tau
    for shape in ((2, 2), (2, 2, 3), (0, 0, 0)):
        with pytest.raises(StructureError, match=re.escape(f"(n, n, n) with n >= 1, not {shape}")):
            TubeAlgebra(np.ones(shape))


def test_tube_algebra_refuses_a_non_finite_table():
    # NaN compares False against the associativity and commutativity
    # bounds, so only the intake keeps such a table from np.linalg.eig
    with pytest.raises(StructureError, match=re.escape("tau[0, 0, 0] = (nan+0j) is not finite")):
        TubeAlgebra(np.full((2, 2, 2), np.nan))
    table = tube_pointed(3, 1).tau.copy()
    table[1, 2, 0] = np.inf
    with pytest.raises(StructureError, match=re.escape("tau[1, 2, 0] = (inf+0j) is not finite")):
        TubeAlgebra(table)


def test_tube_pointed_refuses_an_empty_group():
    with pytest.raises(PreconditionError, match="tube_pointed requires n >= 1"):
        tube_pointed(0, 0)


def test_identity_element():
    alg = tube_pointed(3, 1)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    assert np.abs(alg.product(alg.identity, u) - u).max() < 1e-12
    assert np.abs(alg.product(u, alg.identity) - u).max() < 1e-12


def test_k0_sectors_are_group_algebras():
    alg = tube_pointed(3, 0)
    # all structure constants are 0 or 1 and the product never mixes sectors
    assert set(np.round(alg.tau.reshape(-1), 12).tolist()) <= {0, 1}
    basis = np.eye(alg.dim, dtype=complex)
    for i in range(alg.dim):
        for j in range(alg.dim):
            if divmod(i, alg.n)[0] != divmod(j, alg.n)[0]:
                assert np.abs(alg.product(basis[i], basis[j])).max() == 0


def test_pointed_tube_is_commutative():
    for n, k in ((2, 1), (3, 2), (4, 3)):
        alg = tube_pointed(n, k)
        assert np.abs(alg.tau - np.swapaxes(alg.tau, 1, 2)).max() < 1e-12


@pytest.mark.parametrize("n,k", ALL_NK)
def test_center_has_n_squared_idempotents(n, k):
    cb = center_idempotents(tube_pointed(n, k))
    assert cb.blocks.shape == (n, n, n)
    r = cb.blocks.shape[0] * cb.blocks.shape[1]
    assert r == n * n == twisted_double_cyclic(n, k).rank
    assert cb.idempotent_residual < 1e-9
    assert cb.completeness_residual < 1e-9


def test_idempotents_are_orthogonal():
    alg = tube_pointed(3, 1)
    idempotents = dense_idempotents(center_idempotents(alg))
    for i, p in enumerate(idempotents):
        for j, q in enumerate(idempotents):
            prod = alg.product(p, q)
            target = p if i == j else 0 * p
            assert np.abs(prod - target).max() < 1e-9


def test_idempotents_match_closed_form():
    # independent construction: p_(g,j) = (1/n) sum_x conj(eps_g(x) chi_j(x)) u_(g,x)
    # with eps_g(x) = exp(2 pi i k g x / n^2) trivializing the sector cocycle
    for n, k in ((n, k) for n in range(1, 9) for k in range(n)):
        alg = tube_pointed(n, k)
        expected = []
        for g in range(n):
            for j in range(n):
                vec = np.zeros(alg.dim, dtype=complex)
                for x in range(n):
                    psi = np.exp(2j * np.pi * (k * g * x / n + j * x) / n)
                    vec[g * n + x] = np.conj(psi) / n
                expected.append(vec)
        # closed-form vectors must be idempotent in the algebra
        for vec in expected:
            assert np.abs(alg.product(vec, vec) - vec).max() < 1e-12
        got = dense_idempotents(center_idempotents(alg))
        # rows agree one by one: row g*n + j is the idempotent of flux g and charge j
        for i, vec in enumerate(expected):
            assert np.abs(vec - got[i]).max() < 1e-9, (n, k, divmod(i, n))


def test_one_dimensional_algebra():
    alg = tube_pointed(1, 0)
    cb = center_idempotents(alg)
    assert cb.blocks.shape == (1, 1, 1)
    assert np.abs(cb.blocks[0, 0] - alg.identity).max() < 1e-12


def test_sector_cocycle_matches_tube_structure_constants():
    n, k = 4, 3
    alg = tube_pointed(n, k)
    for g in range(n):
        for x in range(n):
            for y in range(n):
                assert alg.tau[g, x, y] == cyclic_cocycle_value(n, k, g, x, y)


def test_non_associative_input_rejected():
    alg = tube_pointed(2, 1)
    broken = alg.tau.copy()
    broken[0, 0, 0] = 0.7  # u_0 u_0 = 0.7 u_0, but u_0 u_1 = u_1
    bad = TubeAlgebra(broken)
    assert abs(bad.associativity_residual() - 0.3) < 1e-12
    with pytest.raises(DecompositionError):
        center_idempotents(bad)


def test_noncommutative_sectors_rejected():
    # every sector has u_0 u_y = u_y and u_1 u_y = 0: an associative table
    # (a 2-cocycle), with u_0 a left identity, but u_0 u_1 = u_1 != 0 = u_1 u_0
    alg = TubeAlgebra([[[1, 1], [0, 0]]] * 2)
    assert alg.associativity_residual() == 0
    assert np.abs(alg.product(alg.identity, np.arange(4)) - np.arange(4)).max() == 0
    with pytest.raises(DecompositionError, match="not commutative"):
        center_idempotents(alg)


def test_center_refuses_inseparable_eigenvalues():
    # u_1 u_y = 0: every sector is the dual numbers C[u_1]/(u_1^2), whose
    # u_1 is nilpotent, so both eigenvalues are 0
    alg = TubeAlgebra([[[1, 0], [0, 0]]] * 2)
    assert alg.associativity_residual() == 0
    with pytest.raises(DecompositionError, match="could not separate central eigenvalues"):
        center_idempotents(alg)


def test_center_refuses_a_nilpotent_direction():
    # at scale 1e-5 the table's 2-cocycle defect, 4e-10, is under tolerance;
    # each eigenvector q = (1, +-1) / sqrt 2 of u_1 then has q q = 1e-5 (-1, +-1),
    # with no component along q
    alg = TubeAlgebra([1e-5 * np.array([[-3, 1], [1, 1]])] * 2)
    assert 0 < alg.associativity_residual() <= 1e-9
    with pytest.raises(DecompositionError, match="nilpotent direction"):
        center_idempotents(alg)


def test_center_refuses_directions_that_are_not_idempotent():
    # the same table with tau(0,0) = 3e-5: q q = 1e-5 (2, +-1) is not a
    # multiple of q, so q q / mu^2 - q / mu is of order 1 / (9e-5)
    alg = TubeAlgebra([1e-5 * np.array([[3, 1], [1, 1]])] * 2)
    assert 0 < alg.associativity_residual() <= 1e-9
    with pytest.raises(DecompositionError, match="idempotent residual 1.111e\\+04"):
        center_idempotents(alg)


def test_center_refuses_idempotents_that_miss_the_identity():
    # a commutative Z/3-graded table, A = [[3, 1, 2], [1, 1, 1], [2, 1, 3]],
    # that is no 2-cocycle ((u_0 u_0) u_1 = 3 u_1, u_0 (u_0 u_1) = u_1); at
    # scale 1e-5 its defect 3e-10 is under the associativity bound. u_1
    # shifts with weight 1, so the characters q_j are its eigenvectors, and
    # with every anti-diagonal sum of A equal to 5, q_j q_j = 5e-5 q_j: the
    # idempotents q_j / 5e-5 sum to 3 u_0 / 5e-5, but the unit read off the
    # table is u_0 / 3e-5, so they miss it by 6e4 - 3.33e4
    A = np.array([[3, 1, 2], [1, 1, 1], [2, 1, 3]])
    alg = TubeAlgebra([1e-5 * A] * 3)
    assert 0 < alg.associativity_residual() <= 1e-9
    with pytest.raises(DecompositionError, match="do not sum to the identity \\(2.667e\\+04\\)"):
        center_idempotents(alg)


def test_modular_data_refuses_a_vacuum_coefficient_off_1_over_n():
    # tau = 2: the unit is u_0 / 2, and every idempotent has u_0 coefficient 1 / (2n)
    alg = TubeAlgebra(2 * np.ones((2, 2, 2)))
    assert np.array_equal(alg.identity, [0.5, 0, 0.5, 0])
    center_idempotents(alg)
    with pytest.raises(DecompositionError, match="vacuum coefficient .* of sector 0 is not 1/n"):
        tube_modular_data(alg)


def test_modular_data_refuses_a_character_that_is_not_unimodular():
    # u_1 / 2 multiplies as in the group algebra, so n B[g, j, 1] = +-1/2
    alg = TubeAlgebra([coboundary([1, 2])] * 2)
    with pytest.raises(DecompositionError, match="not unimodular"):
        tube_modular_data(alg)


def test_modular_data_refuses_a_vacuum_that_is_not_the_trivial_character():
    # in sector 0, u_2 multiplies as -1 times the group algebra's: the
    # idempotent of charge 0 has n B = (1, 1, -1), unimodular but not trivial
    alg = TubeAlgebra([coboundary([1, 1, -1])] + [np.ones((3, 3))] * 2)
    with pytest.raises(DecompositionError, match="vacuum idempotent .* not found"):
        tube_modular_data(alg)


def test_center_stats():
    cb = center_idempotents(tube_pointed(3, 1))
    assert set(cb.stats) == {"dim", "sector_gaps", "checks_s", "eig_s", "readout_s"}
    assert cb.stats["dim"] == 9 and len(cb.stats["sector_gaps"]) == 3
    assert min(cb.stats[key] for key in ("checks_s", "eig_s", "readout_s")) >= 0
    assert "stats" not in repr(cb)


@pytest.mark.parametrize("n", range(1, 13))
def test_sector_gaps_meet_the_stated_bound(n):
    # the eigenvalues of u_(g,1) are n n-th roots of one unimodular number
    for k in range(n):
        gaps = center_idempotents(tube_pointed(n, k)).stats["sector_gaps"]
        assert len(gaps) == n
        assert min(gaps) >= 2 * math.sin(math.pi / n) - 1e-12, (n, k)


@pytest.mark.parametrize("n", range(3, 8))
def test_twist_contradicting_structure_constants_rejected(n):
    # sector 2 of twist k + 1 beside the other sectors of twist k: each
    # sector is a commutative 2-cocycle, but read with the k of sector 1 the
    # charges of sector 2 are 2/n off the integers, so no label (flux,
    # charge) can be named
    for k in range(n):
        tau = cyclic_cocycle(n, k).copy()
        tau[2] = cyclic_cocycle(n, k + 1)[2]
        alg = TubeAlgebra(tau)
        with pytest.raises(DecompositionError, match=f"sector 2 .* off the integers for the "
                                                     f"charge offset k = {k} read from sector 1"):
            tube_modular_data(alg)


# ---------------------------------------------------------------------------
# modular data from the center
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,k", SMALL_NK)
def test_tube_modular_data_equals_twisted_double(n, k):
    md = tube_modular_data(tube_pointed(n, k))
    ref = twisted_double_cyclic(n, k)
    assert np.abs(md.S - ref.S).max() < 1e-9
    assert np.abs(md.T - ref.T).max() < 1e-9
    perm = conjugate_equivalent(md, ref.conjugate())
    assert perm is not None


@pytest.mark.parametrize("n,k", SMALL_NK)
def test_tube_modular_data_strict_verlinde(n, k):
    rep = verify_verlinde(tube_modular_data(tube_pointed(n, k)))
    assert rep.strict_pass
    assert abs(rep.anomaly_phase - 1) < 1e-9


@pytest.mark.parametrize("n", range(1, 7))
def test_tube_lens_values_reproduce_hom_counting(n):
    md = tube_modular_data(tube_pointed(n, 0))
    for p in range(1, 13):
        got = lens_p1(md, p).value
        assert abs(got - math.gcd(p, n) / n) < 1e-9


@pytest.mark.parametrize("n,k", [(8, 3), (8, 6), (12, 1), (12, 7)])
def test_tube_modular_data_beyond_dense_sizes(n, k):
    # the dense n^6 tensor and its n^8 residual needed ~14 GB at n = 12
    alg = tube_pointed(n, k)
    assert alg.tau.shape == (n, n, n)
    tracemalloc.start()
    try:
        md = tube_modular_data(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    ref = twisted_double_cyclic(n, k)
    assert np.abs(md.S - ref.S).max() < 1e-9
    assert np.abs(md.T - ref.T).max() < 1e-9


def test_tube_modular_data_traced_peak_at_n_32():
    # S has n^4 = 2^20 complex entries (16 MiB), written once into the array
    # ModularData keeps; the bound allows three arrays of that size
    tracemalloc.start()
    try:
        md = tube_modular_data(tube_pointed(32, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20, peak / 2**20
    ref = twisted_double_cyclic(32, 1)
    assert np.abs(md.S - ref.S).max() < 1e-9 and np.abs(md.T - ref.T).max() < 1e-9


@pytest.mark.parametrize("n", range(1, 13))
def test_tube_modular_data_equals_twisted_double_tightly(n):
    for k in range(n):
        md = tube_modular_data(tube_pointed(n, k))
        ref = twisted_double_cyclic(n, k)
        assert md.labels == ref.labels
        assert np.abs(md.S - ref.S).max() <= 1e-12, (n, k)
        assert np.abs(md.T - ref.T).max() <= 1e-12, (n, k)


def test_tube_vacuum_label_first():
    md = tube_modular_data(tube_pointed(4, 2))
    assert md.labels[0] == "(0,0)"
    assert abs(md.T[0] - 1) < 1e-12
    assert abs(md.S[0, 0] - 0.25) < 1e-12
