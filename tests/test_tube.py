import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import tvo
from tvo import (
    DecompositionError,
    center_idempotents,
    conjugate_equivalent,
    lens_p1,
    tube_modular_data,
    tube_pointed,
    twisted_double_cyclic,
    verify_verlinde,
)
from tvo.catalog import cyclic_cocycle

ALL_NK = [(n, k) for n in range(1, 7) for k in range(n)]
SMALL_NK = [(n, k) for n in range(1, 5) for k in range(n)]


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


def test_identity_element():
    alg = tube_pointed(3, 1)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    assert np.abs(alg.product(alg.identity, u) - u).max() < 1e-12
    assert np.abs(alg.product(u, alg.identity) - u).max() < 1e-12


def test_k0_sectors_are_group_algebras():
    alg = tube_pointed(3, 0)
    # all structure constants are 0 or 1 and the product never mixes sectors
    assert set(np.round(alg.mult.reshape(-1), 12).tolist()) <= {0, 1}
    basis = np.eye(alg.dim, dtype=complex)
    for i, (g, x) in enumerate(alg.labels):
        for j, (h, y) in enumerate(alg.labels):
            if g != h:
                assert np.abs(alg.product(basis[i], basis[j])).max() == 0


def test_pointed_tube_is_commutative():
    for n, k in ((2, 1), (3, 2), (4, 3)):
        alg = tube_pointed(n, k)
        assert np.abs(alg.mult - np.swapaxes(alg.mult, 1, 2)).max() < 1e-12


@pytest.mark.parametrize("n,k", ALL_NK)
def test_center_has_n_squared_idempotents(n, k):
    cb = center_idempotents(tube_pointed(n, k))
    r = cb.idempotents.shape[0]
    assert r == n * n == twisted_double_cyclic(n, k).rank
    assert cb.idempotent_residual < 1e-9
    assert cb.completeness_residual < 1e-9


def test_idempotents_are_orthogonal():
    alg = tube_pointed(3, 1)
    cb = center_idempotents(alg)
    for i, p in enumerate(cb.idempotents):
        for j, q in enumerate(cb.idempotents):
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
        got = center_idempotents(alg).idempotents
        # rows agree one by one: row g*n + j is the idempotent of flux g and charge j
        for i, vec in enumerate(expected):
            assert np.abs(vec - got[i]).max() < 1e-9, (n, k, divmod(i, n))


def test_one_dimensional_algebra():
    alg = tube_pointed(1, 0)
    cb = center_idempotents(alg)
    assert cb.idempotents.shape == (1, 1)
    assert np.abs(cb.idempotents[0] - alg.identity).max() < 1e-12


def test_sector_cocycle_matches_tube_structure_constants():
    n, k = 4, 3
    alg = tube_pointed(n, k)
    omega = cyclic_cocycle(n, k)
    for g in range(n):
        for x in range(n):
            for y in range(n):
                got = alg.mult[g, x, y, (x + y) % n]
                assert abs(got - omega(g, x, y)) < 1e-15


def test_non_associative_input_rejected():
    alg = tube_pointed(2, 1)
    broken = alg.mult.copy()
    broken[0, 0, 0, 1] = 0.7
    bad = tvo.TubeAlgebra(alg.n, alg.twist, alg.labels, broken, alg.star_phase,
                          alg.star_perm, alg.identity)
    with pytest.raises(DecompositionError):
        center_idempotents(bad)


def test_noncommutative_sectors_rejected():
    # every sector is M_2(C): associative, but E_01 E_10 = E_00 != E_11 = E_10 E_01
    n = 4  # basis E_ij at x = 2 i + j
    mult = np.zeros((n, n, n, n), dtype=complex)
    for i, j, l in itertools.product(range(2), repeat=3):
        mult[:, 2 * i + j, 2 * j + l, 2 * i + l] = 1.0
    labels = tuple((g, x) for g in range(n) for x in range(n))
    star_perm = np.array([g * n + 2 * j + i for g in range(n) for i in range(2) for j in range(2)])
    identity = np.tile([1.0, 0.0, 0.0, 1.0], n).astype(complex)
    alg = tvo.TubeAlgebra(n, 0, labels, mult, np.ones(n * n, dtype=complex), star_perm, identity)
    assert alg.associativity_residual() == 0
    assert np.abs(alg.product(identity, np.arange(n * n)) - np.arange(n * n)).max() == 0
    with pytest.raises(DecompositionError, match="not commutative"):
        center_idempotents(alg)


@pytest.mark.parametrize("n", range(2, 8))
def test_twist_contradicting_structure_constants_rejected(n):
    # the constants of twist k read with twist k + 1: the charges of sector 1
    # are 1/n off the integers, so no label (flux, charge) can be named
    for k in range(n):
        alg = dataclasses.replace(tube_pointed(n, k), twist=(k + 1) % n)
        with pytest.raises(DecompositionError, match="off the integers"):
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
    assert alg.mult.shape == (n, n, n, n)
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
