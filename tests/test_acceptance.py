"""Acceptance criteria, one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line. Each
criterion pins its tolerance here; nothing is deferred to calibration.

Criterion 3 checks the Brieskorn quadruple sum against a homomorphism count
on the star plumbing that the sum presents. That plumbing is a homology
sphere only for some of the triples; there the count is also checked to be
the 1/|G| of the Brieskorn-sphere oracle.
"""

import math
import os

import numpy as np
import pytest

import tvo
from tvo import (
    FiniteAbelianGroup,
    brieskorn,
    conjugate_equivalent,
    double_data,
    dw_brieskorn_oracle,
    dw_lens_oracle,
    lens_general,
    lens_p1,
    lens_p2,
    pointed_sixj,
    quantum_double_abelian,
    standard_pointed_form,
    tube_modular_data,
    tube_pointed,
    tv_evaluate,
    twisted_double_cyclic,
    verify_verlinde,
)
from tvo.modular import INTEGER_TOLERANCE, fusion_from_S

from helpers import (
    integer_determinant,
    random_pachner_sequence,
    star_linking_matrix,
    surgery_hom_count,
)

TOL = 1e-9
GOLDEN_TOL = 1e-6
PAPER_TRIPLES = ((2, 3, 5), (2, 3, 7), (2, 5, 7), (3, 5, 7))

EXTERNAL_DIR = os.environ.get(
    "TVO_EXTERNAL_DATA", os.path.join(os.path.dirname(__file__), "external")
)


def _report(num: int, desc: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {num} ({desc}): {status}")
    for f in failures[:12]:
        print(f"    - {f}")
    assert not failures, f"criterion {num}: {len(failures)} failing sub-case(s); first: {failures[0]}"


def _doubling_inputs():
    out = [("fibonacci", tvo.fibonacci()), ("ising", tvo.ising())]
    out += [(f"su2_{k}", tvo.su2_level_k(k)) for k in range(1, 9)]
    out += [
        (f"pointed_{n}", tvo.pointed_cyclic(n, standard_pointed_form(n)))
        for n in range(1, 6)
    ]
    return out


def test_criterion_1_dw_oracle_equivalence():
    groups = [
        FiniteAbelianGroup((2,)),
        FiniteAbelianGroup((3,)),
        FiniteAbelianGroup((4,)),
        FiniteAbelianGroup((2, 2)),
    ]
    failures = []
    for G in groups:
        data = quantum_double_abelian(G)
        for p in range(1, 13):
            for q in range(1, max(p, 2)):
                if math.gcd(p, q) != 1 or (p > 1 and q >= p):
                    continue
                got = lens_general(data, p, q).value
                want = float(dw_lens_oracle(G, p))
                if abs(got - want) > TOL:
                    failures.append(f"{G} L({p},{q}): got {got}, oracle {want}")
    # toric code closed sequence
    toric = quantum_double_abelian(FiniteAbelianGroup((2,)))
    for p in range(1, 13):
        want = (3 + (-1) ** p) / 4
        got = lens_general(toric, p, 1).value
        if abs(got - want) > TOL:
            failures.append(f"toric sequence p={p}: got {got}, want {want}")
    _report(1, "lens values equal homomorphism counting", failures)


def test_criterion_2_doubling_identity():
    failures = []
    for name, single in _doubling_inputs():
        dd = double_data(single)
        for p in range(1, 13):
            lhs = lens_p1(dd, p).value
            rhs = abs(lens_p1(single, p).value) ** 2
            if abs(lhs - rhs) > TOL:
                failures.append(f"{name} lens p={p}: {lhs} vs |.|^2 {rhs}")
        for triple in PAPER_TRIPLES:
            lhs = brieskorn(dd, *triple).value
            rhs = abs(brieskorn(single, *triple).value) ** 2
            if abs(lhs - rhs) > TOL:
                failures.append(f"{name} brieskorn {triple}: {lhs} vs |.|^2 {rhs}")
    spot = lens_p1(double_data(tvo.fibonacci()), 3).value
    want = (5 + math.sqrt(5)) / 10
    if abs(spot - want) > TOL:
        failures.append(f"spot value lens_p1(double(fibonacci), 3) = {spot}, want {want}")
    _report(2, "doubled data gives squared moduli", failures)


def test_criterion_3_brieskorn_homology_spheres():
    # The quadruple sum is the surgery value of the star plumbing (center
    # framing 1, legs p, q, r). Its linking determinant pqr-pq-pr-qr is +-1
    # (a homology sphere) for (2,3,5) and (2,3,7) only; for (3,5,7) it is 34,
    # so the Z/2 value is |Hom(Z/34, Z/2)|/2 = 1. Each sub-case is checked
    # against the brute-force count on that plumbing, and on homology spheres
    # the count must also be the Brieskorn-sphere value 1/|G|.
    failures = []
    for n in (2, 3):
        G = FiniteAbelianGroup((n,))
        data = quantum_double_abelian(G)
        for triple in PAPER_TRIPLES:
            L = star_linking_matrix(1, triple)
            count = surgery_hom_count(L, (n,))
            got = brieskorn(data, *triple).value
            if abs(got - float(count)) > TOL:
                failures.append(
                    f"Z/{n} {triple}: formula gives {got.real:.6f}, "
                    f"star-plumbing count {float(count):.6f}"
                )
            if abs(integer_determinant(L)) == 1:
                sphere = dw_brieskorn_oracle(G, *triple)
                if count != sphere:
                    failures.append(
                        f"Z/{n} {triple}: homology-sphere count {count}, "
                        f"oracle {sphere}"
                    )
    _report(3, "Brieskorn sum equals the star-plumbing count, 1/|G| on homology spheres",
            failures)


def test_criterion_4_verlinde_axiom_suite():
    failures = []
    data_sets = [(f"double({name})", double_data(d)) for name, d in _doubling_inputs()]
    data_sets += [
        (f"twisted({n},{k})", twisted_double_cyclic(n, k))
        for n in range(1, 5)
        for k in range(n)
    ]
    for name, d in data_sets:
        rep = verify_verlinde(d)
        if not rep.strict_pass:
            bad = [c.name for c in rep.checks if not c.passed]
            failures.append(f"{name}: strict verification failed ({bad})")
            continue
        if abs(rep.anomaly_phase - 1) > TOL:
            failures.append(f"{name}: anomaly phase {rep.anomaly_phase}")
        integrality = next(c for c in rep.checks if c.name == "fusion integrality")
        if integrality.residual > INTEGER_TOLERANCE:
            failures.append(f"{name}: fusion residual {integrality.residual}")
        table = fusion_from_S(d)
        if not table.associative_ok():
            failures.append(f"{name}: fusion table not associative")
    _report(4, "doubles and twisted doubles are strict Verlinde data", failures)


def test_criterion_5_state_sum(s3_triangulation):
    failures = []
    for n in range(1, 6):
        got = tv_evaluate(pointed_sixj(n, 0), s3_triangulation).value
        if abs(got - 1 / n) > TOL:
            failures.append(f"sphere value n={n}: {got}, want {1/n}")
    # >= 20 randomized mixed moves per (n, k), at most 3 of them adding a vertex
    for n in range(1, 5):
        rng = np.random.default_rng(100 + n)
        moved, applied = random_pachner_sequence(
            s3_triangulation, 20, rng, max_new_vertices=3
        )
        assert len(applied) >= 20
        for k in range(n):
            sj = pointed_sixj(n, k)
            before = tv_evaluate(sj, s3_triangulation).value
            after = tv_evaluate(sj, moved).value
            if abs(before - after) > TOL:
                failures.append(
                    f"(n,k)=({n},{k}) not invariant: sphere {before}, moved {after}"
                )
    _report(5, "state sum: 1/n on the sphere, Pachner invariant", failures)


def test_criterion_6_tube_pipeline():
    failures = []
    for n in range(1, 5):
        for k in range(n):
            md = tube_modular_data(tube_pointed(n, k))
            ref = twisted_double_cyclic(n, k)
            equal = (
                md.rank == ref.rank
                and np.abs(md.S - ref.S).max() <= TOL
                and np.abs(md.T - ref.T).max() <= TOL
            )
            if not equal:
                perm = conjugate_equivalent(md, ref.conjugate())
                if perm is None:
                    failures.append(f"tube({n},{k}) does not match twisted double")
    for n in range(1, 5):
        md = tube_modular_data(tube_pointed(n, 0))
        for p in range(1, 13):
            got = lens_p1(md, p).value
            want = math.gcd(p, n) / n
            if abs(got - want) > TOL:
                failures.append(f"tube({n},0) lens p={p}: {got}, want {want}")
    _report(6, "tube center reproduces twisted doubles and lens counts", failures)


def test_criterion_7_orientation_sensitivity():
    failures = []
    data_sets = [
        ("dw_z2", quantum_double_abelian(FiniteAbelianGroup((2,)))),
        ("dw_z3", quantum_double_abelian(FiniteAbelianGroup((3,)))),
        ("dw_z4", quantum_double_abelian(FiniteAbelianGroup((4,)))),
        ("dw_z2x2", quantum_double_abelian(FiniteAbelianGroup((2, 2)))),
    ]
    data_sets += [(f"double({n})", double_data(d)) for n, d in _doubling_inputs()]
    data_sets += [
        (f"twisted({n},{k})", twisted_double_cyclic(n, k))
        for n in range(1, 5)
        for k in range(n)
    ]
    data_sets += [(f"tube({n},{k})", tube_modular_data(tube_pointed(n, k)))
                  for n in range(1, 4) for k in range(n)]
    for name, d in data_sets:
        if not d.is_strictly_anomaly_free:
            failures.append(f"{name}: expected strictly anomaly-free data")
            continue
        a = lens_p1(d, 3).value
        b = lens_p2(d, 3).value
        if abs(b - a.conjugate()) > TOL:
            failures.append(f"{name}: lens_p2(3)={b} is not conj(lens_p1(3))={a.conjugate()}")
    _report(7, "L(3,2) value conjugate to L(3,1)", failures)


def test_criterion_8_golden_reproduction():
    sources = {
        "haagerup": "haagerup-double.dat",
        "e6": "e6-double.dat",
        "d5": "d5-double.dat",
        "e6-z3": "e6-z3-double.dat",
        "e6-z4": "e6-z4-double.dat",
        "e6-z5": "e6-z5-double.dat",
        "e6-z2x2": "e6-z2x2-double.dat",
    }
    available = {
        src: os.path.join(EXTERNAL_DIR, fname)
        for src, fname in sources.items()
        if os.path.exists(os.path.join(EXTERNAL_DIR, fname))
    }
    if not available:
        print("[acceptance] criterion 8 (golden values from external data): SKIPPED "
              f"(no external data files under {EXTERNAL_DIR})")
        pytest.skip("external modular data files not supplied")
    failures = []
    for src, path in available.items():
        data = tvo.load_modular_file(path)
        for fx in tvo.golden_fixtures(src):
            if fx.manifold[0] == "lens":
                _, p, q = fx.manifold
                got = lens_general(data, p, q).value
            else:
                got = brieskorn(data, *fx.manifold[1:]).value
            if abs(got - fx.value) > GOLDEN_TOL:
                failures.append(f"{src} {fx.manifold}: got {got}, fixture {fx.value}")
        if src == "e6":
            for p in range(1, 13):
                got = lens_p1(data, p).value
                want = tvo.e6_lens_reference(p, 1)
                if abs(got - want) > GOLDEN_TOL:
                    failures.append(f"e6 L({p},1): got {got}, closed form {want}")
                if p % 2 == 1:
                    got = lens_p2(data, p).value
                    want = tvo.e6_lens_reference(p, 2)
                    if abs(got - want) > GOLDEN_TOL:
                        failures.append(f"e6 L({p},2): got {got}, closed form {want}")
    _report(8, "golden values from external data", failures)
