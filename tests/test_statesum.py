import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from tvo import (
    CapacityError,
    InvariantValue,
    StructureError,
    Triangulation,
    UnsupportedFeatureError,
    fibonacci,
    fusion_from_S,
    lens_general,
    lens_p1,
    pointed_sixj,
    tv_evaluate,
    twisted_double_cyclic,
    verify_pentagon,
)
from tvo.statesum import _POINTED_LABEL_CAP, SixJData, _layout
from tvo.triangulation import pachner_14, pachner_23

from helpers import (
    barycentric_subdivision,
    random_pachner_sequence,
    tv_bruteforce,
    two_tet_sphere,
)


# ---------------------------------------------------------------------------
# pointed 6j data
# ---------------------------------------------------------------------------

def test_pointed_sixj_trivial_cocycle_weights_all_one():
    sj = pointed_sixj(2, 0)
    assert all(abs(v - 1) < 1e-15 for v in sj.weights.values())
    assert sj.pointed
    assert sj.global_index == 2


def test_pointed_sixj_z2_twisted_weights():
    # weight is -1 exactly when the leading label is 1 and both the middle
    # and trailing labels are 1 (the cocycle argument wraps)
    sj = pointed_sixj(2, 1)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                key = (a, (a + b) % 2, (a + b + c) % 2, b, (b + c) % 2, c)
                expected = -1.0 if (a == 1 and b == 1 and c == 1) else 1.0
                assert abs(sj.weights[key] - expected) < 1e-15
                assert abs(sj.weights[key] - (-1.0) ** (a * ((b + c) // 2))) < 1e-15


def test_pointed_sixj_refuses_empty_groups():
    for n in (0, -1):
        with pytest.raises(StructureError, match="pointed_sixj requires n >= 1"):
            pointed_sixj(n, 0)


def test_pointed_sixj_single_label():
    sj = pointed_sixj(1, 5)
    assert sj.num_labels == 1
    assert all(abs(v - 1) < 1e-15 for v in sj.weights.values())


@pytest.mark.parametrize("n", range(1, 6))
def test_pentagon_all_cocycles(n):
    for k in range(n):
        rep = verify_pentagon(pointed_sixj(n, k))
        assert rep.passed, (n, k, rep.max_residual)
        assert rep.checked == n**4


def test_pentagon_detects_corruption():
    sj = pointed_sixj(2, 0)
    key = next(iter(sj.weights))
    sj = replace(sj, weights={**sj.weights, key: -1.0})
    rep = verify_pentagon(sj)
    assert not rep.passed
    assert rep.max_residual > 1.0


def test_pentagon_residual_matches_direct_loop():
    n = 3
    weights = dict(pointed_sixj(n, 1).weights)
    rng = np.random.default_rng(5)
    for key in list(weights)[::4]:
        weights[key] *= np.exp(1j * rng.uniform(0, 0.1))
    sj = replace(pointed_sixj(n, 1), weights=weights)

    def w(a, b, c):
        return sj.weights[(a, (a + b) % n, (a + b + c) % n, b, (b + c) % n, c)]

    worst = 0.0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    lhs = w(b, c, d) * w(a, (b + c) % n, d) * w(a, b, c)
                    rhs = w((a + b) % n, c, d) * w(a, b, (c + d) % n)
                    worst = max(worst, abs(lhs - rhs))
    rep = verify_pentagon(sj)
    assert rep.max_residual == worst > 0.01
    assert (rep.passed, rep.checked) == (False, n**4)


def test_pentagon_missing_weight_is_structure_error():
    weights = dict(pointed_sixj(3, 1).weights)
    del weights[(1, 2, 1, 1, 0, 2)]  # a, b, c = 1, 1, 2
    sj = replace(pointed_sixj(3, 1), weights=weights)
    with pytest.raises(StructureError, match="no 6j weight"):
        verify_pentagon(sj)


# ---------------------------------------------------------------------------
# evaluation on the shipped sphere
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_sphere_value_is_one_over_n(n, s3_triangulation):
    z = tv_evaluate(pointed_sixj(n, 0), s3_triangulation)
    assert abs(z.value - 1 / n) < 1e-9


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)])
def test_sphere_value_independent_of_cocycle(n, k, s3_triangulation):
    z = tv_evaluate(pointed_sixj(n, k), s3_triangulation)
    assert abs(z.value - 1 / n) < 1e-9


@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (3, 1)])
def test_sphere_matches_bruteforce_enumeration(n, k, s3_triangulation):
    sj = pointed_sixj(n, k)
    fast = tv_evaluate(sj, s3_triangulation).value
    slow = tv_bruteforce(sj, s3_triangulation)
    assert abs(fast - slow) < 1e-12


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 1), (5, 0)])
def test_two_tet_sphere_matches_bruteforce(n, k):
    tri = two_tet_sphere()
    sj = pointed_sixj(n, k)
    fast = tv_evaluate(sj, tri).value
    slow = tv_bruteforce(sj, tri)
    assert abs(fast - slow) < 1e-12
    assert abs(fast - 1 / n) < 1e-9


def test_moved_complex_matches_bruteforce(s3_triangulation):
    tri = pachner_23(s3_triangulation, 1, 2)
    sj = pointed_sixj(2, 1)
    assert abs(tv_evaluate(sj, tri).value - tv_bruteforce(sj, tri)) < 1e-12


# ---------------------------------------------------------------------------
# Pachner invariance
# ---------------------------------------------------------------------------

def test_invariance_single_moves(s3_triangulation):
    sj = pointed_sixj(3, 1)
    base = tv_evaluate(sj, s3_triangulation).value
    for t in range(s3_triangulation.num_tets):
        moved = pachner_14(s3_triangulation, t)
        assert abs(tv_evaluate(sj, moved).value - base) < 1e-9
    for (t, f) in list(s3_triangulation.gluings)[:5]:
        moved = pachner_23(s3_triangulation, t, f)
        assert abs(tv_evaluate(sj, moved).value - base) < 1e-9


@pytest.mark.parametrize("n,k,seed", [(2, 1, 3), (3, 2, 4), (4, 3, 5)])
def test_invariance_random_sequences_short(n, k, seed, s3_triangulation):
    rng = np.random.default_rng(seed)
    tri, _ = random_pachner_sequence(s3_triangulation, 8, rng, max_new_vertices=2)
    sj = pointed_sixj(n, k)
    before = tv_evaluate(sj, s3_triangulation).value
    after = tv_evaluate(sj, tri).value
    assert abs(before - after) < 1e-9


# ---------------------------------------------------------------------------
# rejection paths
# ---------------------------------------------------------------------------

def test_open_triangulation_rejected():
    ident = (0, 1, 2, 3)
    open_tri = Triangulation(2, {(0, 0): (1, ident), (1, 0): (0, ident)})
    with pytest.raises(StructureError):
        tv_evaluate(pointed_sixj(2, 0), open_tri)


def test_non_pointed_data_rejected(s3_triangulation):
    # Fibonacci-like fusion: (1,1) admits two channels, so not pointed
    adm = frozenset(
        [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
    )
    sj = SixJData(num_labels=2, qdim=np.array([1.0, 1.0]), admissible=adm, weights={})
    assert not sj.pointed
    with pytest.raises(UnsupportedFeatureError):
        tv_evaluate(sj, s3_triangulation)


def test_non_unit_dimensions_rejected(s3_triangulation):
    adm = frozenset((a, b, (a + b) % 2) for a in range(2) for b in range(2))
    sj = SixJData(num_labels=2, qdim=np.array([1.0, 2.618]), admissible=adm,
                  weights=dict(pointed_sixj(2, 0).weights))
    with pytest.raises(UnsupportedFeatureError):
        tv_evaluate(sj, s3_triangulation)


def test_non_orientable_complex_rejected():
    # two tetrahedra glued into a closed non-orientable complex with
    # Euler characteristic 0; its subdivision has distinct vertex classes
    # in every tetrahedron, so orientability is what refuses it
    tri = Triangulation(2, {
        (0, 0): (1, (3, 1, 0, 2)), (0, 1): (1, (3, 1, 0, 2)), (0, 2): (1, (1, 0, 2, 3)),
        (0, 3): (1, (2, 3, 1, 0)), (1, 0): (0, (3, 2, 0, 1)), (1, 1): (0, (2, 1, 3, 0)),
        (1, 2): (0, (1, 0, 2, 3)), (1, 3): (0, (2, 1, 3, 0)),
    })
    assert tri.is_closed and tri.euler_characteristic == 0 and tri.orientation is None
    with pytest.raises(UnsupportedFeatureError, match="triangulation is not orientable"):
        tv_evaluate(pointed_sixj(2, 0), barycentric_subdivision(tri))


def test_repeated_vertex_class_complex_rejected():
    # a 2-3 move on the two-tet sphere merges the apexes into one class
    tri = two_tet_sphere()
    moved = pachner_23(tri, 0, 0)
    with pytest.raises(UnsupportedFeatureError):
        tv_evaluate(pointed_sixj(2, 0), moved)


# ---------------------------------------------------------------------------
# cross-checks with the rest of the library
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sphere_value_matches_tube_pipeline(n, s3_triangulation):
    from tvo import lens_p1, tube_modular_data, tube_pointed

    tv = tv_evaluate(pointed_sixj(n, 0), s3_triangulation).value
    lens = lens_p1(tube_modular_data(tube_pointed(n, 0)), 1).value
    assert abs(tv - 1 / n) < 1e-9
    assert abs(lens - 1 / n) < 1e-9
    assert abs(tv - lens) < 1e-9


def test_statesum_lambda_squared_is_double_global_index(s3_triangulation):
    # lambda of the pointed data is n; the doubled/tube data has index n^2
    from tvo import global_index, twisted_double_cyclic

    for n in (2, 3, 4):
        sj = pointed_sixj(n, 0)
        assert abs(global_index(twisted_double_cyclic(n, 0)) - sj.global_index**2) < 1e-9


# ---------------------------------------------------------------------------
# gauge fixing, the explicit-stack enumeration and its counters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 6))
def test_sphere_reaches_one_leaf(n, s3_triangulation):
    for k in range(n):
        stats = tv_evaluate(pointed_sixj(n, k), s3_triangulation).stats
        assert stats["leaves"] == 1, (k, stats)
        assert stats["gauge_fixed"]
        assert stats["visited"] >= s3_triangulation.num_edges


def test_stats_pin_counters_and_stage_times(s3_triangulation):
    stats = tv_evaluate(pointed_sixj(3, 1), s3_triangulation).stats
    assert set(stats) == {
        "leaves", "visited", "pruned", "gauge_fixed", "layout_s", "gate_s", "sum_s",
    }
    for key in ("layout_s", "gate_s", "sum_s"):
        assert isinstance(stats[key], float) and stats[key] >= 0.0


def test_stats_take_no_part_in_equality(s3_triangulation):
    z = tv_evaluate(pointed_sixj(2, 1), s3_triangulation)
    bare = InvariantValue(z.value, z.method)
    assert bare.stats == {}
    assert z == bare
    assert hash(z) == hash(bare)


@pytest.fixture(scope="module")
def thousand_edge_sphere(s3_triangulation):
    rng = np.random.default_rng(275)
    tri = s3_triangulation
    for _ in range(275):
        tri = pachner_14(tri, int(rng.integers(tri.num_tets)))
    return tri


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2)])
def test_thousand_edge_sphere_is_one_over_n(n, k, thousand_edge_sphere):
    # deeper than the interpreter's recursion limit, one edge per level
    assert (thousand_edge_sphere.num_edges, thousand_edge_sphere.num_vertices) == (1110, 280)
    z = tv_evaluate(pointed_sixj(n, k), thousand_edge_sphere)
    assert abs(z.value - 1 / n) < 1e-9
    assert z.stats["gauge_fixed"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_walk_with_many_vertex_moves_is_one_over_n(n, s3_triangulation):
    rng = np.random.default_rng(40 + n)
    tri, applied = random_pachner_sequence(
        s3_triangulation, 30, rng, max_new_vertices=30, p_vertex_move=0.8
    )
    assert sum(kind == "1-4" for kind, _ in applied) >= 20
    for k in range(n):
        z = tv_evaluate(pointed_sixj(n, k), tri).value
        assert abs(z - 1 / n) < 1e-9, (k, z)


#: one-tetrahedron lens spaces L(p, q) by (p, q); a tetrahedron's corners all
#: lie in one vertex class, so the state sum reads their barycentric subdivisions
_ONE_TET_LENS = {
    (4, 1): {(0, 0): (0, (1, 2, 3, 0)), (0, 1): (0, (3, 0, 1, 2)),
             (0, 2): (0, (1, 2, 3, 0)), (0, 3): (0, (3, 0, 1, 2))},
    (5, 2): {(0, 0): (0, (1, 2, 3, 0)), (0, 1): (0, (3, 0, 1, 2)),
             (0, 2): (0, (2, 0, 3, 1)), (0, 3): (0, (1, 3, 0, 2))},
}


@pytest.mark.parametrize("p,q", sorted(_ONE_TET_LENS))
def test_subdivided_lens_spaces_meet_the_surgery_formula(p, q):
    sd = barycentric_subdivision(Triangulation(1, _ONE_TET_LENS[p, q]))
    assert (sd.num_tets, sd.num_edges) == (24, 30)
    # after the spanning forest no face has exactly one unknown edge, so the
    # layout seeds the lowest unknown edge (forcing face -1)
    layout = _layout(sd)
    assert any(fi == -1 for _, fi, _, _ in layout.schedule[layout.num_forest:])
    for n in range(1, 7):
        for k in range(n):
            z = tv_evaluate(pointed_sixj(n, k), sd)
            want = lens_general(twisted_double_cyclic(n, k), p, q).value.conjugate()
            assert abs(z.value - want) <= 1e-12, (n, k)
            assert z.stats["leaves"] == math.gcd(p, n), (n, k)


def _corrupted_pointed():
    sj = pointed_sixj(2, 1)
    key = sj.key_from_triple(1, 1, 0)
    return replace(sj, weights={**sj.weights, key: -sj.weights[key]})


def _non_associative():
    # a * b = -(a + b) mod 3: a Latin square with no unit, all weights 1
    adm = frozenset((a, b, (-a - b) % 3) for a in range(3) for b in range(3))
    sj = SixJData(num_labels=3, qdim=np.ones(3), admissible=adm, weights={})
    return replace(sj, weights={
        sj.key_from_triple(a, b, c): 1.0 + 0.0j
        for a in range(3)
        for b in range(3)
        for c in range(3)
    })


def _non_unitary():
    # the coboundary of f on Z/2 with f(0, 1) = 2, a cocycle of weights 1/2, 1, 2
    sj = pointed_sixj(2, 0)
    f = {(a, b): 2.0 if (a, b) == (0, 1) else 1.0 for a in range(2) for b in range(2)}
    return replace(sj, weights={
        sj.key_from_triple(a, b, c): complex(
            f[(b, c)] * f[(a, (b + c) % 2)] / (f[((a + b) % 2, c)] * f[(a, b)])
        )
        for a in range(2)
        for b in range(2)
        for c in range(2)
    })


@pytest.mark.parametrize(
    "make,pentagon,vertex_move",
    [(_corrupted_pointed, False, True), (_non_associative, True, False),
     (_non_unitary, True, True)],
)
def test_data_without_gauge_invariance_matches_bruteforce(
    make, pentagon, vertex_move, s3_triangulation
):
    sj = make()
    assert sj.pointed
    assert verify_pentagon(sj).passed == pentagon
    tri = pachner_14(s3_triangulation, 0) if vertex_move else s3_triangulation
    z = tv_evaluate(sj, tri)
    assert not z.stats["gauge_fixed"]
    assert abs(z.value - tv_bruteforce(sj, tri)) < 1e-12


# a unit-0 Latin square of order 5 that is not associative: (1 1) 2 = 2 but
# 1 (1 2) = 4, so its labels form a loop and not a group
_LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


def _latin_all_ones(n, op):
    adm = frozenset((a, b, op(a, b)) for a in range(n) for b in range(n))
    sj = SixJData(num_labels=n, qdim=np.ones(n), admissible=adm, weights={})
    return replace(sj, weights={sj.key_from_triple(a, b, c): 1.0 + 0.0j
                                for a in range(n) for b in range(n) for c in range(n)})


@pytest.mark.parametrize("op,n,unit,associative,value", [
    # Z/3 written with unit 2: a o b = a + b + 1; only the unit clause fails
    (lambda a, b: (a + b + 1) % 3, 3, 2, True, 1 / 3),
    # unit 0, not associative; a gauge-fixed sum would give 0.2
    (lambda a, b: _LOOP5[a][b], 5, 0, False, 89 / 625),
], ids=["z3-unit-2", "loop-5"])
def test_each_gauge_gate_clause_matches_bruteforce(op, n, unit, associative, value):
    sj = _latin_all_ones(n, op)
    labels = range(n)
    assert sj.pointed and verify_pentagon(sj).passed
    assert all(op(unit, a) == a == op(a, unit) for a in labels)
    assert associative == all(
        op(op(a, b), c) == op(a, op(b, c)) for a in labels for b in labels for c in labels)
    tri = two_tet_sphere()
    z = tv_evaluate(sj, tri)
    assert not z.stats["gauge_fixed"]
    assert abs(z.value - tv_bruteforce(sj, tri)) < 1e-12
    assert abs(z.value - value) < 1e-12


def test_admissible_label_out_of_range_is_structure_error():
    adm = frozenset([(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 5)])
    with pytest.raises(StructureError, match=r"\(1, 1, 5\).*outside 0\.\.1"):
        SixJData(num_labels=2, qdim=np.ones(2), admissible=adm, weights={})


@pytest.mark.parametrize("qdim,message", [
    ([1.0, np.nan], "qdim must be positive and finite"),
    ([1.0, np.inf], "qdim must be positive and finite"),
    ([1.0, 0.0], "qdim must be positive and finite"),
    ([1.0, -1.0], "qdim must be positive and finite"),
    ([1.0], "qdim must be positive and finite"),
    ([2.0, 1.0], "the vacuum label must have"),
], ids=["nan", "inf", "0.0", "-1.0", "wrong-length", "vacuum-not-1"])
def test_nonpositive_or_nonfinite_dimension_is_structure_error(qdim, message):
    with pytest.raises(StructureError, match=message):
        SixJData(num_labels=2, qdim=np.array(qdim), admissible=frozenset(), weights={})


def test_pentagon_on_a_pair_without_channel_is_unsupported():
    # Z/2 fusion with the (1, 1) channel dropped
    adm = frozenset([(0, 0, 0), (0, 1, 1), (1, 0, 1)])
    sj = SixJData(num_labels=2, qdim=np.ones(2), admissible=adm,
                  weights=dict(pointed_sixj(2, 0).weights))
    assert not sj.pointed
    with pytest.raises(UnsupportedFeatureError, match="Latin-square"):
        verify_pentagon(sj)


def test_pointed_sixj_above_the_label_cap_is_capacity_error():
    with pytest.raises(CapacityError, match=f"Z/{_POINTED_LABEL_CAP + 1} .* cap of "
                                            f"{_POINTED_LABEL_CAP} labels"):
        pointed_sixj(_POINTED_LABEL_CAP + 1, 0)


# ---------------------------------------------------------------------------
# frozen data: the gate is computed once per data set
# ---------------------------------------------------------------------------

def _outcomes(sj, tri):
    """What ``verify_pentagon`` and ``tv_evaluate`` give on ``sj``, or the
    type and message of what they raise."""
    def pentagon():
        rep = verify_pentagon(sj)
        return repr(rep.max_residual), rep.passed, rep.checked

    def evaluate():
        z = tv_evaluate(sj, tri)
        return (repr(z.value), z.method, z.stats["gauge_fixed"],
                z.stats["leaves"], z.stats["visited"], z.stats["pruned"])

    out = []
    for call in (pentagon, evaluate):
        try:
            out.append(call())
        except (StructureError, UnsupportedFeatureError) as exc:
            out.append((type(exc), str(exc)))
    return out


_KEY = (1, 0, 2, 2, 1, 2)  # a, b, c = 1, 2, 2 on Z/3


@pytest.mark.parametrize("statement,error", [
    ("sj.weights[key] = -1.0", TypeError),
    ("del sj.weights[key]", TypeError),
    ("sj.weights.update({key: -1.0})", AttributeError),
    ("sj.weights.setdefault(key, -1.0)", AttributeError),
    ("sj.weights.pop(key)", AttributeError),
    ("sj.weights.popitem()", AttributeError),
    ("sj.weights.clear()", AttributeError),
    ("sj.weights |= {key: -1.0}", TypeError),
    ("sj.weights = {}", FrozenInstanceError),
    ("sj.admissible = frozenset()", FrozenInstanceError),
    ("sj.num_labels = 4", FrozenInstanceError),
    ("sj.qdim = np.ones(3)", FrozenInstanceError),
    ("sj.qdim[0] = 2.0", ValueError),
    ("md.S = md.S.conj()", FrozenInstanceError),
    ("md.T = md.T.conj()", FrozenInstanceError),
    ("md.labels = ('1', 'tau')", FrozenInstanceError),
    ("table.N = -np.ones((2, 2, 2), dtype=np.int64)", FrozenInstanceError),
])
def test_every_former_mutation_route_is_refused(statement, error, s3_triangulation):
    sj = pointed_sixj(3, 1)
    md = fibonacci()
    table = fusion_from_S(md)

    def outcomes():
        return (_outcomes(sj, s3_triangulation), repr(lens_p1(md, 3).value),
                table.unit_ok(), table.N.tobytes())

    before = outcomes()
    with pytest.raises(error):
        exec(statement, {"sj": sj, "md": md, "table": table, "key": _KEY, "np": np})
    assert outcomes() == before


@pytest.mark.parametrize("edit", [
    lambda w: {**w, _KEY: -w[_KEY]},
    lambda w: {**w, _KEY: 1j * w[_KEY]},
    lambda w: {k: v for k, v in w.items() if k != _KEY},
    lambda w: {},
], ids=["negate", "scale", "drop", "empty"])
def test_replaced_weights_give_the_outcomes_of_a_fresh_constructor(edit, s3_triangulation):
    tri = pachner_14(s3_triangulation, 2)
    sj = pointed_sixj(3, 1)
    before = _outcomes(sj, tri)
    weights = edit(sj.weights)
    fresh = SixJData(num_labels=3, qdim=np.ones(3), admissible=sj.admissible,
                     weights=weights, name=sj.name)
    assert _outcomes(replace(sj, weights=weights), tri) == _outcomes(fresh, tri) != before
    assert _outcomes(sj, tri) == before


def test_the_gate_is_reused_while_the_data_is_unchanged(monkeypatch, s3_triangulation):
    import tvo.statesum as statesum

    sj = pointed_sixj(4, 3)
    first = _outcomes(sj, s3_triangulation)

    def refuse(*args):
        raise AssertionError("the gate was recomputed")

    monkeypatch.setattr(statesum, "_pentagon_residual", refuse)
    monkeypatch.setattr(statesum, "_weight_table", refuse)
    assert _outcomes(sj, s3_triangulation) == first
    moved = pachner_23(s3_triangulation, 0, 1)
    assert abs(tv_evaluate(sj, moved).value - 0.25) < 1e-9


def test_a_missing_weight_is_refused_on_every_call(s3_triangulation):
    weights = dict(pointed_sixj(3, 2).weights)
    del weights[_KEY]
    sj = replace(pointed_sixj(3, 2), weights=weights)
    for _ in range(2):
        with pytest.raises(StructureError, match="no 6j weight"):
            verify_pentagon(sj)
        with pytest.raises(StructureError, match="no 6j weight"):
            tv_evaluate(sj, s3_triangulation)


def test_weights_are_a_read_only_copy_of_the_given_dict():
    given = dict(pointed_sixj(2, 1).weights)
    sj = SixJData(num_labels=2, qdim=np.ones(2),
                  admissible=pointed_sixj(2, 1).admissible, weights=given)
    assert sj.weights == given and sj.weights is not given
    given.clear()
    assert len(sj.weights) == 8 and verify_pentagon(sj).passed
