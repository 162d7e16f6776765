from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from tvo import PreconditionError, StructureError, Triangulation, pointed_sixj, tv_evaluate
from tvo.statesum import _layout
from tvo.triangulation import (
    _GLUING, _template, boundary_4_simplex, inverse_perm, pachner_14, pachner_23,
)

from helpers import classes_by_flood_fill, random_pachner_sequence, tv_bruteforce, two_tet_sphere


def counts(tri):
    return (tri.num_tets, tri.num_vertices, tri.num_edges, tri.num_faces)


def assert_matches_oracle(tri):
    oracle = classes_by_flood_fill(tri.num_tets, tri.gluings)
    assert (tri.vertex_class, tri.edge_class, tri.orientation) == oracle


def test_boundary_4_simplex_counts(s3_triangulation):
    tri = s3_triangulation
    assert counts(tri) == (5, 5, 10, 10)
    assert tri.euler_characteristic == 0
    assert tri.is_closed
    tri.validate_closed_manifold()


def test_boundary_4_simplex_orientable(s3_triangulation):
    signs = s3_triangulation.orientation
    assert signs is not None
    assert set(signs) <= {-1, 1}
    assert_matches_oracle(Triangulation(5, s3_triangulation.gluings))


def test_reflected_face_pair_is_not_orientable(s3_triangulation):
    # compose the gluing of face (0, 0) with the transposition of its slots 1
    # and 2, and its reverse gluing with the same transposition on the other
    # side: the face pair is reflected, and the cycles of the dual graph
    # through it ask tetrahedron 0 for both signs
    gluings = dict(s3_triangulation.gluings)
    t2, perm = gluings[(0, 0)]
    reflected = (perm[0], perm[2], perm[1], perm[3])
    gluings[(0, 0)] = (t2, reflected)
    gluings[(t2, perm[0])] = (0, inverse_perm(reflected))
    tri = Triangulation(5, gluings)
    assert tri.orientation is None
    assert_matches_oracle(tri)


def test_two_tet_sphere_counts():
    tri = two_tet_sphere()
    assert counts(tri) == (2, 4, 6, 4)
    assert tri.euler_characteristic == 0
    assert tri.orientation is not None
    assert_matches_oracle(tri)


def test_involution_validation():
    ident = (0, 1, 2, 3)
    with pytest.raises(StructureError):
        # one-sided gluing: reverse entry missing
        Triangulation(2, {(0, 0): (1, ident)})
    swapped = (1, 0, 2, 3)
    with pytest.raises(StructureError):
        # inconsistent reverse permutation
        Triangulation(2, {(0, 0): (1, ident), (1, 0): (0, swapped)})


def test_face_glued_to_itself_rejected():
    with pytest.raises(StructureError):
        Triangulation(1, {(0, 0): (0, (0, 1, 2, 3))})


def test_index_validation():
    with pytest.raises(StructureError):
        Triangulation(1, {(0, 5): (0, (0, 1, 2, 3))})
    with pytest.raises(StructureError):
        Triangulation(1, {(2, 0): (0, (0, 1, 2, 3))})
    with pytest.raises(StructureError):
        Triangulation(2, {(0, 0): (1, (0, 0, 2, 3))})


_IDENT = (0, 1, 2, 3)


@pytest.mark.parametrize("num_tets,gluings,message", [
    (1, {(2, 0): (0, _IDENT)},
     "gluing (2, 0) -> (0, (0, 1, 2, 3)): tetrahedron index out of range"),
    (1, {(0, 0): (3, _IDENT)},
     "gluing (0, 0) -> (3, (0, 1, 2, 3)): tetrahedron index out of range"),
    (1, {(0, 5): (0, _IDENT)}, "gluing (0, 5): face index out of range"),
    (2, {(0, 0): (1, (0, 1, 2))}, "gluing (0, 0): (0, 1, 2) is not a permutation of 0..3"),
    (2, {(0, 0): (1, (0, 1, 2, 3, 4))},
     "gluing (0, 0): (0, 1, 2, 3, 4) is not a permutation of 0..3"),
    (2, {(0, 0): (1, (3, 1, 2, 3))}, "gluing (0, 0): (3, 1, 2, 3) is not a permutation of 0..3"),
    (1, {(0, 0): (0, _IDENT)}, "face (0,0) glued to itself"),
    (2, {(0, 0): (1, _IDENT)},
     "gluing involution broken at tet 0 face 0 "
     "(reverse gluing of tet 1 face 0 missing or inconsistent)"),
    (2, {(0, 0): (1, (1, 0, 2, 3)), (1, 1): (0, (1, 0, 3, 2))},
     "gluing involution broken at tet 0 face 0 "
     "(reverse gluing of tet 1 face 1 missing or inconsistent)"),
    (0, {}, "need at least one tetrahedron"),
], ids=["tet", "partner-tet", "face", "short", "long", "repeat", "self", "one-sided",
        "wrong-inverse", "empty"])
def test_each_gluing_error_message(num_tets, gluings, message):
    with pytest.raises(StructureError) as info:
        Triangulation(num_tets, gluings)
    assert str(info.value) == message


def test_inverse_perm():
    assert inverse_perm((2, 0, 1, 3)) == (1, 2, 0, 3)
    assert inverse_perm((0, 1, 2, 3)) == (0, 1, 2, 3)


def test_open_complex_rejected_for_manifold_checks():
    ident = (0, 1, 2, 3)
    tri = Triangulation(2, {(0, 0): (1, ident), (1, 0): (0, ident)})
    assert not tri.is_closed
    with pytest.raises(StructureError):
        tri.validate_closed_manifold()


def test_closed_complex_off_euler_characteristic_zero_is_not_a_manifold():
    # one tetrahedron, faces swapped in pairs: V - E + F - T = 1 - 3 + 2 - 1
    tri = Triangulation(1, {(0, f): (0, (1, 0, 3, 2)) for f in range(4)})
    assert tri.is_closed and tri.euler_characteristic == -1
    with pytest.raises(StructureError, match="Euler characteristic -1 != 0"):
        tri.validate_closed_manifold()


def test_triangulation_fields_cannot_be_reassigned():
    # a reassigned complex would keep the classes cached from its old gluings
    tri = boundary_4_simplex()
    assert tri.num_vertices == 5
    moved = pachner_14(boundary_4_simplex(), 0)
    for target in (tri, moved):
        for name, value in (("gluings", moved.gluings), ("num_tets", moved.num_tets),
                            ("_carried", None)):
            with pytest.raises(FrozenInstanceError):
                setattr(target, name, value)
    assert (tri.num_tets, tri.num_vertices) == (5, 5)
    assert (moved.num_tets, moved.num_vertices) == (8, 6)


def test_pachner_14_counts(s3_triangulation):
    out = pachner_14(s3_triangulation, 0)
    assert counts(out) == (8, 6, 14, 16)
    assert out.euler_characteristic == 0
    out.validate_closed_manifold()
    assert out.orientation is not None


def test_pachner_23_counts_every_face(s3_triangulation):
    for (t, f) in s3_triangulation.face_classes:
        out = pachner_23(s3_triangulation, t, f)
        assert out.num_tets == 6
        assert out.num_vertices == 5
        assert out.num_edges == s3_triangulation.num_edges + 1
        assert out.euler_characteristic == 0
        out.validate_closed_manifold()
        assert out.orientation is not None


def test_pachner_14_on_self_adjacent_tet():
    # a 2-3 move on the two-tet sphere produces tets glued to themselves
    # along two different faces; a 1-4 there must still give a valid complex
    moved = pachner_23(two_tet_sphere(), 0, 0)
    target = next(t for (t, f), (t2, _) in moved.gluings.items() if t == t2)
    out = pachner_14(moved, target)
    assert out.num_tets == moved.num_tets + 3
    assert out.euler_characteristic == 0
    out.validate_closed_manifold()


def test_pachner_14_on_self_glued_tet():
    # the two-tet sphere's tets are glued to each other on all faces; do a
    # 1-4 inside and check the result stays a valid closed manifold
    tri = two_tet_sphere()
    out = pachner_14(tri, 0)
    assert counts(out)[0] == 5
    assert out.euler_characteristic == 0
    out.validate_closed_manifold()


def test_pachner_23_needs_distinct_tets():
    # after a 1-4 on a single tetrahedron complex... build a self-adjacent
    # case: two-tet sphere has distinct tets everywhere, so fabricate the
    # error by asking for a face of a tet glued to itself via a 3-tet chain
    tri = two_tet_sphere()
    # all faces join distinct tets here; the error path needs t == t2, so
    # construct it directly from a moved complex
    moved = pachner_23(tri, 0, 0)
    found_self = None
    for (t, f), (t2, _) in moved.gluings.items():
        if t == t2:
            found_self = (t, f)
            break
    if found_self is None:
        pytest.skip("no self-adjacent face in this complex")
    with pytest.raises(PreconditionError):
        pachner_23(moved, *found_self)


def test_pachner_23_invalid_face(s3_triangulation):
    with pytest.raises(StructureError):
        pachner_23(s3_triangulation, 17, 0)


def test_pachner_14_invalid_tet(s3_triangulation):
    with pytest.raises(StructureError):
        pachner_14(s3_triangulation, 17)


def test_random_move_sequences_stay_valid(s3_triangulation):
    rng = np.random.default_rng(11)
    tri, applied = random_pachner_sequence(s3_triangulation, 20, rng, max_new_vertices=3)
    assert len(applied) == 20
    tri.validate_closed_manifold()
    assert tri.euler_characteristic == 0
    assert tri.orientation is not None
    kinds = {kind for kind, _ in applied}
    assert "2-3" in kinds


def test_pachner_23_gluing_order_on_two_tet_sphere():
    # every outer face of the two tetrahedra is glued back into the region,
    # so the new tetrahedra end up glued to themselves; the item order is
    # what random walks draw from
    ident, swap01, swap23 = (0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2)
    assert list(pachner_23(two_tet_sphere(), 0, 0).gluings.items()) == [
        ((0, 2), (1, ident)),
        ((0, 3), (2, swap23)),
        ((1, 2), (0, ident)),
        ((1, 3), (2, ident)),
        ((2, 2), (0, swap23)),
        ((2, 3), (1, ident)),
        ((0, 1), (0, swap01)),
        ((0, 0), (0, swap01)),
        ((1, 1), (1, swap01)),
        ((1, 0), (1, swap01)),
        ((2, 1), (2, swap01)),
        ((2, 0), (2, swap01)),
    ]


def test_seeded_walk_is_pinned(s3_triangulation):
    tri, applied = random_pachner_sequence(
        s3_triangulation, 40, np.random.default_rng(11), max_new_vertices=3
    )
    assert applied == [
        ("1-4", 3), ("2-3", (4, 2)), ("1-4", 4), ("2-3", (1, 1)), ("1-4", 7),
        ("2-3", (3, 3)), ("2-3", (14, 2)), ("2-3", (16, 3)), ("2-3", (14, 2)),
        ("2-3", (4, 1)), ("2-3", (4, 0)), ("2-3", (12, 3)), ("2-3", (6, 3)),
        ("2-3", (3, 0)), ("2-3", (16, 2)), ("2-3", (5, 1)), ("2-3", (1, 1)),
        ("2-3", (11, 3)), ("2-3", (5, 1)), ("2-3", (6, 0)), ("2-3", (8, 0)),
        ("2-3", (16, 0)), ("2-3", (4, 1)), ("2-3", (9, 3)), ("2-3", (1, 3)),
        ("2-3", (25, 3)), ("2-3", (35, 3)), ("2-3", (32, 3)), ("2-3", (33, 3)),
        ("2-3", (7, 2)), ("2-3", (28, 1)), ("2-3", (27, 3)), ("2-3", (12, 2)),
        ("2-3", (12, 1)), ("2-3", (3, 0)), ("2-3", (19, 2)), ("2-3", (41, 3)),
        ("2-3", (3, 0)), ("2-3", (28, 2)), ("2-3", (26, 3)),
    ]
    assert (tri.num_tets, tri.num_vertices, tri.num_edges) == (51, 8, 59)


def classes(tri):
    for rows in (tri.vertex_class, tri.edge_class):
        # ids are numbered by first appearance in corner order
        top = -1
        for c in (c for row in rows for c in row):
            assert c <= top + 1
            top = max(top, c)
    return tri.vertex_class, tri.edge_class, tri.num_vertices, tri.num_edges


def walk_step(tri, rng, distinct_apexes):
    """One seeded move: a 1-4 move one time in ten, else a 2-3 move on a face
    between two tetrahedra (with distinct apex classes if asked)."""
    if rng.random() < 0.1:
        return pachner_14(tri, int(rng.integers(tri.num_tets)))
    vclass = tri.vertex_class
    faces = [
        (t, f) for (t, f), (t2, perm) in tri.gluings.items()
        if t2 != t and (not distinct_apexes or vclass[t][f] != vclass[t2][perm[f]])
    ]
    return pachner_23(tri, *faces[int(rng.integers(len(faces)))])


def test_carried_classes_match_recomputation_along_a_walk():
    # the moves derive the classes from the parent's; a fresh complex on the
    # same gluings re-validates them and recomputes the classes by union-find.
    # With the degenerate chains below the walks make 1000 checked moves.
    rng = np.random.default_rng(23)
    sixjs = [pointed_sixj(2, 1), pointed_sixj(3, 1)]
    tri = boundary_4_simplex()
    kinds = set()
    for step in range(1, 301):
        before = tri.num_tets
        tri = walk_step(tri, rng, distinct_apexes=True)
        kinds.add(tri.num_tets - before)
        fresh = Triangulation(tri.num_tets, tri.gluings)
        assert classes(tri) == classes(fresh), step
        if step % 10 == 0:
            assert_matches_oracle(fresh)
        if step in (50, 150, 300):
            for sixj in sixjs:
                assert tv_evaluate(sixj, tri).value == tv_evaluate(sixj, fresh).value
    assert kinds == {1, 3}


def test_carried_classes_match_recomputation_on_degenerate_flips():
    # from the two-tet sphere every face joins the same two tetrahedra, so the
    # flips glue new tetrahedra to themselves and 2-3 apexes may share a class
    rng = np.random.default_rng(29)
    for chain in range(14):
        tri = two_tet_sphere()
        for step in range(50):
            tri = walk_step(tri, rng, distinct_apexes=False)
            fresh = Triangulation(tri.num_tets, tri.gluings)
            assert classes(tri) == classes(fresh), (chain, step)
            assert tri.euler_characteristic == 0
            if step % 5 == 4:
                assert_matches_oracle(fresh)


def assert_read_classes_match(tri, sixjs=()):
    """Read the classes of a flipped complex and compare them with a fresh
    complex on its gluings, with the oracle and, for ``sixjs``, by state sum."""
    # the edge ids carried since the last read are numbered now
    assert "edge_class" not in tri.__dict__
    fresh = Triangulation(tri.num_tets, tri.gluings)
    assert classes(tri) == classes(fresh)
    assert_matches_oracle(tri)
    for sixj in sixjs:
        assert tv_evaluate(sixj, tri).value == tv_evaluate(sixj, fresh).value


def test_edge_ids_carried_across_unread_moves_are_numbered_on_read():
    # the other carried-class tests read the edge classes after every move;
    # here only every k-th complex of a walk is read, so the edge ids of the
    # others are carried unnumbered through up to k - 1 flips
    rng = np.random.default_rng(41)
    sixjs = [pointed_sixj(2, 1), pointed_sixj(3, 2)]
    tri = boundary_4_simplex()
    for step in range(1, 241):
        if step in (30, 90, 170):
            tri = pachner_14(tri, int(rng.integers(tri.num_tets)))
        else:
            tri, _ = random_pachner_sequence(tri, 1, rng, max_new_vertices=0)
        if step % 40 == 0:
            assert_read_classes_match(tri, sixjs)
    assert tri.num_vertices == 8
    for chain in range(6):
        tri = two_tet_sphere()
        for step in range(1, 61):
            tri = walk_step(tri, rng, distinct_apexes=False)
            if step % 12 == 0:
                assert_read_classes_match(tri)
                assert tri.euler_characteristic == 0


def test_moved_complexes_number_their_classes_only_when_read(s3_triangulation):
    # a flip stores the carried ids; vertex_class and edge_class stay unset
    # until read, and then equal the recomputed classes
    for tri in (pachner_14(s3_triangulation, 2), pachner_23(s3_triangulation, 0, 1)):
        assert "vertex_class" not in tri.__dict__ and "edge_class" not in tri.__dict__
        counts = (tri.num_vertices, tri.num_edges)
        assert "vertex_class" not in tri.__dict__ and "edge_class" not in tri.__dict__
        fresh = Triangulation(tri.num_tets, tri.gluings)
        assert (tri.vertex_class, tri.edge_class) == (fresh.vertex_class, fresh.edge_class)
        assert counts == (fresh.num_vertices, fresh.num_edges)


def test_walk_without_a_legal_2_3_move_is_refused():
    # every face of the two-tet sphere joins corners of one vertex class
    with pytest.raises(PreconditionError, match="no legal 2-3 move available"):
        random_pachner_sequence(two_tet_sphere(), 1, np.random.default_rng(0),
                                max_new_vertices=0)


def test_flip_templates_stay_bounded_and_do_not_change_the_walk():
    # the templates depend on the slot tokens alone: one 1-4 shape and one
    # 2-3 shape per (face, gluing permutation), so at most 97
    def walk():
        tri, applied = random_pachner_sequence(
            boundary_4_simplex(), 150, np.random.default_rng(43), max_new_vertices=4)
        return applied, list(tri.gluings.items())

    _template.cache_clear()
    cold = walk()
    assert _template.cache_info().currsize > 1
    assert walk() == cold
    random_pachner_sequence(boundary_4_simplex(), 600, np.random.default_rng(47))
    rng = np.random.default_rng(53)
    for chain in range(10):
        tri = two_tet_sphere()
        for _ in range(30):
            tri = walk_step(tri, rng, distinct_apexes=False)
    assert _template.cache_info().currsize <= 97


def test_moves_read_indices_as_integers(s3_triangulation):
    tri = s3_triangulation
    for move, args, message in [
        (pachner_14, (1.5,), "tetrahedron index 1.5 is not an integer"),
        (pachner_14, (2.0,), "tetrahedron index 2.0 is not an integer"),
        (pachner_23, (1.0, 1), "tetrahedron index 1.0 is not an integer"),
        (pachner_23, (1, 2.0), "face index 2.0 is not an integer"),
    ]:
        with pytest.raises(StructureError) as info:
            move(tri, *args)
        assert str(info.value) == message
    for moved, expected in [
        (pachner_14(tri, np.int64(2)), pachner_14(tri, 2)),
        (pachner_23(tri, np.int32(1), np.uint8(1)), pachner_23(tri, 1, 1)),
    ]:
        assert list(moved.gluings.items()) == list(expected.gluings.items())
        assert all(type(x) is int for (t, f), (t2, _) in moved.gluings.items() for x in (t, f, t2))
        assert classes(moved) == classes(expected)


def test_flip_validates_the_faces_it_writes(s3_triangulation):
    # a corrupt outer gluing of the flipped tetrahedron reaches only the
    # faces the move writes; their check must still refuse it
    tri = Triangulation(s3_triangulation.num_tets, s3_triangulation.gluings)
    corrupt = dict(tri.gluings)
    t2, _ = corrupt[(0, 1)]
    corrupt[(0, 1)] = (t2, (0, 0, 2, 3))
    object.__setattr__(tri, "gluings", corrupt)  # past the read-only view
    with pytest.raises(StructureError, match="not a permutation"):
        pachner_14(tri, 0)


def test_gluings_are_read_only(s3_triangulation):
    # a frozen complex whose gluings could be cleared and refilled would keep
    # num_tets and cached classes that no longer describe them
    for tri in (Triangulation(s3_triangulation.num_tets, s3_triangulation.gluings),
                pachner_14(s3_triangulation, 0)):
        before = dict(tri.gluings)
        with pytest.raises(AttributeError):
            tri.gluings.clear()
        with pytest.raises(TypeError):
            tri.gluings[(0, 0)] = before[(0, 1)]
        with pytest.raises(TypeError):
            del tri.gluings[(0, 0)]
        assert tri.gluings == before


def relabelled(tri, rng):
    """``tri`` with the slots of each tetrahedron t renamed by a random
    permutation sigma_t: slot v becomes sigma_t[v], so the gluing
    (t, f) -> (t2, perm) becomes (t, sigma_t[f]) -> (t2, sigma_t2 perm sigma_t^-1)."""
    sigma = [tuple(int(v) for v in rng.permutation(4)) for _ in range(tri.num_tets)]
    gluings = {}
    for (t, f), (t2, perm) in tri.gluings.items():
        image = [0] * 4
        for v in range(4):
            image[sigma[t][v]] = sigma[t2][perm[v]]
        gluings[(t, sigma[t][f])] = (t2, tuple(image))
    return Triangulation(tri.num_tets, gluings)


def test_relabelled_walks_reach_every_gluing_table_entry(s3_triangulation):
    # walks keep the slot conventions of the moves and reach 76 of the 96
    # (face, permutation) entries; random slot names reach them all
    rng = np.random.default_rng(37)
    sixjs = [pointed_sixj(2, 1), pointed_sixj(3, 1)]
    tri = s3_triangulation
    seen = set()
    for _ in range(6):
        tri, _ = random_pachner_sequence(tri, 4, rng, max_new_vertices=2)
        moved = relabelled(tri, rng)
        seen |= {(f, perm) for (_, f), (_, perm) in moved.gluings.items()}
        assert (moved.num_vertices, moved.num_edges) == (tri.num_vertices, tri.num_edges)
        assert_matches_oracle(moved)
        for sixj in sixjs:
            z = tv_evaluate(sixj, moved).value
            assert abs(z - 1 / sixj.num_labels) < 1e-9
    assert seen == set(_GLUING)
    assert len(seen) == 96


def disjoint_union(*tris):
    """The complex whose components are ``tris``, tetrahedra numbered in turn."""
    gluings, base = {}, 0
    for tri in tris:
        for (t, f), (t2, perm) in tri.gluings.items():
            gluings[(base + t, f)] = (base + t2, perm)
        base += tri.num_tets
    return Triangulation(base, gluings)


def reflected_s3():
    """The boundary of the 4-simplex with the face pair of (0, 0) reflected: not orientable."""
    gluings = dict(boundary_4_simplex().gluings)
    t2, perm = gluings[(0, 0)]
    reflected = (perm[0], perm[2], perm[1], perm[3])
    gluings[(0, 0)] = (t2, reflected)
    gluings[(t2, perm[0])] = (0, inverse_perm(reflected))
    return Triangulation(5, gluings)


def test_two_component_classes_and_orientation_match_oracle():
    s3 = boundary_4_simplex()
    union = disjoint_union(s3, s3)
    assert counts(union) == (10, 10, 20, 20)
    assert union.euler_characteristic == 0
    assert_matches_oracle(union)
    # the smallest tetrahedron of each component is signed +1
    assert union.orientation[0] == union.orientation[5] == 1
    assert union.face_classes == s3.face_classes + [(t + 5, f) for t, f in s3.face_classes]
    for mixed in (disjoint_union(boundary_4_simplex(), reflected_s3()),
                  disjoint_union(reflected_s3(), boundary_4_simplex())):
        assert mixed.orientation is None
        assert_matches_oracle(mixed)


def test_two_component_state_sum_is_gauge_fixed_per_component():
    union = disjoint_union(boundary_4_simplex(), boundary_4_simplex())
    assert _layout(union).num_components == 2
    for n in (2, 3, 4):
        for k in range(n):
            z = tv_evaluate(pointed_sixj(n, k), union)
            assert z.stats["gauge_fixed"] and z.stats["leaves"] == 1
            assert z.value == 1 / n**2, (n, k)
    # the brute-force sum over all 2^20 edge colorings
    sj = pointed_sixj(2, 1)
    assert abs(tv_evaluate(sj, union).value - tv_bruteforce(sj, union)) < 1e-12


@pytest.mark.parametrize("gluings", [
    {(0, 0): (1, (0, 1, 2, 3)), (1, 0): (0, (0, 1, 2, 3))},
    {(0, 0): (1, (1, 0, 2, 3)), (1, 1): (0, (1, 0, 2, 3)),
     (0, 2): (1, (0, 1, 3, 2)), (1, 3): (0, (0, 1, 3, 2))},
], ids=["one-face", "two-faces"])
def test_open_complex_classes_match_oracle(gluings):
    tri = Triangulation(2, gluings)
    assert not tri.is_closed
    vclass, eclass, _ = classes_by_flood_fill(2, tri.gluings)
    assert (tri.vertex_class, tri.edge_class) == (vclass, eclass)
    assert tri.num_vertices == len({c for row in vclass for c in row})
    with pytest.raises(StructureError, match="unglued faces"):
        tri.orientation
    with pytest.raises(StructureError, match="unglued faces"):
        tri.face_classes


def test_non_integer_indices_are_refused(s3_triangulation):
    floated = {(float(t), f): glued for (t, f), glued in s3_triangulation.gluings.items()}
    with pytest.raises(StructureError, match=r"gluing \(0\.0, 0\) -> .*integers"):
        Triangulation(5, floated)
    ident = (0, 1, 2, 3)
    halves = {(0, 0): (1, (0, 1.5, 2.5, 3.5)), (1, 0): (0, ident)}
    with pytest.raises(StructureError, match=r"gluing \(0, 0\) -> \(1, \(0, 1\.5, 2\.5, 3\.5\)\)"):
        Triangulation(2, halves)
    with pytest.raises(StructureError, match="tetrahedron count 5.0 is not an integer"):
        Triangulation(5.0, s3_triangulation.gluings)


def test_numpy_integer_indices_are_read_as_ints(s3_triangulation):
    gluings = {
        (np.int64(t), np.int8(f)): (np.int32(t2), np.array(perm))
        for (t, f), (t2, perm) in s3_triangulation.gluings.items()
    }
    tri = Triangulation(np.int64(5), gluings)
    assert type(tri.num_tets) is int
    assert list(tri.gluings.items()) == list(s3_triangulation.gluings.items())
    assert all(type(x) is int for (t, f), (t2, perm) in tri.gluings.items()
               for x in (t, f, t2, *perm))
    assert_matches_oracle(tri)
