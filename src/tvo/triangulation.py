"""Tetrahedral gluing complexes and the 1-4 / 2-3 bistellar moves.

A triangulation is a set of abstract tetrahedra with faces glued in pairs.
Tetrahedron vertices carry local slots 0..3; face f is the face opposite
slot f. A gluing of face (t, f) is stored as ``gluings[(t, f)] = (t2, perm)``
where ``perm`` is a permutation of {0,1,2,3} with ``perm[f]`` the glued face
of t2 and ``perm[v]`` the image slot of each face vertex v != f. The reverse
gluing with the inverse permutation is always stored too, and a face is
never glued to itself.

Vertex, edge and face classes are the equivalence classes generated by the
gluings; they are computed once and cached (instances are immutable by
convention). The constructor validates every gluing. The classes and the
orientation read a gluing table, keyed by (face, permutation), and the state
sum reads a rank table, keyed by vertex-class order; both are built at import.

Both moves are bistellar flips on five vertices, written as token tuples:
each removed and each new tetrahedron names the vertex token in each of its
slots, and one routine, ``_flip``, glues the new tetrahedra to each other and
to the rest of the complex by matching the token sets of faces. A flip
builds its result without the constructor: it re-validates only the gluings
it writes, and it carries the vertex and edge classes forward from the
parent's, numbered as a recomputation would number them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, islice, permutations
from operator import itemgetter

from .errors import PreconditionError, StructureError

#: the six local edges of a tetrahedron in a fixed order
TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def inverse_perm(perm):
    inv = [0, 0, 0, 0]
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def _tables():
    """The gluing table, keyed by ``(f, perm)``, and the rank table, keyed by
    a tetrahedron's slots in increasing vertex-class order.

    A gluing entry holds the three corner pairs and the three local-edge pairs
    it identifies, and o(t2) / o(t), which the sign rule of ``orientation``
    makes -sign(perm): perm has f + f2 inversions through slot f, mod 2. A
    rank entry holds a getter of the three edge slots between consecutive
    ranks (01, 12, 23), the order's sign, and per face a getter of its
    (low-mid, mid-high, low-high) edge slots.
    """
    perms = list(permutations(range(4)))
    sign = {p: (-1) ** sum(x > y for x, y in combinations(p, 2)) for p in perms}

    def edge(a, b):
        return TET_EDGES.index((min(a, b), max(a, b)))

    gluing, rank = {}, {}
    for perm in perms:
        for f in range(4):
            face = [v for v in range(4) if v != f]
            gluing[f, perm] = (
                tuple((v, perm[v]) for v in face),
                tuple((edge(a, b), edge(perm[a], perm[b])) for a, b in combinations(face, 2)),
                -sign[perm],
            )
        faces = ([v for v in perm if v != f] for f in range(4))
        rank[perm] = (
            itemgetter(*(edge(a, b) for a, b in zip(perm, perm[1:]))),
            sign[perm],
            tuple(itemgetter(edge(x, y), edge(y, z), edge(x, z)) for x, y, z in faces),
        )
    return gluing, rank


_GLUING, _RANK = _tables()


def _components(size, pairs):
    """Component ids of the slots 0..size-1 joined by ``pairs``, numbered by
    first appearance, their count, and the indices of the pairs that joined
    two components (a spanning forest). Unions link to the smaller root, so
    no parent exceeds its slot and one forward pass numbers the slots.
    """
    parent = list(range(size))
    joined = []
    for i, (a, b) in enumerate(pairs):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a > b:
            a, b = b, a
        if a < b:
            parent[b] = a
            joined.append(i)
    ids, roots = [], 0
    for x, p in enumerate(parent):
        ids.append(roots if p == x else ids[p])
        roots += p == x
    return ids, roots, joined


def _check_gluing(gluings: dict, num_tets: int, key):
    """Raise unless gluing ``key`` is in range, glues by a permutation of
    0..3, does not glue a face to itself and is stored with its reverse."""
    t, f = key
    t2, perm = gluings[key]
    if not (0 <= t < num_tets and 0 <= t2 < num_tets):
        raise StructureError(f"gluing {key} -> {(t2, perm)}: tetrahedron index out of range")
    if not (0 <= f < 4):
        raise StructureError(f"gluing {key}: face index out of range")
    if sorted(perm) != [0, 1, 2, 3]:
        raise StructureError(f"gluing {key}: {perm} is not a permutation of 0..3")
    f2 = perm[f]
    if (t2, f2) == key:
        raise StructureError(f"face ({t},{f}) glued to itself")
    back = gluings.get((t2, f2))
    if back is None or back != (t, inverse_perm(perm)):
        raise StructureError(
            f"gluing involution broken at tet {t} face {f} "
            f"(reverse gluing of tet {t2} face {f2} missing or inconsistent)"
        )


def _by_first_appearance(rows):
    """Class ids renumbered by first appearance in row order, and their count.

    This is the numbering ``_components`` gives over the same slots.
    The rows before the first appearance of the first id that changes keep
    only unchanged ids and are returned as they are.
    """
    flat = list(chain.from_iterable(rows))
    order = list(dict.fromkeys(flat))
    moved = next((i for i, c in enumerate(order) if i != c), len(order))
    if moved == len(order):
        return rows, len(order)
    first = flat.index(order[moved]) // len(rows[0])
    index = {c: i for i, c in enumerate(order)}
    return rows[:first] + [list(map(index.__getitem__, row)) for row in rows[first:]], len(order)


@dataclass
class Triangulation:
    """A gluing complex on ``num_tets`` tetrahedra.

    ``gluings`` may leave faces unglued while building by hand, but the
    derived quantities and the state sum require a closed complex. The
    constructor validates indices, the involution property, and that no
    face is glued to itself.
    """

    num_tets: int
    gluings: dict

    def __post_init__(self):
        if self.num_tets < 1:
            raise StructureError("need at least one tetrahedron")
        self.gluings = {
            (t, f): (t2, tuple(map(int, perm)))
            for (t, f), (t2, perm) in self.gluings.items()
        }
        for key in self.gluings:
            _check_gluing(self.gluings, self.num_tets, key)

    # -- derived combinatorics ------------------------------------------------

    @property
    def is_closed(self) -> bool:
        return len(self.gluings) == 4 * self.num_tets

    def require_closed(self):
        if not self.is_closed:
            unglued = ((t, f) for t in range(self.num_tets) for f in range(4)
                       if (t, f) not in self.gluings)
            raise StructureError(f"triangulation has unglued faces, e.g. {list(islice(unglued, 3))}")

    def _classes(self, width, part):
        """Rows of class ids of the ``width`` slots per tetrahedron and their
        count, joining entry ``part`` of the gluing table once per face pair."""
        flat, count, _ = _components(width * self.num_tets, [
            (width * t + x, width * t2 + y)
            for (t, f), (t2, perm) in self.gluings.items() if (t, f) < (t2, perm[f])
            for x, y in _GLUING[f, perm][part]
        ])
        return [flat[width * t : width * t + width] for t in range(self.num_tets)], count

    @cached_property
    def vertex_class(self):
        """vertex_class[t][v] = id of the vertex equivalence class of corner (t, v)."""
        rows, self._num_vertices = self._classes(4, 0)
        return rows

    @cached_property
    def edge_class(self):
        """edge_class[t][e] = class id of local edge TET_EDGES[e] of tet t."""
        rows, self._num_edges = self._classes(6, 1)
        return rows

    @property
    def num_vertices(self) -> int:
        self.vertex_class
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        self.edge_class
        return self._num_edges

    @property
    def num_faces(self) -> int:
        glued = len(self.gluings) // 2
        return 4 * self.num_tets - glued

    @property
    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_faces - self.num_tets

    @cached_property
    def face_classes(self):
        """One representative (t, f) per face class of a closed complex: the
        smaller key of each glued pair, in increasing order."""
        self.require_closed()
        return sorted([key for key, (t2, perm) in self.gluings.items() if key < (t2, perm[key[1]])])

    @cached_property
    def orientation(self):
        """Per-tetrahedron signs making all gluings orientation-reversing on faces.

        Seeded at tetrahedron 0 with +1. Returns None for non-orientable
        complexes. The sign rule for a gluing (t,f) -> (t2,f2) with slot map
        perm is o(t2) = -o(t) * (-1)^(f+f2) * sign(sort(images of the sorted
        face vertices)), which the gluing table holds as one factor.
        """
        self.require_closed()
        signs = [0] * self.num_tets
        for start in range(self.num_tets):
            if signs[start]:
                continue
            signs[start] = 1
            stack = [start]
            while stack:
                t = stack.pop()
                for f in range(4):
                    t2, perm = self.gluings[t, f]
                    needed = signs[t] * _GLUING[f, perm][2]
                    if signs[t2] == 0:
                        signs[t2] = needed
                        stack.append(t2)
                    elif signs[t2] != needed:
                        return None
        return signs

    def validate_closed_manifold(self):
        """Closed-complex invariants: every face glued, Euler characteristic 0."""
        self.require_closed()
        chi = self.euler_characteristic
        if chi != 0:
            raise StructureError(f"Euler characteristic {chi} != 0; not a closed 3-manifold")


def boundary_4_simplex() -> Triangulation:
    """The boundary of the 4-simplex: 5 tetrahedra triangulating the 3-sphere.

    Tetrahedron i spans the global vertices {0..4} minus {i}, in increasing
    order; tets i and j are glued along the face omitting both.
    """
    gluings = {}
    _glue_by_tokens(gluings, 0, [tuple(g for g in range(5) if g != i) for i in range(5)])
    return Triangulation(5, gluings)


def _face(tokens, g):
    return frozenset(tokens) - {tokens[g]}


def _slot_map(src, g, dst, h):
    """Slots of ``src`` onto ``dst`` by token, face slot g onto face slot h."""
    return tuple(h if v == g else dst.index(src[v]) for v in range(4))


def _glue_by_tokens(gluings: dict, base: int, tets: list) -> dict:
    """Glue tetrahedra ``base + i``, with the slot tokens ``tets[i]``, to each
    other wherever two faces have the same token set, writing ``gluings`` by
    (tetrahedron, face). Returns each face token set's list of (i, face)."""
    spans = {}
    for i, tokens in enumerate(tets):
        for g in range(4):
            spans.setdefault(_face(tokens, g), []).append((i, g))
    for i, tokens in enumerate(tets):
        for g in range(4):
            for j, h in spans[_face(tokens, g)]:
                if j != i:
                    gluings[(base + i, g)] = (base + j, _slot_map(tokens, g, tets[j], h))
    return spans


def _flip(tri: Triangulation, old: dict, new: list) -> Triangulation:
    """Replace the tetrahedra ``old`` by ``new``, all spanning the same vertex tokens.

    ``old`` maps each removed tetrahedron to the tokens of its slots 0..3 and
    ``new`` lists the slot tokens of each new tetrahedron. Two new faces with
    the same token set are glued to each other; a new face whose tokens span
    a face of an old tetrahedron takes over that face's gluing, also when it
    was glued back into ``old``; the remaining old faces are interior and
    disappear. Surviving tetrahedra keep their order and the new ones follow.
    Gluings are written untouched first, then the internal faces by (new tet,
    face), then the outer faces by (new tet, position of the old tet in
    ``old``). Only the new tetrahedra's gluings and the reverse gluings
    written on survivors are checked; the rest were valid in ``tri``.
    """
    keep = [s for s in range(tri.num_tets) if s not in old]
    remap = {s: i for i, s in enumerate(keep)}
    base = len(keep)
    gluings = {
        (remap[s], g): (remap[s2], perm)
        for (s, g), (s2, perm) in tri.gluings.items()
        if s in remap and s2 in remap
    }
    spans = _glue_by_tokens(gluings, base, new)

    outer = {}  # old face -> (new tet, new face, new-slot -> old-slot map)
    rewritten = []  # reverse gluings written on surviving tetrahedra
    for i, tokens in enumerate(new):
        for s, old_tokens in old.items():
            for g in range(4):
                span = _face(tokens, g)
                if len(spans[span]) == 1 and span <= set(old_tokens):
                    f = next(v for v in range(4) if old_tokens[v] not in span)
                    outer[(s, f)] = (base + i, g, _slot_map(tokens, g, old_tokens, f))

    for (s, f), (i, g, sigma) in outer.items():
        s2, rho = tri.gluings[(s, f)]
        if (s2, rho[f]) in outer:
            j, _, tau = outer[(s2, rho[f])]
            perm = tuple(tau.index(rho[sigma[x]]) for x in range(4))
        else:
            j, perm = remap[s2], tuple(rho[sigma[x]] for x in range(4))
        gluings[(i, g)] = (j, perm)
        gluings[(j, perm[g])] = (i, inverse_perm(perm))
        if j < base:
            rewritten.append((j, perm[g]))

    out = object.__new__(Triangulation)
    out.num_tets, out.gluings = base + len(new), gluings
    if not out.is_closed:
        raise StructureError("bistellar flip left faces unglued")
    for key in [(t, g) for t in range(base, out.num_tets) for g in range(4)] + rewritten:
        _check_gluing(gluings, out.num_tets, key)
    _carry_classes(tri, out, old, new, keep)
    return out


def _carry_classes(tri: Triangulation, out: Triangulation, old: dict, new: list, keep: list):
    """Give ``out``, the flip of ``tri``, vertex and edge classes derived from the parent's.

    A flip keeps every vertex and edge class of the parent: a token, or a
    pair of tokens, of a new tetrahedron lies in the class of the old corner
    or edge it spans, and the tokens or pairs that no old tetrahedron spans
    (the 1-4 apex and its edges, the 2-3 edge between the apexes) are new
    classes. Surviving tetrahedra keep their rows; ids are then renumbered
    by first appearance, so they equal a recomputation from the gluings.
    Rows that the renumbering leaves alone are shared with the parent.
    """
    vclass, eclass = tri.vertex_class, tri.edge_class
    vertex, edge = {}, {}  # token -> vertex class, token pair -> edge class
    for s, tokens in old.items():
        for v in range(4):
            vertex[tokens[v]] = vclass[s][v]
        for e, (a, b) in enumerate(TET_EDGES):
            edge[frozenset((tokens[a], tokens[b]))] = eclass[s][e]
    vertex_rows = [vclass[s] for s in keep]
    edge_rows = [eclass[s] for s in keep]
    for tokens in new:
        for x in tokens:
            if x not in vertex:
                vertex[x] = tri.num_vertices + len(vertex)
        vertex_rows.append([vertex[x] for x in tokens])
        pairs = [frozenset((tokens[a], tokens[b])) for a, b in TET_EDGES]
        for pair in pairs:
            if pair not in edge:
                edge[pair] = tri.num_edges + len(edge)
        edge_rows.append([edge[pair] for pair in pairs])
    out.vertex_class, out._num_vertices = _by_first_appearance(vertex_rows)
    out.edge_class, out._num_edges = _by_first_appearance(edge_rows)


def pachner_14(tri: Triangulation, t: int) -> Triangulation:
    """Replace tetrahedron ``t`` by four around a new interior vertex.

    The four new tetrahedra B_f keep the slot names of ``t`` except that
    slot f holds the new vertex; B_f inherits the old gluing of face (t, f).
    Adds 3 tetrahedra and 1 vertex.
    """
    tri.require_closed()
    if not 0 <= t < tri.num_tets:
        raise StructureError(f"no tetrahedron {t}")
    new = [tuple(4 if v == f else v for v in range(4)) for f in range(4)]
    return _flip(tri, {t: (0, 1, 2, 3)}, new)


def pachner_23(tri: Triangulation, t: int, f: int) -> Triangulation:
    """Replace the two tetrahedra sharing face (t, f) by three around a new edge.

    The named face must join two distinct tetrahedra. Adds 1 tetrahedron and
    1 edge. The new tetrahedron C_v (one per vertex v of the shared face)
    has slot 0 at the apex of t, slot 1 at the apex of the partner, and
    slots 2, 3 at the remaining two shared vertices in increasing t-slot
    order.
    """
    tri.require_closed()
    if (t, f) not in tri.gluings:
        raise StructureError(f"no face ({t},{f})")
    t2, pi = tri.gluings[(t, f)]
    if t2 == t:
        raise PreconditionError("2-3 move needs the face to join two distinct tetrahedra")
    shared = [v for v in range(4) if v != f]
    partner = [4] * 4  # tokens are the slots of t, and 4 for the apex of t2
    for v in shared:
        partner[pi[v]] = v
    new = [(f, 4, *(w for w in shared if w != v)) for v in shared]
    return _flip(tri, {t: (0, 1, 2, 3), t2: tuple(partner)}, new)


def random_pachner_walk(tri, count, rng, max_new_vertices=3, p_vertex_move=0.25):
    """Apply ``count`` random 1-4 / 2-3 moves, keeping tetrahedra class-distinct.

    Each step is a 1-4 move on a uniformly drawn tetrahedron with
    probability ``p_vertex_move`` while fewer than ``max_new_vertices`` have
    been applied, else a 2-3 move on a uniformly drawn face whose two apex
    vertex classes differ, so every tetrahedron keeps four distinct vertex
    classes and the result stays evaluable by the state sum. ``rng`` is a
    ``numpy.random.Generator``; its draws depend only on the complex, so a
    seed fixes the walk. Returns the final complex and the list of applied
    moves, ``("1-4", t)`` or ``("2-3", (t, f))``.
    """
    added = 0
    applied = []
    for _ in range(count):
        do14 = added < max_new_vertices and rng.random() < p_vertex_move
        if do14:
            t = int(rng.integers(tri.num_tets))
            tri = pachner_14(tri, t)
            added += 1
            applied.append(("1-4", t))
            continue
        vclass = tri.vertex_class
        candidates = []
        for (t, f), (t2, perm) in tri.gluings.items():
            if t2 == t or (t2, perm[f]) < (t, f):
                continue
            if vclass[t][f] != vclass[t2][perm[f]]:
                candidates.append((t, f))
        if not candidates:
            raise PreconditionError("no legal 2-3 move available")
        t, f = candidates[int(rng.integers(len(candidates)))]
        tri = pachner_23(tri, t, f)
        applied.append(("2-3", (t, f)))
    return tri, applied
