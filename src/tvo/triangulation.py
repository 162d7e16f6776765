"""Tetrahedral gluing complexes and the 1-4 / 2-3 bistellar moves.

A triangulation is a set of abstract tetrahedra with faces glued in pairs.
Tetrahedron vertices carry local slots 0..3; face f is the face opposite
slot f. A gluing of face (t, f) is stored as ``gluings[(t, f)] = (t2, perm)``
where ``perm`` is a permutation of {0,1,2,3} with ``perm[f]`` the glued face
of t2 and ``perm[v]`` the image slot of each face vertex v != f. The reverse
gluing with the inverse permutation is always stored too, and a face is
never glued to itself.

Vertex, edge and face classes are the equivalence classes generated by the
gluings; they are computed once and cached. A ``Triangulation`` is a
frozen dataclass, so ``num_tets`` and ``gluings`` cannot be reassigned
under its cached classes, and ``gluings`` is a read-only view
(``types.MappingProxyType``) over the dict the constructor or a flip
built, so it cannot be edited in place either. The constructor validates
every gluing. One
pass over the glued face pairs, ``Triangulation._skeleton``, gives a fresh
complex its vertex classes, edge classes, orientation and face classes
together: per pair it reads one entry of a gluing table, keyed by (face,
permutation), and joins corner slots, edge slots and signed tetrahedra in
three union-finds. The state sum reads a rank table, keyed by vertex-class
order. Both tables are built at import.

Both moves are bistellar flips on five vertices, written as token tuples:
each removed and each new tetrahedron names the vertex token in each of its
slots, and one routine, ``_flip``, glues the new tetrahedra to each other and
to the rest of the complex by matching the token sets of faces. What a flip
derives from the tokens alone, the new tetrahedra's gluings to each other
and the map of their outer faces onto the old ones, is a template cached per
move shape (``_template``: one 1-4 shape, and one 2-3 shape per face and
gluing permutation, 97 in all). So the work of a move that grows with the
complex is one rebuild of the gluing dict, which renumbers the survivors,
and the slicing of the class rows. A flip builds its result without the
constructor: it re-validates only the gluings it writes, and it carries the
vertex and edge classes forward from the parent's as one record of id rows
and counts (``_carried``). ``vertex_class`` and ``edge_class`` number those
ids on their first read by one rule, ``_first_appearance``, as a
recomputation would number them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import chain, combinations, islice, permutations
from operator import index, itemgetter
from types import MappingProxyType

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

#: each permutation of 0..3 mapped to its inverse; a missing key is not a permutation
_INVERSE = {perm: inverse_perm(perm) for perm in permutations(range(4))}


def _spanning_forest(size, pairs):
    """The indices of the ``pairs`` that join two components of the slots
    0..size-1, taken in order: a spanning forest of the graph they form."""
    parent = list(range(size))
    joined = []
    for i, (a, b) in enumerate(pairs):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[a] = b
            joined.append(i)
    return joined


def _numbered(parent, width):
    """Rows of ``width`` class ids of a union-find whose parents never exceed
    their slot, numbered by first appearance in slot order, and their count."""
    ids, roots = [], 0
    for x, p in enumerate(parent):
        ids.append(roots if p == x else ids[p])
        roots += p == x
    return [ids[i : i + width] for i in range(0, len(ids), width)], roots


def _index(value, name):
    """``value`` through ``operator.index``; a ``StructureError`` naming the argument if it fails."""
    try:
        return index(value)
    except TypeError:
        raise StructureError(f"{name} {value!r} is not an integer") from None


def _check_gluing(gluings: dict, num_tets: int, key):
    """Raise unless gluing ``key`` is in range, glues by a permutation of
    0..3 (a key of ``_INVERSE``), does not glue a face to itself and is stored
    with its reverse."""
    t, f = key
    t2, perm = gluings[key]
    if not (0 <= t < num_tets and 0 <= t2 < num_tets):
        raise StructureError(f"gluing {key} -> {(t2, perm)}: tetrahedron index out of range")
    if not (0 <= f < 4):
        raise StructureError(f"gluing {key}: face index out of range")
    inverse = _INVERSE.get(perm)
    if inverse is None:
        raise StructureError(f"gluing {key}: {perm} is not a permutation of 0..3")
    f2 = perm[f]
    if (t2, f2) == key:
        raise StructureError(f"face ({t},{f}) glued to itself")
    back = gluings.get((t2, f2))
    if back is None or back != (t, inverse):
        raise StructureError(
            f"gluing involution broken at tet {t} face {f} "
            f"(reverse gluing of tet {t2} face {f2} missing or inconsistent)"
        )


def _first_appearance(rows, count):
    """``rows`` of ``count`` class ids numbered by first appearance in row
    order, the numbering ``Triangulation._skeleton`` gives over the same slots.

    A scan returns ``rows`` unchanged once it has seen ids 0..count-1 first
    appear in that order; an id that first appears before a smaller one stops
    it, and the rows are renumbered.
    """
    top = 0  # the id that must appear next
    for c in chain.from_iterable(rows):
        if c == top:
            top += 1
            if top == count:
                return rows
        elif c > top:
            break
    ids = dict(zip(dict.fromkeys(chain.from_iterable(rows)), range(count)))
    return [list(map(ids.__getitem__, row)) for row in rows]


@dataclass(frozen=True)
class Triangulation:
    """A gluing complex on ``num_tets`` tetrahedra.

    ``gluings`` may leave faces unglued while building by hand, but the
    orientation, the face classes and the state sum require a closed
    complex. The constructor reads every index as an integer (any type with
    ``__index__``, such as numpy integers; a float is refused) and validates
    the ranges, the involution property, and that no face is glued to itself.
    """

    num_tets: int
    gluings: MappingProxyType  # any mapping on input; stored as a read-only view
    #: a flip's result only: ((vertex id rows, count), (edge id rows, count))
    _carried: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        num_tets = _index(self.num_tets, "tetrahedron count")
        if num_tets < 1:
            raise StructureError("need at least one tetrahedron")
        gluings = {}
        for key, value in self.gluings.items():
            (t, f), (t2, perm) = key, value
            try:
                gluings[index(t), index(f)] = (index(t2), tuple(map(index, perm)))
            except TypeError:
                raise StructureError(f"gluing {key} -> {value}: indices must be integers") from None
        object.__setattr__(self, "num_tets", num_tets)
        object.__setattr__(self, "gluings", MappingProxyType(gluings))
        for key in gluings:
            _check_gluing(gluings, num_tets, key)

    # -- derived combinatorics ------------------------------------------------

    @property
    def is_closed(self) -> bool:
        return len(self.gluings) == 4 * self.num_tets

    def require_closed(self):
        if not self.is_closed:
            unglued = ((t, f) for t in range(self.num_tets) for f in range(4)
                       if (t, f) not in self.gluings)
            raise StructureError(f"triangulation has unglued faces, e.g. {list(islice(unglued, 3))}")

    @cached_property
    def _skeleton(self):
        """``((vertex class rows, count), (edge class rows, count), orientation,
        face-class representatives)``, from one pass over the glued face pairs.

        Each pair is visited once, from its smaller key (t, f), and its entry
        of the gluing table joins its three corner slots, its three edge slots
        and, with a sign, its two tetrahedra. The corner and edge union-finds
        halve paths and link to the smaller root, so no parent exceeds its slot
        and one forward pass numbers the classes by first appearance. The
        tetrahedron union-find also keeps each tetrahedron's sign relative to
        its parent, multiplied along the halved paths; a pair whose two
        tetrahedra already share a root but ask for different signs makes the
        complex non-orientable (orientation None). A flip's result carries
        its vertex and edge ids (``_carried``), so exactly then the corner and
        edge unions are skipped and their entries are None.
        """
        T = self.num_tets
        fresh = self._carried is None
        corner = list(range(4 * T)) if fresh else None
        edge = list(range(6 * T)) if fresh else None
        tet, rel = list(range(T)), [1] * T
        orientable = True
        faces = []
        for (t, f), (t2, perm) in self.gluings.items():
            if (t2, perm[f]) < (t, f):
                continue
            faces.append((t, f))
            corners, edges, sign = _GLUING[f, perm]
            if fresh:
                # ``x[a] = a = x[x[a]]`` assigns x[a] before a: one halving step.
                # The two unions are written out: a loop over the two kinds
                # made the whole pass 15-30 % slower.
                c, c2 = 4 * t, 4 * t2
                for x, y in corners:
                    a, b = c + x, c2 + y
                    while corner[a] != a:
                        corner[a] = a = corner[corner[a]]
                    while corner[b] != b:
                        corner[b] = b = corner[corner[b]]
                    if a < b:
                        corner[b] = a
                    elif b < a:
                        corner[a] = b
                c, c2 = 6 * t, 6 * t2
                for x, y in edges:
                    a, b = c + x, c2 + y
                    while edge[a] != a:
                        edge[a] = a = edge[edge[a]]
                    while edge[b] != b:
                        edge[b] = b = edge[edge[b]]
                    if a < b:
                        edge[b] = a
                    elif b < a:
                        edge[a] = b
            if orientable:
                # o(t2) = sign * o(t); sa and sb are o(t) and o(t2) over their roots
                a, b, sa, sb = t, t2, 1, 1
                while tet[a] != a:
                    p = tet[a]
                    rel[a] = s = rel[a] * rel[p]
                    tet[a] = a = tet[p]
                    sa *= s
                while tet[b] != b:
                    p = tet[b]
                    rel[b] = s = rel[b] * rel[p]
                    tet[b] = b = tet[p]
                    sb *= s
                if a == b:
                    orientable = sa * sb == sign
                elif a < b:
                    tet[b], rel[b] = a, sign * sa * sb
                else:
                    tet[a], rel[a] = b, sign * sa * sb
        if orientable:
            # a parent precedes its child, and a root's sign is +1
            for x, p in enumerate(tet):
                if p != x:
                    rel[x] *= rel[p]
        return (
            _numbered(corner, 4) if fresh else None,
            _numbered(edge, 6) if fresh else None,
            rel if orientable else None,
            faces,
        )

    @property
    def _ids(self):
        """``((vertex id rows, count), (edge id rows, count))``: the record a
        flip's result carries (``_carried``), else ``_skeleton``'s numbered rows."""
        return self._carried or self._skeleton

    def _class_rows(self, kind):
        """The class rows of ``kind`` (0 vertices, 1 edges): a flip's result
        numbers its carried ids by ``_first_appearance``, and a fresh
        complex's rows come numbered from ``_skeleton``."""
        if self._carried is None:
            return self._skeleton[kind][0]
        return _first_appearance(*self._carried[kind])

    @cached_property
    def vertex_class(self):
        """vertex_class[t][v] = id of the vertex equivalence class of corner (t, v)."""
        return self._class_rows(0)

    @cached_property
    def edge_class(self):
        """edge_class[t][e] = class id of local edge TET_EDGES[e] of tet t."""
        return self._class_rows(1)

    @property
    def num_vertices(self) -> int:
        return self._ids[0][1]

    @property
    def num_edges(self) -> int:
        return self._ids[1][1]

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
        return sorted(self._skeleton[3])

    @cached_property
    def orientation(self):
        """Per-tetrahedron signs making all gluings orientation-reversing on faces.

        The smallest tetrahedron of each connected component gets +1. Returns
        None for non-orientable complexes. The sign rule for a gluing
        (t,f) -> (t2,f2) with slot map perm is o(t2) = -o(t) * (-1)^(f+f2) *
        sign(sort(images of the sorted face vertices)), which the gluing table
        holds as one factor.
        """
        self.require_closed()
        return self._skeleton[2]

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


@cache
def _template(olds: tuple, new: tuple):
    """The part of a flip of tetrahedra with slot tokens ``olds`` into ``new``
    that depends on the tokens alone; the moves make at most 97 shapes.

    Positions k and i index ``olds`` and ``new``. Returns
    - the new tetrahedra's gluings to each other, ``((i, g), (j, perm))`` by (i, g);
    - per outer face, ``(k, f, i, g, sigma)``: new face (i, g) spans old face
      (k, f), and sigma maps the new slots onto the old; by (i, k, g);
    - ``_sources`` of the slot tokens, then of the local edges' token pairs:
      per new tetrahedron, the old slot (edge) or new class that each of its
      vertex (edge) classes comes from, and the number of new classes.
    """
    internal = {}
    spans = _glue_by_tokens(internal, 0, new)
    outer = []
    for i, tokens in enumerate(new):
        for k, old_tokens in enumerate(olds):
            for g in range(4):
                span = _face(tokens, g)
                if len(spans[span]) == 1 and span <= set(old_tokens):
                    f = next(v for v in range(4) if old_tokens[v] not in span)
                    outer.append((k, f, i, g, _slot_map(tokens, g, old_tokens, f)))
    pairs = [[frozenset((tokens[a], tokens[b])) for a, b in TET_EDGES] for tokens in olds + new]
    return (tuple(internal.items()), tuple(outer), _sources(olds, new),
            _sources(pairs[:len(olds)], pairs[len(olds):]))


def _sources(old_keys, new_keys):
    """Per new tetrahedron, the source ``(k, x)`` of each of its ``new_keys``
    (tokens or token pairs): the first position x in ``old_keys[k]``, or for
    k = len(old_keys), the x-th key that no old tetrahedron holds; and the
    number of such keys."""
    source = {}
    for k, keys in enumerate(old_keys):
        for x, key in enumerate(keys):
            source.setdefault(key, (k, x))
    known = len(source)
    rows = []
    for keys in new_keys:
        for key in keys:
            source.setdefault(key, (len(old_keys), len(source) - known))
        rows.append(tuple(source[key] for key in keys))
    return rows, len(source) - known


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

    What depends on the tokens alone comes from the cached ``_template``, so
    the work per surviving tetrahedron is one pass of the dict rebuild: every
    gluing is remapped through an index list that sends the removed
    tetrahedra to None, and then the removed keys are dropped and the
    survivors' re-glued keys are moved to the end, as they are rewritten.
    """
    olds = list(old)
    internal, outer, vertices, edges = _template(tuple(old.values()), tuple(new))
    T = tri.num_tets
    gone = sorted(olds)
    runs = list(zip([0] + [r + 1 for r in gone], gone + [T]))  # the survivors, as ranges
    remap = []
    for n, (a, b) in enumerate(runs):
        if n:
            remap.append(None)
        remap += range(a - n, b - n)
    base = T - len(olds)
    gluings = {
        (remap[s], g): (remap[s2], perm) for (s, g), (s2, perm) in tri.gluings.items()
    }
    for g in range(4):
        del gluings[None, g]
    for (i, g), (j, perm) in internal:
        gluings[base + i, g] = (base + j, perm)

    outer = {(olds[k], f): (base + i, g, sigma) for k, f, i, g, sigma in outer}
    rewritten = []  # reverse gluings written on surviving tetrahedra
    for (s, f), (i, g, sigma) in outer.items():
        s2, rho = tri.gluings[(s, f)]
        if (s2, rho[f]) in outer:
            j, _, tau = outer[(s2, rho[f])]
            perm = tuple(tau.index(rho[sigma[x]]) for x in range(4))
        else:
            j, perm = remap[s2], tuple(rho[sigma[x]] for x in range(4))
            del gluings[j, perm[g]]
            rewritten.append((j, perm[g]))
        gluings[(i, g)] = (j, perm)
        gluings[(j, perm[g])] = (i, inverse_perm(perm))

    out = object.__new__(Triangulation)
    object.__setattr__(out, "num_tets", base + len(new))
    object.__setattr__(out, "gluings", MappingProxyType(gluings))
    if not out.is_closed:
        raise StructureError("bistellar flip left faces unglued")
    for key in [(t, g) for t in range(base, out.num_tets) for g in range(4)] + rewritten:
        _check_gluing(gluings, out.num_tets, key)
    _carry_classes(tri, out, olds, runs, vertices, edges)
    return out


def _carry_classes(tri: Triangulation, out: Triangulation, olds: list, runs: list,
                   vertices: tuple, edges: tuple):
    """Give ``out``, the flip of ``tri``, the record ``_carried`` of its
    vertex and edge ids and their counts: the parent's rows of the
    survivors, then one row per new tetrahedron.

    A flip keeps every vertex and edge class of the parent: a token, or a
    pair of tokens, of a new tetrahedron lies in the class of the old corner
    or edge it spans, and the tokens or pairs that no old tetrahedron spans
    (the 1-4 apex and its edges, the 2-3 edge between the apexes) are new
    classes, given the next free ids. ``vertices`` and ``edges`` hold the
    template's sources of the new rows and the number of new classes. The
    ids come from the parent's numbered rows where those were read, else
    from its own record; ``vertex_class`` and ``edge_class`` number them by
    ``_first_appearance`` when they are first read.
    """
    record = []
    kinds = zip(("vertex_class", "edge_class"), tri._ids, (vertices, edges))
    for name, (rows, count), (sources, added) in kinds:
        rows = tri.__dict__.get(name, rows)
        src = [rows[s] for s in olds]
        src.append(range(count, count + added))
        carried = []
        for a, b in runs:
            carried += rows[a:b]
        carried += ([src[k][x] for k, x in row] for row in sources)
        record.append((carried, count + added))
    object.__setattr__(out, "_carried", tuple(record))


def pachner_14(tri: Triangulation, t: int) -> Triangulation:
    """Replace tetrahedron ``t`` by four around a new interior vertex.

    The four new tetrahedra B_f keep the slot names of ``t`` except that
    slot f holds the new vertex; B_f inherits the old gluing of face (t, f).
    Adds 3 tetrahedra and 1 vertex. ``t`` is read as an integer, as the
    constructor reads indices; a float is refused.
    """
    t = _index(t, "tetrahedron index")
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
    order. ``t`` and ``f`` are read as integers; a float is refused.
    """
    t, f = _index(t, "tetrahedron index"), _index(f, "face index")
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
