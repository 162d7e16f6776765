"""State-sum evaluation of triangulation invariants for pointed 6j data.

The evaluator implements

    Z = lambda^(-V) * sum_colorings  prod_edges [X]^(1/2) * prod_tets W

summing over edge colorings, with the inner face-coloring sum collapsing to
a single product because pointed data has one-dimensional face spaces. A
coloring is admissible when every face satisfies the fusion constraint;
inadmissible colorings are pruned during a depth-first enumeration (an
explicit stack, so the depth is not bounded by the recursion limit) and
contribute exactly zero.

Gauge fixing: when the labels form a group with unit 0 and the weights are
a unit-modulus 3-cocycle on it, the weight of a coloring is invariant under
the gauge group G^V acting at the vertices (Dijkgraaf-Witten, "Topological
gauge theories and group cohomology", CMP 1990). That condition (the
pentagon identity, the group axioms and unit modulus) depends on the data
alone, and ``SixJData`` is frozen, so it is checked once per data set; a
state sum on a data set already checked pays only for its layout and
enumeration. Each orbit then holds n^(V-c) colorings and exactly one of
them colors a fixed spanning forest of the 1-skeleton with 0, where c
counts the forest's trees. The forest edges take the single label 0 and,
with lambda = n, the normalisation n^(V-c) lambda^(-V) folds into n^(-c).
Data failing the gate is summed over all colorings, forest
edges ranging over every label.

Conventions: edges are oriented from the smaller to the larger vertex
class, each tetrahedron is read in the order of its vertex classes, and a
tetrahedron whose ordering disagrees with the global orientation
contributes the conjugated weight. Every tetrahedron must have four
distinct vertex classes for this ordering to exist; complexes violating
that (or non-orientable ones) are rejected.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from time import perf_counter
from types import MappingProxyType

import numpy as np

from .catalog import cyclic_cocycle
from .errors import CapacityError, StructureError, UnsupportedFeatureError
from .modular import DEFAULT_TOLERANCE
from .surgery import InvariantValue, _integral
from .triangulation import _RANK, TET_EDGES, Triangulation, _spanning_forest


def _checked_qdim(qdim, num_labels: int) -> np.ndarray:
    """``qdim`` as a read-only float array, refused unless it has one positive
    finite entry per label and [X] = 1 on the vacuum."""
    q = np.array(qdim, dtype=float)
    if q.shape != (num_labels,) or not (q > 0).all() or not np.isfinite(q).all():
        raise StructureError("qdim must be positive and finite, one entry per label")
    if abs(q[0] - 1.0) > 1e-12:
        raise StructureError("the vacuum label must have [X] = 1")
    q.setflags(write=False)
    return q


@dataclass(eq=False, frozen=True)
class SixJData:
    """6j weight data on a finite label set with vacuum label 0.

    ``qdim`` holds the squared quantum dimension [X] of each label,
    ``admissible`` the ordered triples (a, b, c) meaning a and b fuse to c,
    and ``weights`` maps the six edge labels of a tetrahedron, ordered
    (e01, e02, e03, e12, e13, e23) by the tetrahedron's vertex order, to its
    weight. General data is accepted; evaluation and the pentagon check
    require pointed data: a Latin-square fusion table and unit dimensions.

    Instances are frozen: ``qdim`` is kept as a read-only array,
    ``admissible`` as a frozenset and ``weights`` as a read-only copy of the
    given mapping. Perturbed data is a new instance, built by the
    constructor or ``dataclasses.replace``. So the gate that ``tv_evaluate``
    and ``verify_pentagon`` read (the weight table, the pentagon residual
    and the gauge verdict) is computed once per instance.
    """

    num_labels: int
    qdim: np.ndarray
    admissible: frozenset
    weights: Mapping
    name: str = ""

    def __post_init__(self):
        n = self.num_labels
        object.__setattr__(self, "qdim", _checked_qdim(self.qdim, n))
        object.__setattr__(self, "admissible", frozenset(self.admissible))
        object.__setattr__(self, "weights", MappingProxyType(dict(self.weights)))
        bad = next((t for t in self.admissible if not all(0 <= x < n for x in t)), None)
        if bad is not None:
            raise StructureError(f"admissible triple {bad} names a label outside 0..{n - 1}")

    @property
    def global_index(self) -> float:
        return float(self.qdim.sum())

    @cached_property
    def _group(self):
        """(mul, ldiv, mdiv) as n x n lists when the fusion table is a Latin
        square, so (a, b, c) is admissible exactly when mul[a][b] = c,
        ldiv[b][c] = a and mdiv[a][c] = b; otherwise None."""
        n = self.num_labels
        mul, ldiv, mdiv = ([[None] * n for _ in range(n)] for _ in range(3))
        for a, b, c in self.admissible:
            if mul[a][b] is not None or ldiv[b][c] is not None or mdiv[a][c] is not None:
                return None
            mul[a][b], ldiv[b][c], mdiv[a][c] = c, a, b
        return (mul, ldiv, mdiv) if len(self.admissible) == n * n else None

    @cached_property
    def pointed(self) -> bool:
        """A Latin-square fusion table (one channel per pair, total divisions)
        and unit dimensions."""
        return self._group is not None and bool(np.abs(self.qdim - 1.0).max() <= 1e-12)

    def key_from_triple(self, a: int, b: int, c: int):
        """The 6-tuple weight key of the tetrahedron with consecutive labels a, b, c
        (Latin-square fusion only)."""
        mul = self._group[0]
        ab = mul[a][b]
        bc = mul[b][c]
        return (a, ab, mul[ab][c], b, bc, c)

    @cached_property
    def _gate(self):
        """(w, conjugate of w, pentagon residual, gauge-fixable) of Latin-square
        data, where w is ``_weight_table``. A missing weight raises and
        caches nothing, so it is refused on every call."""
        mul = self._group[0]
        w = _weight_table(self)
        residual = _pentagon_residual(mul, w)
        wneg = [[[x.conjugate() for x in row] for row in plane] for plane in w]
        return w, wneg, residual, _gauge_fixable(mul, w, residual)


#: largest label count of ``pointed_sixj``: n^3 weights, and the pentagon
#: check, run once per data set before its first evaluation, is n^4 products
#: (3.3 s at n = 48 on a 2-core Xeon, so about 10 s at the cap)
_POINTED_LABEL_CAP = 64


def pointed_sixj(n: int, k: int) -> SixJData:
    """Pointed 6j data on Z/n with the cyclic degree-3 cocycle of parameter k.

    All dimensions are 1, (a, b) fuses to a+b mod n, and the tetrahedron
    weight is omega_k(a, b, c) on the three consecutive edge labels, read
    off the :func:`~tvo.catalog.cyclic_cocycle` table that ``tube_pointed``
    is. Raises :class:`CapacityError` above ``_POINTED_LABEL_CAP`` labels.
    """
    n, k = _integral(n, "pointed_sixj n"), _integral(k, "pointed_sixj k")
    if n < 1:
        raise StructureError("pointed_sixj requires n >= 1")
    if n > _POINTED_LABEL_CAP:
        raise CapacityError(f"pointed 6j data on Z/{n} is above the cap of "
                            f"{_POINTED_LABEL_CAP} labels")
    omega = cyclic_cocycle(n, k).tolist()
    admissible = frozenset((a, b, (a + b) % n) for a in range(n) for b in range(n))
    weights = {(a, (a + b) % n, (a + b + c) % n, b, (b + c) % n, c): omega[a][b][c]
               for a in range(n) for b in range(n) for c in range(n)}
    return SixJData(
        num_labels=n,
        qdim=np.ones(n),
        admissible=admissible,
        weights=weights,
        name=f"vec-z{n}-{k % n}",
    )


@dataclass
class PentagonReport:
    passed: bool
    max_residual: float
    checked: int


def _weight_table(sixj: SixJData):
    """w[a][b][c]: the weight of the tetrahedron with consecutive labels a, b, c."""
    r, key = range(sixj.num_labels), sixj.key_from_triple
    try:
        return [[[sixj.weights[key(a, b, c)] for c in r] for b in r] for a in r]
    except KeyError as missing:
        raise StructureError(f"no 6j weight for edge labels {missing.args[0]}") from None


def _pentagon_residual(mul, w) -> float:
    """max |W(b,c,d) W(a,bc,d) W(a,b,c) - W(ab,c,d) W(a,b,cd)| over label 4-tuples."""
    r = range(len(mul))
    worst = 0.0
    for a in r:
        for b in r:
            ab = mul[a][b]
            for c in r:
                bc = mul[b][c]
                w_abc = w[a][b][c]
                for d in r:
                    lhs = w[b][c][d] * w[a][bc][d] * w_abc
                    rhs = w[ab][c][d] * w[a][b][mul[c][d]]
                    worst = max(worst, abs(lhs - rhs))
    return worst


def verify_pentagon(sixj: SixJData) -> PentagonReport:
    """Check the pentagon identity on all label 4-tuples of Latin-square fusion.

    For weight tables of cocycle type this is exactly the degree-3 cocycle
    condition W(b,c,d) W(a,bc,d) W(a,b,c) = W(ab,c,d) W(a,b,cd).
    """
    if sixj._group is None:
        raise UnsupportedFeatureError("pentagon check implemented for Latin-square fusion only")
    worst = sixj._gate[2]
    return PentagonReport(worst <= DEFAULT_TOLERANCE, worst, sixj.num_labels**4)


def _gauge_fixable(mul, w, residual: float) -> bool:
    """Whether the weight of a coloring is constant on its gauge orbit.

    A gauge transformation g in G^V recolors edge (u, v) from x to
    g_u^-1 x g_v. When the labels form a group under ``mul`` with unit 0 and
    the weights ``w`` are a unit-modulus 3-cocycle on it (the pentagon
    identity, whose ``residual`` the caller passes), the weight changes by a
    coboundary, which integrates to 1 over a closed oriented complex
    (Dijkgraaf-Witten, CMP 1990); unit modulus makes the conjugate on
    negatively oriented tetrahedra the inverse. ``SixJData._gate`` calls it
    once per data set.
    """
    labels = range(len(mul))
    return (
        residual <= DEFAULT_TOLERANCE
        and all(mul[0][a] == a == mul[a][0] for a in labels)
        and all(mul[mul[a][b]][c] == mul[a][mul[b][c]]
                for a in labels for b in labels for c in labels)
        and all(abs(abs(x) - 1.0) <= DEFAULT_TOLERANCE for plane in w for row in plane for x in row)
    )


@dataclass
class _Evaluation:
    """Precomputed combinatorial layout of one triangulation."""

    num_forest: int  # spanning-forest edges, the first entries of the schedule
    num_components: int  # connected components of the 1-skeleton
    faces: list  # (e_lowmid, e_midhigh, e_lowhigh) per face class
    tets: list  # (classes of the rank-order edges 01, 12, 23, conjugate flag)
    schedule: list  # (edge, forcing face index or -1, slot, faces to check)


def _layout(tri: Triangulation) -> _Evaluation:
    tri.validate_closed_manifold()
    vclass = tri.vertex_class
    eclass = tri.edge_class
    for t in range(tri.num_tets):
        if len(set(vclass[t])) != 4:
            raise UnsupportedFeatureError(
                f"tetrahedron {t} has repeated vertex classes; the vertex-order "
                "convention needs 4 distinct classes per tetrahedron"
            )
    orient = tri.orientation
    if orient is None:
        raise UnsupportedFeatureError("triangulation is not orientable")

    # one pass over the tetrahedra through the rank table; each face class
    # then reads its representative's face slots
    E = tri.num_edges
    ends = [None] * E
    tets = []
    face_slots = []
    for t, (vrow, erow) in enumerate(zip(vclass, eclass)):
        edges, sign, by_face = _RANK[tuple(sorted(range(4), key=vrow.__getitem__))]
        tets.append((edges(erow), orient[t] * sign < 0))
        face_slots.append(by_face)
        for e, (a, b) in zip(erow, TET_EDGES):
            ends[e] = (vrow[a], vrow[b])
    faces = [face_slots[t][f](eclass[t]) for t, f in tri.face_classes]
    # spanning forest of the 1-skeleton, edges taken in index order
    forest = _spanning_forest(tri.num_vertices, ends)

    # static schedule: the forest edges first, then force an edge from a face
    # whenever two of its three edges are known, otherwise branch on the
    # lowest unknown edge. A face's three edges are distinct classes, since
    # its three vertex classes are.
    faces_of_edge = [[] for _ in range(E)]
    for fi, face in enumerate(faces):
        for e in face:
            faces_of_edge[e].append(fi)
    unknown = [3] * len(faces)
    face_done = [False] * len(faces)
    known = [False] * E
    ready = deque()  # faces with exactly one unknown edge
    schedule = []

    def mark_known(edge, fi=-1, slot=-1):
        known[edge] = True
        if fi >= 0:
            face_done[fi] = True
        checks = []
        for g in faces_of_edge[edge]:
            unknown[g] -= 1
            if face_done[g]:
                continue
            if unknown[g] == 0:
                face_done[g] = True
                checks.append(g)
            elif unknown[g] == 1:
                ready.append(g)
        schedule.append((edge, fi, slot, checks))

    for edge in forest:
        mark_known(edge)
    lowest = 0
    while len(schedule) < E:
        while ready and (face_done[ready[0]] or unknown[ready[0]] != 1):
            ready.popleft()
        if ready:
            fi = ready.popleft()
            slot = next(i for i, e in enumerate(faces[fi]) if not known[e])
            mark_known(faces[fi][slot], fi, slot)
        else:
            while known[lowest]:
                lowest += 1
            mark_known(lowest)
    return _Evaluation(len(forest), tri.num_vertices - len(forest), faces, tets, schedule)


def tv_evaluate(sixj: SixJData, tri: Triangulation) -> InvariantValue:
    """Evaluate the state sum of ``sixj`` over ``tri``.

    Requires pointed (Latin-square fusion, dimension-one) 6j data; the inner
    face-coloring sum is then a single product per admissible edge coloring.
    ``stats`` on the result counts the enumeration: ``visited`` edge
    assignments, ``pruned`` assignments that broke a face constraint,
    ``leaves`` complete admissible colorings, and whether the sum was
    ``gauge_fixed``; it also holds the seconds of the stages, ``layout_s``
    (classes, orientation and schedule), ``gate_s`` (the pointed check and
    ``SixJData._gate``: the n^3 weight table and the gauge checks on it on the
    first call for a data set, a cached attribute after that) and ``sum_s``
    (the enumeration).
    """
    gate_start = perf_counter()
    if not sixj.pointed:
        raise UnsupportedFeatureError(
            "state-sum evaluation supports pointed (multiplicity-free, "
            "dimension-one) 6j data only"
        )
    layout_start = perf_counter()
    layout = _layout(tri)
    gauge_start = perf_counter()
    mul, ldiv, mdiv = sixj._group
    wpos, wneg, _, gauge_fixed = sixj._gate
    sum_start = perf_counter()
    n = sixj.num_labels
    faces = layout.faces
    schedule = layout.schedule

    colors = [0] * len(schedule)
    tet_terms = [(key, wneg if conj else wpos) for key, conj in layout.tets]
    all_labels = tuple(range(n))
    forest_labels = (0,) if gauge_fixed else all_labels

    def candidates(pos: int):
        _, fi, slot, _ = schedule[pos]
        if fi < 0:
            return forest_labels if pos < layout.num_forest else all_labels
        a, b, c = faces[fi]
        if slot == 0:
            return (ldiv[colors[b]][colors[c]],)
        if slot == 1:
            return (mdiv[colors[a]][colors[c]],)
        return (mul[colors[a]][colors[b]],)

    # depth-first over the schedule with an explicit stack: options[pos] are
    # the labels for schedule[pos], next_option[pos] the next one to try
    total = 0.0 + 0.0j
    leaves = visited = pruned = 0
    depth = len(schedule)
    options = [()] * depth
    next_option = [0] * depth
    options[0] = candidates(0)
    pos = 0
    while pos >= 0:
        if pos == depth:
            w = 1.0 + 0.0j
            for (x, y, z), table in tet_terms:
                w *= table[colors[x]][colors[y]][colors[z]]
            total += w
            leaves += 1
            pos -= 1
            continue
        i = next_option[pos]
        if i == len(options[pos]):
            pos -= 1
            continue
        next_option[pos] = i + 1
        edge, _, _, checks = schedule[pos]
        colors[edge] = options[pos][i]
        visited += 1
        for fi in checks:
            a, b, c = faces[fi]
            if mul[colors[a]][colors[b]] != colors[c]:
                pruned += 1
                break
        else:
            pos += 1
            if pos < depth:
                options[pos] = candidates(pos)
                next_option[pos] = 0

    # prod_E [X]^(1/2) is identically 1 and lambda = n for pointed data. Each
    # gauge orbit holds n^(V-c) colorings, so lambda^(-V) n^(V-c) = n^(-c);
    # folding them keeps large V from overflowing n^(V-c) or underflowing
    # lambda^(-V).
    power = layout.num_components if gauge_fixed else tri.num_vertices
    value = complex(total) * float(n) ** (-power)
    stats = {"leaves": leaves, "visited": visited, "pruned": pruned, "gauge_fixed": gauge_fixed,
             "layout_s": gauge_start - layout_start,
             "gate_s": layout_start - gate_start + sum_start - gauge_start,
             "sum_s": perf_counter() - sum_start}
    return InvariantValue(
        value, f"statesum({sixj.name or 'sixj'}, {tri.num_tets} tets)", stats=stats
    )
