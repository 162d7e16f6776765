"""Dehn surgery evaluators: lens spaces, the Brieskorn star, and plumbing trees.

Every value here is the surgery formula on a framed plumbing tree,

    Z = sum_colors prod_v t_{i_v}^{a_v} S_{0 i_v}^{2 - deg(v)}
        prod_{edges (u,v)} S_{i_u i_v},

contracted leaf-first along the tree by one evaluator. The printed sums are
the trees they build:

    Z(L(p,1))    = sum_i t_i^p S_i0^2                    single vertex, framing p
    Z(L(p,2))    = sum_ij t_i^((p+1)/2) t_j^2 S_i0 S_j0 S_ij   (p odd)
                                                         chain [(p+1)/2, 2]
    Z(M(p,q,r))  = sum_ijkl t_i^p t_j^q t_k^r t_l
                   S_i0 S_j0 S_k0 S_il S_jl S_kl / S_l0  star: center 1, legs p, q, r
    Z(L(p,q))                                            chain of the negative
                                                         continued fraction of p/q

M(p,q,r) has |H_1| = |pqr - pq - pr - qr|, so it is the Brieskorn homology
sphere Sigma(p,q,r) only when that value is 1 (e.g. (2,3,5) and (2,3,7), but
not (2,5,7) or (3,5,7)).

A chain's sum is a product of SL(2,Z) images, e_0^T S prod_j (T^(a_j) S) e_0
(Jeffrey 1992), so a lens chain is never built vertex by vertex. The
continued fraction of p/q comes as O(log p) runs of equal framings, found
by Euclid-style jumps, and the evaluator applies a run of m interior
vertices either as m mat-vecs or as the m-th power of diag(t^a) S by binary
powering, by a fixed rule on the two operation counts. L(p, q) costs
O(log p) matrix products. Above 10^6 vertices, or a framing above 10^6 on
data whose T has no verified finite order, the roundoff would exceed the
default tolerance, and :class:`CapacityError` is raised instead.

What a call needs of its manifold alone is its plan, one :class:`_Plan`
record: the schedule the evaluator contracts, the method label, the
expanded vertex count and whether some degree is above 1. The closed forms
keep their plans in bounded least-recently-used caches keyed by their
normalised integer arguments (``_PLAN_CACHE_SIZE`` manifolds each); the
Brieskorn plan is the star tree's, relabelled. A :class:`PlumbingTree`
builds its plan once, on its first call. What a call
needs of its data alone is the vertex bases t^a S_0^(2 - deg): each data set
keeps the ones it has been asked for, at most ``_BASE_TABLE_CAP`` (2^20)
complex entries, 16 MiB; past that, a base is computed per call. So a
repeated call on a manifold and data seen before pays for the data gate, the
mat-vecs and its result, and nothing else. No value is cached, and a refusal
is raised on every call.

Data whose S is not unitary or T not of unit modulus is refused. Values for
anomaly phase u != 1 carry a warning tag; no framing correction is made.
"""

from __future__ import annotations

import cmath
import functools
import math
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    CapacityError,
    DegenerateDataError,
    PreconditionError,
    StructureError,
    TvoError,
)
from .modular import DEFAULT_TOLERANCE, ModularData


def _integral(value, name, error=PreconditionError) -> int:
    """``int(value)`` for an integral ``value`` (an int, a numpy integer or a
    float such as 3.0); any other value raises ``error`` naming ``name``."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise error(f"{name} must be an integer, got {value!r}")
    return n


@dataclass(frozen=True)
class InvariantValue:
    """A computed invariant: complex value plus the formula that produced it.

    ``stats`` holds the evaluator's counters; it takes no part in equality
    or hashing.
    """

    value: complex
    method: str
    warnings: tuple[str, ...] = ()
    stats: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        v = complex(self.value)
        if not cmath.isfinite(v):
            raise TvoError(f"non-finite invariant value {v} from {self.method}")
        object.__setattr__(self, "value", v)


class _Plan(NamedTuple):
    """What a surgery call needs of its manifold alone, built once per manifold.

    ``schedule`` holds one ``(framing, degree, child positions,
    multiplicity)`` entry per vertex, every entry after its parent;
    ``method`` is the label of the result; ``vertices``, the expanded vertex
    count, and ``branched``, whether some vertex has degree above 1, are
    facts of the entries, found once by :func:`_plan`.
    """

    schedule: tuple
    method: str
    vertices: int
    branched: bool


def _plan(entries, method: str) -> _Plan:
    schedule = tuple(entries)
    return _Plan(schedule, method, sum(entry[3] for entry in schedule),
                 any(entry[1] > 1 for entry in schedule))


@dataclass(frozen=True)
class PlumbingTree:
    """Framed-unknot tree: vertices (id, framing) and unordered edges between ids.

    ``schedule`` is the contraction order found while proving the tree
    connected: breadth-first from the first vertex, children in id order, one
    ``(framing, degree, child positions)`` entry per vertex, every vertex
    after its parent. ``_contraction`` is the tree's :class:`_Plan`: the same
    order, each multiplicity 1, with the method label, built on the tree's
    first surgery call and kept with the tree.
    """

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]
    schedule: tuple[tuple[int, int, tuple[int, ...]], ...] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        verts = tuple((_integral(v, "vertex id", StructureError),
                       _integral(a, f"framing of vertex {v!r}", StructureError))
                      for v, a in self.vertices)
        edges = tuple((_integral(u, "edge end", StructureError),
                       _integral(v, "edge end", StructureError)) for u, v in self.edges)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", edges)
        framing = dict(verts)
        if len(framing) != len(verts):
            raise StructureError("vertex ids must be unique")
        if not verts:
            raise StructureError("a plumbing tree needs at least one vertex")
        adj = {v: [] for v in framing}
        for u, v in edges:
            if u not in adj or v not in adj:
                raise StructureError(f"edge ({u},{v}) references unknown vertex")
            if u == v:
                raise StructureError(f"self-loop at vertex {u}")
            adj[u].append(v)
            adj[v].append(u)
        if len(edges) != len(framing) - 1:
            raise StructureError("edge count must be vertex count - 1 (tree)")
        # connectivity, by the walk that becomes the contraction schedule
        order = [verts[0][0]]
        position = {order[0]: 0}
        schedule = []
        for v in order:
            kids = []
            for w in sorted(adj[v]):
                if w not in position:
                    position[w] = len(order)
                    kids.append(len(order))
                    order.append(w)
            schedule.append((framing[v], len(adj[v]), tuple(kids)))
        if len(order) != len(framing):
            raise StructureError("edge set is not connected")
        object.__setattr__(self, "schedule", tuple(schedule))

    @functools.cached_property
    def _contraction(self) -> _Plan:
        # not built with the tree: a tree that is never evaluated, such as
        # one only read from a file and checked, allocates nothing more
        return _plan(((a, deg, kids, 1) for a, deg, kids in self.schedule),
                     f"plumbing(tree with {len(self.vertices)} vertices)")

    @classmethod
    def single(cls, framing: int) -> "PlumbingTree":
        return cls(((0, framing),), ())

    @classmethod
    def chain(cls, framings) -> "PlumbingTree":
        framings = list(framings)
        verts = tuple((i, a) for i, a in enumerate(framings))
        edges = tuple((i, i + 1) for i in range(len(framings) - 1))
        return cls(verts, edges)

    @classmethod
    def star(cls, center_framing: int, leg_framings) -> "PlumbingTree":
        legs = list(leg_framings)
        verts = ((0, center_framing),) + tuple((i + 1, a) for i, a in enumerate(legs))
        edges = tuple((0, i + 1) for i in range(len(legs)))
        return cls(verts, edges)


#: the most vertices one surgery sum contracts, and the largest |framing|
#: raised as a float power when T has no verified finite order. The roundoff
#: of both grows linearly (3e-17 to 3e-16 per vertex on L(p, p - 1) on the
#: abelian doubles), so at this size a value carries up to ~3e-10 of noise,
#: within the default tolerance of 1e-9; past it a value is refused.
_SURGERY_CAP = 10**6

#: the most complex entries one data set's table of vertex bases holds, 16 MiB
#: of values. A base of rank r is charged r + ``_BASE_OVERHEAD`` entries: its
#: key, array header and dict slot take about 14 entries' bytes at any rank
#: (by tracemalloc). Past the cap a base is computed per call.
_BASE_TABLE_CAP = 2**20
_BASE_OVERHEAD = 16
# makes the cap check and the insert one step when threads share a data set
_TABLE_LOCK = threading.Lock()

#: the most manifolds each closed form keeps a plan for, least recently used
#: first out. A plan, its schedule and method label, takes 0.4-0.8 KiB for
#: arguments below 200 and 3.4 KiB for a lens chain near p = 2^61, since a
#: chain has O(log p) entries (by tracemalloc), so a full cache holds 0.4 to
#: 3.4 MiB there.
_PLAN_CACHE_SIZE = 1024


def _vertex_base(data: ModularData, a: int, deg: int) -> np.ndarray:
    """t^a S_0^(2 - deg) for a vertex of framing ``a`` and degree ``deg``.

    Read from ``data``'s table when it is there, else computed and kept
    while the table is under ``_BASE_TABLE_CAP``. The key is the exponent
    itself: t^-1 and t^(N-1) differ in their last bits. On unitary data only
    S_0^(2 - deg) can overflow, past degree 2 + 709.78 / ln(1 / min |S_i0|)
    (317 on su2-10); that base is refused with :class:`CapacityError`.
    """
    table = data._vertex_bases
    base = table.get((a, deg))
    if base is None:
        with np.errstate(all="ignore"):  # S_0^(2 - deg) overflows at a high degree
            base = data.T ** a * data.S[:, 0] ** (2 - deg)
        if not np.isfinite(base).all():
            raise CapacityError(f"the base S_0^(2 - deg) of a vertex of degree {deg} overflows; "
                                f"the smallest |S_i0| is {data._s0_min:.6g}")
        with _TABLE_LOCK:
            if len(table) < _BASE_TABLE_CAP // (data.rank + _BASE_OVERHEAD):
                table[(a, deg)] = base
    return base


def _contract(data: ModularData, plan: _Plan) -> InvariantValue:
    """The surgery sum of the plumbing that ``plan`` describes, leaf-first.

    The schedule, vertex count and degree flag are read from the
    :class:`_Plan`, not counted per call; the result carries its method
    label. A multiplicity m > 1 stands for a path of m identical vertices
    of degree 2 with one child. Each vertex carries t^framing S_0^(2-deg)
    and each edge one S @ child; a vertex multiplies in its children in the
    listed order, so the summation order is fixed and repeated calls give
    the same bits. A mat-vec is ``ndarray.dot``: the same BLAS gemv call as
    ``@``, without the ufunc dispatch, which is about 40 % of a rank-4
    mat-vec.

    A run applies M = diag(t^a) S m times. The loop does that with m
    mat-vecs, m r^2 multiply-adds at rank r. Binary powering does
    bit_length(m) - 1 squarings of r^3 each plus a mat-vec per set bit of m,
    at most 2 r^3 bit_length(m) in all. A run is powered when the loop costs
    more than that bound, m > 2 r bit_length(m). On rank >= 2 a run of up to
    20 vertices (all of L(p, q) for p <= 23) stays on the loop, bit for bit.

    The bases come from :func:`_vertex_base`, so a call on data seen
    before reads them from the data's table. Data whose S is not unitary or
    whose T is not of unit modulus, to ``DEFAULT_TOLERANCE``, is refused with
    :class:`PreconditionError`, by residuals cached on the data.

    Raises :class:`CapacityError` for more than ``_SURGERY_CAP`` vertices,
    and for a framing above it in absolute value when T has no verified
    finite order; with an order N, framings of N or more are reduced mod N,
    exactly. ``stats`` counts ``vertices`` (expanded), schedule ``entries``,
    distinct (framing, degree) ``bases`` of this call, ``powered_runs``,
    ``matmuls`` (r x r products) and whether any framing was reduced
    (``framing_reduced``).
    """
    schedule, method, vertices, branched = plan
    if vertices > _SURGERY_CAP:
        raise CapacityError(f"surgery on {vertices} vertices is above the cap of "
                            f"{_SURGERY_CAP} vertices")
    s_res, t_res = data._unitarity
    if not (s_res <= DEFAULT_TOLERANCE and t_res <= DEFAULT_TOLERANCE):
        raise PreconditionError(f"surgery needs S unitary and T of unit modulus: max |S S^dagger"
                                f" - I| = {s_res:.3e}, max ||t_i| - 1| = {t_res:.3e}")
    if branched and data._s0_min <= DEFAULT_TOLERANCE:
        raise DegenerateDataError("S column 0 has (near-)zero entries")
    S = data.S
    r = data.rank
    order = data._t_order
    bases = {}
    reduced = False
    powered = matmuls = 0
    messages = [None] * len(schedule)
    for k in range(len(schedule) - 1, -1, -1):
        a, deg, kids, m = schedule[k]
        if order is not None:
            if abs(a) >= order:  # t^N = 1: exact, unlike a huge float power
                a %= order
                reduced = True
        elif abs(a) > _SURGERY_CAP:
            raise CapacityError(f"framing {a} is above the cap of {_SURGERY_CAP} and T has "
                                "no verified finite order to reduce it by")
        base = bases.get((a, deg))
        if base is None:
            base = bases[(a, deg)] = _vertex_base(data, a, deg)
        if m > 2 * r * m.bit_length():
            # M^m v as the product of M^(2^j) over the set bits j of m
            vec, M = messages[kids[0]], base[:, None] * S
            messages[kids[0]] = None
            powered += 1
            while True:
                if m & 1:
                    vec = M.dot(vec)
                m >>= 1
                if not m:
                    break
                M = M @ M
                matmuls += 1
        else:
            vec = base
            for c in kids:
                vec = vec * S.dot(messages[c])
                messages[c] = None
            for _ in range(m - 1):  # the rest of a run, bottom to top
                vec = base * S.dot(vec)
        messages[k] = vec
    stats = {"vertices": vertices, "entries": len(schedule), "bases": len(bases),
             "powered_runs": powered, "matmuls": matmuls, "framing_reduced": reduced}
    return InvariantValue(messages[0].sum(), method, data._surgery_warnings, stats)


def _chain_plan(runs, method: str) -> _Plan:
    """The plan of the chain whose framings are ``runs`` of (framing, count),
    root first: each end vertex alone, each run's interior as one entry with
    its count as multiplicity."""
    n = sum(c for _, c in runs)
    if n == 1:
        return _plan([(runs[0][0], 0, (), 1)], method)
    pieces = []  # (framing, degree, multiplicity)
    seen = 0
    for a, c in runs:
        head = seen == 0
        tail = seen + c == n
        if head:
            pieces.append((a, 1, 1))
        if c - head - tail:
            pieces.append((a, 2, c - head - tail))
        if tail:
            pieces.append((a, 1, 1))
        seen += c
    last = len(pieces) - 1
    return _plan(((a, deg, (k + 1,) if k < last else (), m)
                  for k, (a, deg, m) in enumerate(pieces)), method)


# The plans of the closed forms, by the normalised integer arguments. A
# refusal is raised before anything is cached, so it is raised on every call.

@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _lens_p1_plan(p: int) -> _Plan:
    if p < 0:
        raise PreconditionError("lens_p1 requires p >= 0")
    return _chain_plan([(p, 1)], f"lens_p1(p={p})")


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _lens_p2_plan(p: int) -> _Plan:
    if p < 1 or p % 2 == 0:
        raise PreconditionError("lens_p2 requires odd positive p")
    return _chain_plan([((p + 1) // 2, 1), (2, 1)], f"lens_p2(p={p})")


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _brieskorn_plan(p: int, q: int, r: int) -> _Plan:
    if min(p, q, r) < 2:
        raise PreconditionError("brieskorn requires p, q, r >= 2")
    plan = PlumbingTree.star(1, (p, q, r))._contraction
    return plan._replace(method=f"brieskorn(p={p},q={q},r={r})")


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _lens_general_plan(p: int, q: int) -> _Plan:
    if p < 1 or q < 1:
        raise PreconditionError("lens_general requires positive p, q")
    if math.gcd(p, q) != 1:
        raise PreconditionError(f"lens_general requires gcd(p, q) = 1, got ({p},{q})")
    if p == 1:
        runs = [(1, 1)]
    else:
        if q >= p:
            raise PreconditionError("lens_general requires q < p")
        runs = _ncf_runs(p, q)
    n = sum(c for _, c in runs)
    shown = (f"chain={[a for a, c in runs for _ in range(c)]}" if n <= 8
             else f"chain of {n} vertices")
    return _chain_plan(runs, f"lens_general(p={p},q={q},{shown})")


def lens_p1(data: ModularData, p: int) -> InvariantValue:
    """sum_i t_i^p S_i0^2. p = 0 is allowed (the value for S^1 x S^2)."""
    return _contract(data, _lens_p1_plan(_integral(p, "lens_p1 p")))


def lens_p2(data: ModularData, p: int) -> InvariantValue:
    """sum_ij t_i^((p+1)/2) t_j^2 S_i0 S_j0 S_ij, for odd positive p."""
    return _contract(data, _lens_p2_plan(_integral(p, "lens_p2 p")))


def brieskorn(data: ModularData, p: int, q: int, r: int) -> InvariantValue:
    """The quadruple sum over (i,j,k,l): the star with center framing 1, legs p, q, r.

    Its first homology has order |pqr - pq - pr - qr|; it is the value of the
    Brieskorn sphere Sigma(p,q,r) only when that order is 1.
    """
    p, q, r = _integral(p, "brieskorn p"), _integral(q, "brieskorn q"), _integral(r, "brieskorn r")
    return _contract(data, _brieskorn_plan(p, q, r))


def plumbing_invariant(data: ModularData, tree: PlumbingTree) -> InvariantValue:
    """The surgery formula on an arbitrary plumbing tree, rooted at its first vertex."""
    return _contract(data, tree._contraction)


def _ncf_runs(p: int, q: int) -> list[tuple[int, int]]:
    """The negative continued fraction of p/q as maximal (framing, count) runs.

    A step of the ceiling recursion a = ceil(p/q), (p, q) -> (q, a q - p)
    with a = 2 keeps d = p - q and lowers p and q by d, so it repeats while
    q >= d: q // d twos are taken in one jump. Any other step has a >= 3, so
    p > 2q and the next p = q is below half of p. That makes O(log p) runs.
    """
    if p < 1 or q < 1:
        raise PreconditionError("continued fraction requires positive p, q")
    runs = []
    while q > 0:
        a = -(-p // q)
        if a == 2:
            d = p - q
            count = q // d
            p, q = p - count * d, q - count * d
        else:
            count = 1
            p, q = q, a * q - p
        if runs and runs[-1][0] == a:
            runs[-1] = (a, runs[-1][1] + count)
        else:
            runs.append((a, count))
    return runs


def negative_continued_fraction(p: int, q: int) -> list[int]:
    """Coefficients [a1, ..., am], all >= 2 except possibly a1, with
    p/q = a1 - 1/(a2 - 1/(...)): the expansion of :func:`_ncf_runs`."""
    return [a for a, count in _ncf_runs(p, q) for _ in range(count)]


def lens_general(data: ModularData, p: int, q: int) -> InvariantValue:
    """L(p, q) via the framed chain of the negative continued fraction of p/q.

    Requires gcd(p, q) = 1 and 0 < q < p (p = 1 gives the 3-sphere for any q).
    The chain is contracted from its runs, in O(log p) steps, and refused
    with :class:`CapacityError` above ``_SURGERY_CAP`` vertices.
    """
    p, q = _integral(p, "lens_general p"), _integral(q, "lens_general q")
    return _contract(data, _lens_general_plan(p, q))
