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

Values for data whose anomaly phase differs from 1 are still computed but
carry a warning tag (no framing-anomaly correction is attempted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, PreconditionError, StructureError, TvoError
from .modular import ModularData


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
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise TvoError(f"non-finite invariant value {v} from {self.method}")
        object.__setattr__(self, "value", v)


def _warnings_for(data: ModularData) -> tuple[str, ...]:
    if not data.is_strictly_anomaly_free:
        u = data.anomaly_phase
        return (f"data is not strictly anomaly-free (anomaly phase {u:.6f}); "
                "no framing correction applied",)
    return ()


@dataclass(frozen=True)
class PlumbingTree:
    """Framed-unknot tree: vertices (id, framing) and unordered edges between ids.

    ``schedule`` is the contraction order found while proving the tree
    connected: breadth-first from the first vertex, children in id order, one
    ``(framing, degree, child positions)`` entry per vertex, every vertex
    after its parent.
    """

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]
    schedule: tuple[tuple[int, int, tuple[int, ...]], ...] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        verts = tuple((int(v), int(a)) for v, a in self.vertices)
        edges = tuple((int(u), int(v)) for u, v in self.edges)
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


def _contract(data: ModularData, tree: PlumbingTree, method: str) -> InvariantValue:
    """The surgery sum of ``tree``, contracted leaf-first along its schedule.

    Each vertex carries t^framing S_0^(2-deg) and each edge one S @ child;
    a vertex multiplies in its children in id order, so the summation order
    is fixed and repeated calls give the same bits.
    """
    s0 = data.S[:, 0]
    if (any(deg > 1 for _, deg, _ in tree.schedule)
            and float(np.abs(s0).min()) <= data.tolerance):
        raise DegenerateDataError("S column 0 has (near-)zero entries")
    order = data._t_order
    bases = {}
    messages = [None] * len(tree.schedule)
    for k in range(len(tree.schedule) - 1, -1, -1):
        a, deg, kids = tree.schedule[k]
        if order is not None and abs(a) >= order:  # t^N = 1: exact, unlike a huge float power
            a %= order
        vec = bases.get((a, deg))
        if vec is None:
            vec = bases[(a, deg)] = data.T ** a * s0 ** (2 - deg)
        for c in kids:
            vec = vec * (data.S @ messages[c])
            messages[c] = None
        messages[k] = vec
    return InvariantValue(complex(messages[0].sum()), method, _warnings_for(data))


def lens_p1(data: ModularData, p: int) -> InvariantValue:
    """sum_i t_i^p S_i0^2. p = 0 is allowed (the value for S^1 x S^2)."""
    if p < 0:
        raise PreconditionError("lens_p1 requires p >= 0")
    return _contract(data, PlumbingTree.single(p), f"lens_p1(p={p})")


def lens_p2(data: ModularData, p: int) -> InvariantValue:
    """sum_ij t_i^((p+1)/2) t_j^2 S_i0 S_j0 S_ij, for odd positive p."""
    if p < 1 or p % 2 == 0:
        raise PreconditionError("lens_p2 requires odd positive p")
    return _contract(data, PlumbingTree.chain([(p + 1) // 2, 2]), f"lens_p2(p={p})")


def brieskorn(data: ModularData, p: int, q: int, r: int) -> InvariantValue:
    """The quadruple sum over (i,j,k,l): the star with center framing 1, legs p, q, r.

    Its first homology has order |pqr - pq - pr - qr|; it is the value of the
    Brieskorn sphere Sigma(p,q,r) only when that order is 1.
    """
    if min(p, q, r) < 2:
        raise PreconditionError("brieskorn requires p, q, r >= 2")
    return _contract(data, PlumbingTree.star(1, (p, q, r)), f"brieskorn(p={p},q={q},r={r})")


def plumbing_invariant(data: ModularData, tree: PlumbingTree) -> InvariantValue:
    """The surgery formula on an arbitrary plumbing tree, rooted at its first vertex."""
    return _contract(data, tree, f"plumbing(tree with {len(tree.vertices)} vertices)")


def negative_continued_fraction(p: int, q: int) -> list[int]:
    """Coefficients [a1, ..., am], all >= 2 except possibly a1, with
    p/q = a1 - 1/(a2 - 1/(...)), computed by the ceiling recursion."""
    if p < 1 or q < 1:
        raise PreconditionError("continued fraction requires positive p, q")
    out = []
    while q > 0:
        a = -(-p // q)
        out.append(a)
        p, q = q, a * q - p
    return out


def lens_general(data: ModularData, p: int, q: int) -> InvariantValue:
    """L(p, q) via the framed chain of the negative continued fraction of p/q.

    Requires gcd(p, q) = 1 and 0 < q < p (p = 1 gives the 3-sphere for any q).
    """
    if p < 1 or q < 1:
        raise PreconditionError("lens_general requires positive p, q")
    if math.gcd(p, q) != 1:
        raise PreconditionError(f"lens_general requires gcd(p, q) = 1, got ({p},{q})")
    if p == 1:
        chain = [1]
    else:
        if q >= p:
            raise PreconditionError("lens_general requires q < p")
        chain = negative_continued_fraction(p, q)
    shown = f"chain={chain}" if len(chain) <= 8 else f"chain of {len(chain)} vertices"
    return _contract(data, PlumbingTree.chain(chain), f"lens_general(p={p},q={q},{shown})")
