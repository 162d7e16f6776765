"""Dehn surgery evaluators: lens spaces, the Brieskorn star, and plumbing trees.

The closed formulas evaluated here are

    Z(L(p,1))    = sum_i t_i^p S_i0^2
    Z(L(p,2))    = sum_ij t_i^((p+1)/2) t_j^2 S_i0 S_j0 S_ij       (p odd)
    Z(M(p,q,r))  = sum_ijkl t_i^p t_j^q t_k^r t_l
                   S_i0 S_j0 S_k0 S_il S_jl S_kl / S_l0

where M(p,q,r) is the star plumbing with center framing 1 and legs p, q, r
that the quadruple sum presents. It has |H_1| = |pqr - pq - pr - qr|, so it is the
Brieskorn homology sphere Sigma(p,q,r) only when that value is 1 (e.g.
(2,3,5) and (2,3,7), but not (2,5,7) or (3,5,7)).

All three are specializations of the plumbing-tree evaluator: a tree
with framings a_v contributes

    Z = sum_colors prod_v t_{i_v}^{a_v} S_{0 i_v}^{2 - deg(v)}
        prod_{edges (u,v)} S_{i_u i_v}.

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


def lens_p1(data: ModularData, p: int) -> InvariantValue:
    """sum_i t_i^p S_i0^2. p = 0 is allowed (the value for S^1 x S^2)."""
    if p < 0:
        raise PreconditionError("lens_p1 requires p >= 0")
    val = np.sum(data.T**p * data.S[:, 0] ** 2)
    return InvariantValue(complex(val), f"lens_p1(p={p})", _warnings_for(data))


def lens_p2(data: ModularData, p: int) -> InvariantValue:
    """sum_ij t_i^((p+1)/2) t_j^2 S_i0 S_j0 S_ij, for odd positive p."""
    if p < 1 or p % 2 == 0:
        raise PreconditionError("lens_p2 requires odd positive p")
    u = data.T ** ((p + 1) // 2) * data.S[:, 0]
    v = data.T**2 * data.S[:, 0]
    val = u @ data.S @ v
    return InvariantValue(complex(val), f"lens_p2(p={p})", _warnings_for(data))


def brieskorn(data: ModularData, p: int, q: int, r: int) -> InvariantValue:
    """The quadruple sum over (i,j,k,l), contracted over the center color.

    This is the surgery value of the star plumbing with center framing 1 and
    legs p, q, r, whose first homology has order |pqr - pq - pr - qr|. It is
    the value of the Brieskorn sphere Sigma(p,q,r) only when that order is 1.

    For fixed l the sum factorizes into three identical single sums, so the
    evaluation costs O(rank^2) while remaining the printed quadruple sum
    term for term. Summation order is fixed, so results are reproducible.
    """
    if min(p, q, r) < 2:
        raise PreconditionError("brieskorn requires p, q, r >= 2")
    s0 = data.S[:, 0]
    if float(np.abs(s0).min()) <= data.tolerance:
        raise DegenerateDataError("S column 0 has (near-)zero entries")
    # A_e[l] = sum_i t_i^e S_i0 S_il
    A = data.S.T @ (data.T**p * s0)
    B = data.S.T @ (data.T**q * s0)
    C = data.S.T @ (data.T**r * s0)
    val = np.sum(data.T * A * B * C / s0)
    return InvariantValue(complex(val), f"brieskorn(p={p},q={q},r={r})", _warnings_for(data))


@dataclass(frozen=True)
class PlumbingTree:
    """Framed-unknot tree: vertices (id, framing) and unordered edges between ids."""

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        verts = tuple((int(v), int(a)) for v, a in self.vertices)
        edges = tuple((int(u), int(v)) for u, v in self.edges)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", edges)
        ids = [v for v, _ in verts]
        if len(ids) != len(set(ids)):
            raise StructureError("vertex ids must be unique")
        if not ids:
            raise StructureError("a plumbing tree needs at least one vertex")
        idset = set(ids)
        for u, v in edges:
            if u not in idset or v not in idset:
                raise StructureError(f"edge ({u},{v}) references unknown vertex")
            if u == v:
                raise StructureError(f"self-loop at vertex {u}")
        if len(edges) != len(ids) - 1:
            raise StructureError("edge count must be vertex count - 1 (tree)")
        # connectivity
        adj = {v: [] for v in ids}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(ids):
            raise StructureError("edge set is not connected")

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


def plumbing_invariant(data: ModularData, tree: PlumbingTree) -> InvariantValue:
    """Evaluate the tree form of the surgery formula by contraction along the tree.

    Rooted at the first vertex; each vertex carries t^framing S_0^(2-deg) and
    each edge an S contraction. Children are processed in id order, so the
    summation order is deterministic.
    """
    ids = [v for v, _ in tree.vertices]
    framing = dict(tree.vertices)
    adj = {v: [] for v in ids}
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        adj[v].sort()
    deg = {v: len(adj[v]) for v in ids}
    s0 = data.S[:, 0]
    if float(np.abs(s0).min()) <= data.tolerance and any(deg[v] > 1 for v in ids):
        raise DegenerateDataError("S column 0 has (near-)zero entries")

    root = ids[0]
    # message[v] = vector over colors i of the subtree sum at v
    def message(v: int, parent: int | None) -> np.ndarray:
        a = framing[v]
        vec = data.T ** a * s0 ** (2 - deg[v])
        for w in adj[v]:
            if w != parent:
                vec = vec * (data.S @ message(w, v))
        return vec

    val = np.sum(message(root, None))
    return InvariantValue(complex(val), f"plumbing(tree with {len(ids)} vertices)",
                          _warnings_for(data))


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
    result = plumbing_invariant(data, PlumbingTree.chain(chain))
    return InvariantValue(result.value, f"lens_general(p={p},q={q},chain={chain})",
                          result.warnings)
