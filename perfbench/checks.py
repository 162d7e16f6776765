"""Independent reference computations for the benchmark's output checks.

Nothing here calls tvo, ``tvo.catalog``'s oracles or ``tests/helpers.py``:
each expected answer is recomputed from counting or group laws, so
agreement with the library is meaningful.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

TOL = 1e-9


def close(a: complex, b: complex, tol: float = TOL) -> bool:
    """Relative comparison above magnitude 1, absolute below."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# surgery: |Hom(H_1, G)| / |G| for abelian G = Z/n1 x Z/n2 x ...
# ---------------------------------------------------------------------------

def lens_hom_value(p: int, factors) -> Fraction:
    """|Hom(Z/p, G)| / |G| = prod gcd(p, n_i) / prod n_i, the value of every L(p, q)."""
    return Fraction(math.prod(math.gcd(p, n) for n in factors), math.prod(factors))


def tree_kernel_count(framings, edges, n: int) -> int:
    """Number of x in (Z/n)^V with L x = 0 for the linking matrix L of a framed tree.

    L has the framings on its diagonal and 1 for each edge. The count runs
    leaf-first over the tree: for each vertex v and each value of x_v, the
    distribution of the sum of its children's values, with every equation
    inside the children's subtrees satisfied. Cost V * n^3; no recursion.
    """
    V = len(framings)
    adj = [[] for _ in range(V)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * V
    order = []
    seen = [False] * V
    seen[0] = True
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                stack.append(w)
    if len(order) != V:
        raise ValueError("edges do not form a spanning tree")
    # F[c][x_c][x_parent]: ways to fill c's subtree, all its equations holding
    F = [None] * V
    for v in reversed(order):
        H = [[1] + [0] * (n - 1) for _ in range(n)]  # H[x_v][s], children sum s
        for c in adj[v]:
            if c == parent[v]:
                continue
            Fc = F[c]
            for xv in range(n):
                old = H[xv]
                new = [0] * n
                for s in range(n):
                    if old[s]:
                        for xc in range(n):
                            w = Fc[xc][xv]
                            if w:
                                new[(s + xc) % n] += old[s] * w
                H[xv] = new
            F[c] = None
        a = framings[v]
        if parent[v] < 0:
            return sum(H[xv][(-a * xv) % n] for xv in range(n))
        F[v] = [[H[xv][(-a * xv - xp) % n] for xp in range(n)] for xv in range(n)]
    raise AssertionError("unreachable")


def tree_hom_value(framings, edges, factors) -> Fraction:
    """|Hom(coker L, G)| / |G|: the kernel count factorizes over the cyclic factors."""
    count = math.prod(tree_kernel_count(framings, edges, n) for n in factors)
    return Fraction(count, math.prod(factors))


def star(center: int, legs) -> tuple[list[int], list[tuple[int, int]]]:
    """Framings and edges of a star plumbing: center vertex 0, one leg vertex per entry."""
    return [center, *legs], [(0, i + 1) for i in range(len(legs))]


# ---------------------------------------------------------------------------
# modular data: fusion rules from group laws and Clebsch-Gordan
# ---------------------------------------------------------------------------

def abelian_double_fusion(factors) -> np.ndarray:
    """N for the untwisted double of G: (g, h) x (g', h') = (g + g', h + h').

    Labels are ordered (index(g), index(h)) with mixed-radix element indices.
    """
    m = math.prod(factors)
    els = list(np.ndindex(*factors))
    idx = {g: i for i, g in enumerate(els)}

    def add(g, h):
        return idx[tuple((a + b) % f for a, b, f in zip(g, h, factors))]

    gsum = np.array([[add(g, h) for h in els] for g in els])
    r = m * m
    N = np.zeros((r, r, r), dtype=np.int64)
    for g1 in range(m):
        for h1 in range(m):
            for g2 in range(m):
                for h2 in range(m):
                    N[g1 * m + h1, g2 * m + h2, gsum[g1, g2] * m + gsum[h1, h2]] = 1
    return N


def twisted_double_fusion(n: int, k: int) -> np.ndarray:
    """N for the twisted double of Z/n: (a, i) x (b, j) = (a + b, i + j + 2k * carry(a, b)).

    With S_(a,i),(c,l) = exp(-2 pi i (2k a c / n + i c + l a) / n) / n, the
    product of the rows of (a, i) and (b, j) is the row of (a + b mod n,
    i + j + 2k carry), carry = (a + b) div n.
    """
    r = n * n
    N = np.zeros((r, r, r), dtype=np.int64)
    for a in range(n):
        for i in range(n):
            for b in range(n):
                for j in range(n):
                    carry = (a + b) // n
                    N[a * n + i, b * n + j, ((a + b) % n) * n + (i + j + 2 * k * carry) % n] = 1
    return N


def su2_fusion(k: int) -> np.ndarray:
    """Truncated Clebsch-Gordan rule of SU(2) level k on labels 0..k (twice the spin)."""
    N = np.zeros((k + 1, k + 1, k + 1), dtype=np.int64)
    for a in range(k + 1):
        for b in range(k + 1):
            for c in range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2):
                N[a, b, c] = 1
    return N


def double_fusion(N: np.ndarray) -> np.ndarray:
    """N of C x C-bar with pair (a, b) at index a * rank + b: the product rule squared."""
    r = N.shape[0]
    return np.einsum("ace,bdf->abcdef", N, N).reshape(r * r, r * r, r * r)


# ---------------------------------------------------------------------------
# triangulations: counts and orientability from the gluing table alone
# ---------------------------------------------------------------------------

_FACE_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _find(parent, x):
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _count_classes(size, pairs) -> int:
    parent = list(range(size))
    for a, b in pairs:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
    return sum(1 for x in range(size) if _find(parent, x) == x)


def _parity(perm) -> int:
    """+1 for an even permutation of 0..3, -1 for an odd one (cycle count)."""
    seen = [False] * 4
    cycles = 0
    for s in range(4):
        if not seen[s]:
            cycles += 1
            while not seen[s]:
                seen[s] = True
                s = perm[s]
    return 1 if (4 - cycles) % 2 == 0 else -1


def complex_counts(num_tets: int, gluings: dict):
    """(V, E, F, T, orientable) of a closed gluing complex.

    Orientable means signs o_t exist with o_t2 = -parity(perm) * o_t across
    every gluing: two coherently oriented tetrahedra meet by an odd
    permutation of their corners.
    """
    corner_pairs = []
    edge_pairs = []
    for (t, f), (t2, perm) in gluings.items():
        if (t2, perm[f]) < (t, f):
            continue  # each glued pair is stored from both sides
        for v in range(4):
            if v != f:
                corner_pairs.append((4 * t + v, 4 * t2 + perm[v]))
        for e, (a, b) in enumerate(_FACE_EDGES):
            if f in (a, b):
                continue
            img = tuple(sorted((perm[a], perm[b])))
            edge_pairs.append((6 * t + e, 6 * t2 + _FACE_EDGES.index(img)))
    V = _count_classes(4 * num_tets, corner_pairs)
    E = _count_classes(6 * num_tets, edge_pairs)
    F = len(gluings) // 2
    sign = [0] * num_tets
    orientable = True
    for start in range(num_tets):
        if sign[start]:
            continue
        sign[start] = 1
        stack = [start]
        while stack and orientable:
            t = stack.pop()
            for f in range(4):
                t2, perm = gluings[(t, f)]
                want = -_parity(perm) * sign[t]
                if sign[t2] == 0:
                    sign[t2] = want
                    stack.append(t2)
                elif sign[t2] != want:
                    orientable = False
                    break
    return V, E, F, num_tets, orientable
