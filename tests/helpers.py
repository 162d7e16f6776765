"""Independent brute-force oracles used to pin the fast evaluators.

Everything here is written as plainly as possible (nested loops, full
enumeration, no pruning or contraction tricks) so that agreement with the
library is meaningful.
"""

import cmath
import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np

from tvo.triangulation import Triangulation
# the random walk is library code, re-exported under the name the tests use
from tvo.triangulation import random_pachner_walk as random_pachner_sequence  # noqa: F401


def verlinde_loops(S):
    """Literal triple-sum Verlinde coefficients."""
    m = S.shape[0]
    N = np.zeros((m, m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                acc = 0.0 + 0.0j
                for l in range(m):
                    acc += S[i, l] * S[j, l] * np.conj(S[l, k]) / S[0, l]
                N[i, j, k] = acc
    return N


def verlinde_by_row_gemms(S):
    """Verlinde sums as one complex GEMM per row, (S_i * S) @ (conj(S) / S_0).

    The same products in the same order as the library's streamed pass, so
    the sums, and the certificate bound read from them, agree bit for bit;
    the rounding below is written out separately from the library's.
    """
    m = S.shape[0]
    out = np.empty((m, m, m), dtype=complex)
    weighted = S.conj() / S[0][:, np.newaxis]
    for i in range(m):
        np.matmul(S[i] * S, weighted, out=out[i])
    return out


def round_verlinde_sums(Nc, tol):
    """Sums rounded to integers, the worst real or imaginary distance from
    them, and the mask of entries farther than ``tol`` or rounded below 0."""
    Nr = np.round(Nc.real)
    dev_re = np.abs(Nc.real - Nr)
    dev_im = np.abs(Nc.imag)
    bad = (dev_re > tol) | (dev_im > tol) | (Nr < 0)
    return Nr, max(float(dev_re.max()), float(dev_im.max())), bad


def fusion_associative_loops(N):
    """sum_x N[i][j][x] N[x][k][l] == sum_y N[j][k][y] N[i][y][l] for every i, j, k, l,
    in exact Python integers."""
    N = [[[int(v) for v in row] for row in plane] for plane in N]
    m = len(N)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    lhs = 0
                    rhs = 0
                    for x in range(m):
                        lhs += N[i][j][x] * N[x][k][l]
                        rhs += N[j][k][x] * N[i][x][l]
                    if lhs != rhs:
                        return False
    return True


def lens_p1_loops(S, T, p):
    return sum(T[i] ** p * S[i, 0] ** 2 for i in range(S.shape[0]))


def lens_p2_loops(S, T, p):
    m = S.shape[0]
    acc = 0.0 + 0.0j
    for i in range(m):
        for j in range(m):
            acc += T[i] ** ((p + 1) // 2) * T[j] ** 2 * S[i, 0] * S[j, 0] * S[i, j]
    return acc


def brieskorn_loops(S, T, p, q, r):
    """The printed quadruple sum, evaluated with four nested loops."""
    m = S.shape[0]
    acc = 0.0 + 0.0j
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    acc += (
                        T[i] ** p
                        * T[j] ** q
                        * T[k] ** r
                        * T[l]
                        * S[i, 0]
                        * S[j, 0]
                        * S[k, 0]
                        * S[i, l]
                        * S[j, l]
                        * S[k, l]
                        / S[l, 0]
                    )
    return acc


def negative_continued_fraction_loop(p, q):
    """[a1, ..., am] with p/q = a1 - 1/(a2 - 1/(...)), one term per step of
    the ceiling recursion a = ceil(p/q), (p, q) -> (q, a q - p)."""
    out = []
    while q > 0:
        a = -(-p // q)
        out.append(a)
        p, q = q, a * q - p
    return out


def chain_surgery_loops(S, T, framings):
    """The surgery sum of the framed chain ``framings``, one vertex at a time
    from the first: the row vector w carries the sum over the colors of the
    vertices passed, w_j = sum_i w_i S_ij times t_j^a at each vertex, and each
    end vertex carries one factor S_0j (an interior vertex S_0j^0 = 1)."""
    framings = list(framings)
    s0 = np.array([S[j, 0] for j in range(S.shape[0])])
    if len(framings) == 1:
        return complex((T ** framings[0] * s0 * s0).sum())
    w = T ** framings[0] * s0
    for a in framings[1:]:
        w = (w @ S) * T ** a
    return complex((w * s0).sum())


def abelian_double_loops(factors):
    """S and T of the untwisted double of the product of Z/n, n in ``factors``.

    Label (g, h) sits at index(g) * |G| + index(h), elements in lexicographic
    order; chi_h(g) = exp(2 pi i sum_c (g_c h_c mod n_c) / n_c),
    S_(g,h),(g2,h2) = conj(chi_h(g2) chi_h2(g)) / |G| and t_(g,h) = chi_h(g).
    """
    group = list(itertools.product(*(range(n) for n in factors)))
    labels = [(g, h) for g in group for h in group]

    def chi(h, g):
        return cmath.exp(2j * math.pi * sum(a * b % n / n for a, b, n in zip(g, h, factors)))

    size = len(labels)
    S = np.zeros((size, size), dtype=complex)
    T = np.zeros(size, dtype=complex)
    for i, (g, h) in enumerate(labels):
        T[i] = chi(h, g)
        for j, (g2, h2) in enumerate(labels):
            S[i, j] = (chi(h, g2) * chi(h2, g)).conjugate() / len(group)
    return S, T


def twisted_double_loops(n, k, reduced=False):
    """S and T of the twisted double of Z/n with cocycle parameter k.

    Label (a, i) sits at a * n + i; psi_(a,i)(x) = exp(2 pi i (k a x / n + i x) / n),
    S_(a,i),(b,j) = conj(psi_(a,i)(b) psi_(b,j)(a)) / n and t_(a,i) = psi_(a,i)(a).
    With ``reduced`` the integer numerator k a x + n i x is taken mod n^2
    before it becomes an angle, so every angle is below 2 pi.
    """
    k = k % n

    def psi(a, i, x):
        if reduced:
            return cmath.exp(2j * math.pi * ((k * a * x + n * i * x) % (n * n)) / (n * n))
        return cmath.exp(2j * math.pi * (k * a * x / n + i * x) / n)

    labels = [(a, i) for a in range(n) for i in range(n)]
    S = np.zeros((n * n, n * n), dtype=complex)
    T = np.zeros(n * n, dtype=complex)
    for p, (a, i) in enumerate(labels):
        T[p] = psi(a, i, a)
        for q, (b, j) in enumerate(labels):
            S[p, q] = (psi(a, i, b) * psi(b, j, a)).conjugate() / n
    return S, T


def star_linking_matrix(center, legs):
    """Linking matrix of a star plumbing: the center first, then one row per leg."""
    size = 1 + len(legs)
    L = [[0] * size for _ in range(size)]
    L[0][0] = center
    for i, a in enumerate(legs, start=1):
        L[i][i] = a
        L[0][i] = 1
        L[i][0] = 1
    return L


def integer_determinant(L):
    """Determinant of a square integer matrix by Laplace expansion along row 0."""
    size = len(L)
    if size == 1:
        return L[0][0]
    total = 0
    for j in range(size):
        minor = [row[:j] + row[j + 1:] for row in L[1:]]
        total += (-1) ** j * L[0][j] * integer_determinant(minor)
    return total


def surgery_hom_count(L, factors):
    """|Hom(H_1, G)| / |G| for the manifold with integer linking matrix L.

    G is the product of the cyclic groups Z/n for n in ``factors``. H_1 is
    the cokernel of L, so Hom(H_1, G) is the set of x in G^V with L x = 0;
    every x is tried, one cyclic factor at a time in each coordinate.
    """
    size = len(L)
    group = list(itertools.product(*(range(n) for n in factors)))
    count = 0
    for x in itertools.product(group, repeat=size):
        ok = True
        for u in range(size):
            for c, n in enumerate(factors):
                if sum(L[u][v] * x[v][c] for v in range(size)) % n != 0:
                    ok = False
        if ok:
            count += 1
    return Fraction(count, len(group))


#: the six local edges of a tetrahedron, in the order the library numbers them
LOCAL_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _flood(slots, neighbours):
    """Class of each slot: a breadth-first flood from each unlabelled slot in
    turn, so classes are numbered by their first slot."""
    label = {}
    count = 0
    for start in slots:
        if start in label:
            continue
        label[start] = count
        queue = deque([start])
        while queue:
            for other in neighbours.get(queue.popleft(), []):
                if other not in label:
                    label[other] = count
                    queue.append(other)
        count += 1
    return label


def classes_by_flood_fill(num_tets, gluings):
    """Vertex classes, edge classes and orientation of a gluing complex.

    Corner (t, v) meets corner (t2, perm[v]) across each gluing of face
    (t, f), and local edge {a, b} meets {perm[a], perm[b]}; classes are
    flooded breadth-first and numbered by first appearance in (t, slot)
    order. The orientation is flooded from each unsigned tetrahedron in turn
    with sign +1 by o(t2) = -o(t) (-1)^(f+f2) sign(images of the sorted face
    vertices), and is None when two gluings ask for different signs.
    Returns (vertex_class, edge_class, orientation) with one row per
    tetrahedron.
    """
    corner_nbrs, edge_nbrs, signed_nbrs = {}, {}, {}
    for (t, f), (t2, perm) in gluings.items():
        face = [v for v in range(4) if v != f]
        for v in face:
            corner_nbrs.setdefault((t, v), []).append((t2, perm[v]))
        for a, b in LOCAL_EDGES:
            if f not in (a, b):
                image = tuple(sorted((perm[a], perm[b])))
                edge_nbrs.setdefault((t, (a, b)), []).append((t2, image))
        images = [perm[v] for v in face]
        inversions = sum(
            1 for i in range(3) for j in range(i + 1, 3) if images[i] > images[j]
        )
        sign = -((-1) ** (f + perm[f])) * (-1) ** inversions
        signed_nbrs.setdefault(t, []).append((t2, sign))

    corner = _flood([(t, v) for t in range(num_tets) for v in range(4)], corner_nbrs)
    edge = _flood([(t, pair) for t in range(num_tets) for pair in LOCAL_EDGES], edge_nbrs)
    vertex_class = [[corner[(t, v)] for v in range(4)] for t in range(num_tets)]
    edge_class = [[edge[(t, pair)] for pair in LOCAL_EDGES] for t in range(num_tets)]

    orientation = [0] * num_tets
    for start in range(num_tets):
        if orientation[start]:
            continue
        orientation[start] = 1
        queue = deque([start])
        while queue:
            t = queue.popleft()
            for t2, sign in signed_nbrs.get(t, []):
                needed = orientation[t] * sign
                if orientation[t2] == 0:
                    orientation[t2] = needed
                    queue.append(t2)
                elif orientation[t2] != needed:
                    return vertex_class, edge_class, None
    return vertex_class, edge_class, orientation


def tv_bruteforce(sixj, tri: Triangulation):
    """Full enumeration of all edge colorings, no pruning or forcing.

    Re-derives the classes and orientation (``classes_by_flood_fill``), the
    rank orders and the face constraints from the gluings, independently of
    the library's class data and the evaluator's schedule machinery.
    """
    vclass, eclass, orient = classes_by_flood_fill(tri.num_tets, tri.gluings)
    V = len({c for row in vclass for c in row})
    E = len({c for row in eclass for c in row})
    # a closed complex with Euler characteristic V - E + F - T = 0, F = 2T
    assert len(tri.gluings) == 4 * tri.num_tets and V - E + tri.num_tets == 0
    assert orient is not None
    n = sixj.num_labels
    edge_idx = {pair: i for i, pair in enumerate(LOCAL_EDGES)}

    def parity(seq):
        inv = sum(
            1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
        )
        return -1 if inv % 2 else 1

    face_constraints = []
    for t in range(tri.num_tets):
        for f in range(4):
            slots = sorted((v for v in range(4) if v != f), key=lambda v: vclass[t][v])
            x, y, z = slots
            face_constraints.append(
                (
                    eclass[t][edge_idx[tuple(sorted((x, y)))]],
                    eclass[t][edge_idx[tuple(sorted((y, z)))]],
                    eclass[t][edge_idx[tuple(sorted((x, z)))]],
                )
            )

    tet_keys = []
    for t in range(tri.num_tets):
        rs = sorted(range(4), key=lambda v: vclass[t][v])
        key = tuple(
            eclass[t][edge_idx[tuple(sorted((rs[i], rs[j])))]]
            for i in range(4)
            for j in range(i + 1, 4)
        )
        tet_keys.append((key, orient[t] * parity(rs)))

    total = 0.0 + 0.0j
    for colors in itertools.product(range(n), repeat=E):
        if any(
            (colors[a], colors[b], colors[c]) not in sixj.admissible
            for a, b, c in face_constraints
        ):
            continue
        w = 1.0 + 0.0j
        for key, eps in tet_keys:
            val = sixj.weights[tuple(colors[e] for e in key)]
            w *= val if eps > 0 else np.conj(val)
        total += w
    return total * sixj.global_index ** (-V)


def two_tet_sphere() -> Triangulation:
    """The double of a tetrahedron: two tets glued along all four faces by identity maps."""
    ident = (0, 1, 2, 3)
    gluings = {}
    for f in range(4):
        gluings[(0, f)] = (1, ident)
        gluings[(1, f)] = (0, ident)
    return Triangulation(2, gluings)


def barycentric_subdivision(tri: Triangulation) -> Triangulation:
    """The barycentric subdivision of a closed complex, through the constructor alone.

    Tetrahedron t becomes 24 tetrahedra, one per flag sigma of its slots (a
    permutation, numbered as ``itertools.permutations`` lists them); slot i
    of the flag's tetrahedron is the centre of its i-cell, the cell spanned
    by sigma[0..i]. Face i < 3 is glued by the identity to the flag with
    sigma[i] and sigma[i + 1] swapped; face 3 lies on face sigma[3] of t and
    is glued by the identity to the flag perm o sigma of the tetrahedron
    across it. Every vertex class then has a type (vertex, edge, face or
    tetrahedron centre), so each tetrahedron has four distinct classes.
    """
    flags = list(itertools.permutations(range(4)))
    number = {sigma: i for i, sigma in enumerate(flags)}
    ident = (0, 1, 2, 3)
    gluings = {}
    for t in range(tri.num_tets):
        for sigma in flags:
            here = 24 * t + number[sigma]
            for i in range(3):
                swapped = list(sigma)
                swapped[i], swapped[i + 1] = sigma[i + 1], sigma[i]
                gluings[(here, i)] = (24 * t + number[tuple(swapped)], ident)
            t2, perm = tri.gluings[(t, sigma[3])]
            gluings[(here, 3)] = (24 * t2 + number[tuple(perm[v] for v in sigma)], ident)
    return Triangulation(24 * tri.num_tets, gluings)


def read_modular_text(text):
    """Naive line-by-line reading of the modular data file format.

    Returns ``(S, T, labels)`` (complex arrays and a label tuple or None)
    for a sound file, else the message of the first fault: the first
    faulty line in file order, then a missing rank, then the first missing
    S entry in row-major order, then the first missing T entry. Lines end
    at ``\\n``, ``\\r\\n`` or ``\\r``, as in a text-mode read; ``#`` starts
    a comment; fields are split on whitespace.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    rank = None
    S, T, labels = {}, {}, {}
    fields = {"rank": 1, "S": 4, "T": 3}
    for lineno, raw in enumerate(lines, start=1):
        toks = raw.split("#")[0].split()
        if not toks:
            continue
        kind = toks[0]
        where = f"line {lineno}"
        if kind not in ("rank", "label", "S", "T"):
            return f"{where}: unknown directive {kind!r}"
        if kind == "rank" and rank is not None:
            return f"{where}: duplicate rank directive"
        if kind != "rank" and rank is None:
            before = {"label": "label", "S": "S entry", "T": "T entry"}[kind]
            return f"{where}: {before} before rank"
        if kind in fields and len(toks) != fields[kind] + 1:
            return f"{where}: {kind} needs {fields[kind]} fields"
        try:
            if kind == "rank":
                rank = int(toks[1])
                if rank < 1:
                    return f"{where}: rank must be positive"
            elif kind == "label":
                i = int(toks[1])
                if i < 0 or i >= rank:
                    return f"{where}: label index {i} out of range"
                if i in labels:
                    return f"{where}: duplicate label {i}"
                labels[i] = " ".join(toks[2:])
            elif kind == "S":
                i = int(toks[1])
                j = int(toks[2])
                if i < 0 or i >= rank or j < 0 or j >= rank:
                    return f"{where}: S index ({i},{j}) out of range"
                if (i, j) in S:
                    return f"{where}: duplicate S entry ({i},{j})"
                S[i, j] = (float(toks[3]), float(toks[4]))
            else:
                i = int(toks[1])
                if i < 0 or i >= rank:
                    return f"{where}: T index {i} out of range"
                if i in T:
                    return f"{where}: duplicate T entry {i}"
                T[i] = (float(toks[2]), float(toks[3]))
        except (IndexError, ValueError) as exc:
            return f"{where}: malformed {kind!r} line ({exc})"
    if rank is None:
        return "no rank directive found"
    for i in range(rank):
        for j in range(rank):
            if (i, j) not in S:
                return (f"missing S entry ({i},{j}): rank {rank} needs {rank * rank} "
                        f"S entries, the file has {len(S)}")
    for i in range(rank):
        if i not in T:
            return (f"missing T entry {i}: rank {rank} needs {rank} T entries, "
                    f"the file has {len(T)}")
    S_arr = np.zeros((rank, rank), dtype=complex)
    T_arr = np.zeros(rank, dtype=complex)
    for (i, j), (re, im) in S.items():
        S_arr[i, j] = complex(re, im)
    for i, (re, im) in T.items():
        T_arr[i] = complex(re, im)
    names = None
    if labels:
        names = tuple(labels.get(i, str(i)) for i in range(rank))
    return S_arr, T_arr, names
