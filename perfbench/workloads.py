"""The four workloads: inputs made from a seed, the timed operations, their checks.

``WORKLOADS[name](seed, workdir, small)`` builds one workload's inputs and
returns a :class:`Workload`. Every round runs the same operations in the
same order, so a run of whole rounds always attempts the same mix.
``small`` shrinks every input for the benchmark's own tests.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

import checks
import tvo
from checks import close


class Clock:
    """Adds up the time spent inside library calls of the current operation."""

    __slots__ = ("elapsed",)

    def __init__(self):
        self.elapsed = 0.0

    def call(self, fn, *args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.elapsed += perf_counter() - t0


@dataclass
class Op:
    key: tuple
    run: Callable  # (Clock) -> output; only library calls go through the clock
    check: Callable  # (output, outputs of the round by key) -> bool
    counts: dict = field(default_factory=dict)  # per-execution sizes for the trace
    probe: Callable | None = None  # (output) -> triangulation for the layout probe


@dataclass
class Workload:
    ops: list
    setup_counts: dict = field(default_factory=dict)


def _expected(fn):
    """Compute a reference value once, on the first check that needs it."""
    cell = []

    def get():
        if not cell:
            cell.append(fn())
        return cell[0]

    return get


# ---------------------------------------------------------------------------
# algebra: data files through the Verlinde suite, and tube-algebra centres
# ---------------------------------------------------------------------------

def build_algebra(seed: int, workdir: str, small: bool) -> Workload:
    rng = np.random.default_rng([seed, 1])
    kk = lambda n: int(rng.integers(n))  # noqa: E731
    if small:
        files = [("twisted", 3, kk(3)), ("su2double", 2, None), ("abelian", (2, 2), None)]
        tubes = [(3, kk(3)), (4, kk(4))]
    else:
        # one data set per rank 25, 36, 49, 64, 81
        files = [("twisted", 5, kk(5)), ("su2double", 5, None), ("twisted", 7, kk(7)),
                 ("su2double", 7, None), ("abelian", (3, 3), None)]
        k6 = rng.choice(6, size=2, replace=False)
        tubes = [(5, kk(5)), (6, int(k6[0])), (6, int(k6[1])), (7, kk(7))]

    ops = []
    for i, (kind, param, k) in enumerate(files):
        if kind == "twisted":
            data = tvo.twisted_double_cyclic(param, k)
            law = _expected(lambda n=param, k=k: checks.twisted_double_fusion(n, k))
        elif kind == "su2double":
            data = tvo.double_data(tvo.su2_level_k(param))
            law = _expected(lambda lv=param: checks.double_fusion(checks.su2_fusion(lv)))
        else:
            data = tvo.quantum_double_abelian(tvo.FiniteAbelianGroup(param))
            law = _expected(lambda f=param: checks.abelian_double_fusion(f))
        path = os.path.join(workdir, f"data-{i}-rank{data.rank}.txt")
        tvo.save_modular_file(data, path)
        ops.append(_file_op(path, data, law))
    for n, k in tubes:
        ops.append(_tube_op(n, k, tvo.twisted_double_cyclic(n, k).conjugate()))
    return Workload(ops)


def _file_op(path, source, law):
    def run(clock):
        data = clock.call(tvo.load_modular_file, path)
        report = clock.call(tvo.verify_verlinde, data)
        table = clock.call(tvo.fusion_from_S, data)
        return data, report, table

    def check(out, _):
        data, report, table = out
        return (np.array_equal(data.S, source.S) and np.array_equal(data.T, source.T)
                and report.strict_pass and np.array_equal(table.N, law()))

    return Op(("file", path), run, check, {"dataio.bytes_read": os.path.getsize(path)})


def _tube_op(n, k, twisted_conj):
    def run(clock):
        alg = clock.call(tvo.tube_pointed, n, k)
        md = clock.call(tvo.tube_modular_data, alg)
        perm = clock.call(tvo.conjugate_equivalent, md, twisted_conj)
        return md, perm

    def check(out, _):
        md, perm = out
        if perm is None or sorted(perm.tolist()) != list(range(n * n)) or perm[0] != 0:
            return False
        # conjugate_equivalent(a, conj(b)) claims S^a = S^b o pi and t^a = t^b o pi
        S = twisted_conj.S.conj()[np.ix_(perm, perm)]
        T = twisted_conj.T.conj()[perm]
        return (np.abs(md.S - S).max() <= checks.TOL and np.abs(md.T - T).max() <= checks.TOL)

    return Op(("tube", n, k), run, check)


# ---------------------------------------------------------------------------
# surgery: thousands of small invariants
# ---------------------------------------------------------------------------

#: L(p, p-1) on the toric code: a chain of p-1 vertices, which the recursive
#: tree contraction cannot reach today (RecursionError). Fixed, seed-free.
LONG_CHAINS = (1000, 1500, 2000)


#: the |Z|^2 check on SU(2) data loses its digits on long trees whose value
#: cancels to ~0 (roundoff up to ~1e-8 from 40 vertices on), so those trees run on
#: abelian doubles only, where the count check is exact
SU2_TREE_MAX = 25


def _random_tree(rng, size):
    framings = [int(x) for x in rng.integers(-4, 5, size=size)]
    edges = [(int(rng.integers(v)), v) for v in range(1, size)]
    return framings, edges


def build_surgery(seed: int, workdir: str, small: bool) -> Workload:
    rng = np.random.default_rng([seed, 2])
    P = 8 if small else 20
    tree_sizes = (4, 7) if small else (6, 12, 25, 40, 55, 70, 85, 100)
    triples = [(p, q, r) for p in range(2, 5 if small else 8)
               for q in range(p, 5 if small else 8) for r in range(q, 5 if small else 8)]
    g4 = ((4,), (2, 2))[int(rng.integers(2))]
    g9 = ((9,), (3, 3))[int(rng.integers(2))]
    abelian = [(2,), (3,)] if small else [(2,), (3,), g4, g9]
    twisted = [(3, 1 + int(rng.integers(2)))] + ([] if small else [(5, 1 + int(rng.integers(4)))])
    levels = (2,) if small else (3, 8)

    trees = []
    for size in tree_sizes:
        framings, edges = _random_tree(rng, size)
        trees.append((framings, edges, tvo.PlumbingTree(tuple(enumerate(framings)), tuple(edges))))

    # (name, data, kind, extra): kind decides which checks apply
    sets = []
    for f in abelian:
        sets.append(("dw" + "x".join(map(str, f)),
                     tvo.quantum_double_abelian(tvo.FiniteAbelianGroup(f)), "abelian", f))
    for n, k in twisted:
        sets.append((f"tw{n}-{k}", tvo.twisted_double_cyclic(n, k), "twisted", n))
    for lv in levels:
        base = tvo.su2_level_k(lv)
        sets.append((f"su2-{lv}", base, "su2", f"dsu2-{lv}"))
        sets.append((f"dsu2-{lv}", tvo.double_data(base), "su2double", f"su2-{lv}"))

    ops = []
    for name, data, kind, extra in sets:
        for p in range(2, P + 1):
            for q in range(1, p):
                if math.gcd(p, q) == 1:
                    ops.append(_surgery_op(("lens", name, p, q), kind, extra,
                                           tvo.lens_general, data, p, q))
        for p in range(1, P + 1):
            ops.append(_surgery_op(("p1", name, p), kind, extra, tvo.lens_p1, data, p))
            if p % 2:
                ops.append(_surgery_op(("p2", name, p), kind, extra, tvo.lens_p2, data, p))
        if kind == "twisted":
            continue  # no independent value for stars and trees on twisted data
        for t in triples:
            ops.append(_surgery_op(("bk", name, *t), kind, extra, tvo.brieskorn, data, *t))
        for i, (framings, edges, tree) in enumerate(trees):
            if kind != "abelian" and len(framings) > SU2_TREE_MAX:
                continue
            ops.append(_surgery_op(("tree", name, i, tuple(framings), tuple(edges)), kind, extra,
                                   tvo.plumbing_invariant, data, tree))
    toric = sets[0]
    for p in LONG_CHAINS:
        ops.append(_surgery_op(("lens", toric[0], p, p - 1), "abelian", toric[3],
                               tvo.lens_general, toric[1], p, p - 1))
    return Workload(ops)


def _surgery_expected(key, factors):
    kind, _, *args = key
    if kind in ("lens", "p1", "p2"):
        return checks.lens_hom_value(args[0], factors)
    if kind == "bk":
        return checks.tree_hom_value(*checks.star(1, args), factors)
    framings, edges = args[1], args[2]
    return checks.tree_hom_value(framings, edges, factors)


def _surgery_op(key, kind, extra, fn, *args):
    def run(clock):
        return clock.call(fn, *args).value

    op_kind, name, *rest = key
    counts = {"surgery.calls": 1}
    if op_kind == "tree":
        counts["surgery.tree_vertices"] = len(rest[1])

    def same_as(out, outs, other_key, conj=False):
        return close(out.conjugate() if conj else out, outs[other_key])

    def chain_agrees(out, outs):
        # lens_p1 = lens_general(q = 1) and lens_p2 = lens_general(q = 2), same chain
        if op_kind == "p1" and rest[0] >= 2:
            return close(out, outs[("lens", name, rest[0], 1)])
        if op_kind == "p2" and rest[0] >= 3:
            return close(out, outs[("lens", name, rest[0], 2)])
        return True

    if kind == "abelian":
        expected = _expected(lambda: complex(_surgery_expected(key, extra)))

        def check(out, outs):
            return close(out, expected()) and chain_agrees(out, outs)
    elif kind == "twisted":
        def check(out, outs):
            if op_kind == "lens":
                p, q = rest
                return (same_as(out, outs, ("lens", name, p, pow(q, -1, p)))
                        and same_as(out, outs, ("lens", name, p, p - q), conj=True))
            if rest[0] == 1:  # L(1, q) is the 3-sphere: only the trivial homomorphism
                return close(out, 1.0 / extra)
            return chain_agrees(out, outs)
    else:
        partner_key = (op_kind, extra, *rest)

        def check(out, outs):
            partner = outs[partner_key]
            base, double = (out, partner) if kind == "su2" else (partner, out)
            if not close(double, abs(base) ** 2):
                return False
            if kind == "su2double" and op_kind == "lens":
                p, q = rest
                return (same_as(out, outs, ("lens", name, p, pow(q, -1, p)))
                        and same_as(out, outs, ("lens", name, p, p - q), conj=True))
            return chain_agrees(out, outs)

    return Op(key, run, check, counts)


# ---------------------------------------------------------------------------
# statesum-deep: the coloring enumeration on seeded 3-spheres with V = 8-10
# ---------------------------------------------------------------------------

def _legal_23(tri):
    """Faces between two tetrahedra whose apexes lie in distinct vertex classes."""
    vclass = tri.vertex_class
    return [(t, f) for (t, f), (t2, perm) in tri.gluings.items()
            if t2 != t and (t, f) < (t2, perm[f]) and vclass[t][f] != vclass[t2][perm[f]]]


def _fresh(tri):
    """The same complex without its cached classes, so every round does the same work."""
    return tvo.Triangulation(tri.num_tets, tri.gluings)


def build_statesum_deep(seed: int, workdir: str, small: bool) -> Workload:
    rng = np.random.default_rng([seed, 3])
    if small:
        specs, vertices, moves23, copies = [(2, 0), (2, 1)], {2: 6}, {2: 2}, 1
    else:
        # 3^9 leaves on 22 tetrahedra cost about what 4^7 leaves on 28 do, so
        # the median operation does not sit between two classes of cost
        specs = [(3, k) for k in range(3)] + [(4, k) for k in range(4)]
        vertices, moves23, copies = {3: 10, 4: 8}, {3: 2, 4: 14}, 2
    sixjs = {spec: tvo.pointed_sixj(*spec) for spec in specs}
    ops = []
    moves = 0
    for n, k in specs:
        for c in range(copies):
            n14, n23 = vertices[n] - 5, moves23[n]
            plan = rng.permutation(["14"] * n14 + ["23"] * n23)
            tri = tvo.boundary_4_simplex()
            for move in plan:
                if move == "14":
                    tri = tvo.pachner_14(tri, int(rng.integers(tri.num_tets)))
                else:
                    legal = _legal_23(tri)
                    tri = tvo.pachner_23(tri, *legal[int(rng.integers(len(legal)))])
            moves += len(plan)
            counts = (5 + n14, 10 + 4 * n14 + n23, 2 * (5 + 3 * n14 + n23), 5 + 3 * n14 + n23, True)
            ops.append(_statesum_op((n, k, c), sixjs[(n, k)], tri, counts))
    return Workload(ops, {"triangulation.moves": moves})


def _statesum_op(key, sixj, tri, counts):
    n = sixj.num_labels

    def run(clock):
        fresh = _fresh(tri)
        report = clock.call(tvo.verify_pentagon, sixj)
        value = clock.call(tvo.tv_evaluate, sixj, fresh).value
        return report.passed, value

    def check(out, _):
        passed, value = out
        return passed and close(value, 1.0 / n) and checks.complex_counts(
            tri.num_tets, tri.gluings) == counts

    return Op(("tv", *key), run, check,
              {"statesum.edges": counts[1], "statesum.vertices": counts[0]},
              probe=lambda out: _fresh(tri))


# ---------------------------------------------------------------------------
# pachner-long: a long walk of moves, the layout on many edges and few vertices
# ---------------------------------------------------------------------------

def _vertex_class(tri):
    return tri.vertex_class


def build_pachner_long(seed: int, workdir: str, small: bool) -> Workload:
    segments, per_segment = (3, 8) if small else (10, 40)
    total = segments * per_segment
    # one 1-4 move somewhere in the walk keeps V at 6; the rest are 2-3 moves
    move14_at = int(np.random.default_rng([seed, 4]).integers(total))
    sixj = tvo.pointed_sixj(2, 1)
    state = {}
    ops = []
    for s in range(segments):
        steps = range(s * per_segment, (s + 1) * per_segment)
        done = steps[-1] + 1
        with_14 = move14_at < done
        size = {"statesum.edges": 10 + done + 3 * with_14,
                "statesum.vertices": 5 + with_14,
                "triangulation.moves": per_segment}
        ops.append(_segment_op(s, seed, steps, move14_at, sixj, state, size))
    return Workload(ops)


def _segment_op(index, seed, steps, move14_at, sixj, state, size):
    def run(clock):
        if index == 0:
            state["tri"] = clock.call(tvo.boundary_4_simplex)
            state["rng"] = np.random.default_rng([seed, 5])
        tri, rng = state["tri"], state["rng"]
        # only the counts of each complex are kept for the check, so the walk
        # holds one complex at a time, as a user's would
        counts = [("start", checks.complex_counts(tri.num_tets, tri.gluings))]
        for step in steps:
            if step == move14_at:
                tri = clock.call(tvo.pachner_14, tri, int(rng.integers(tri.num_tets)))
                move = "14"
            else:
                clock.call(_vertex_class, tri)
                legal = _legal_23(tri)
                tri = clock.call(tvo.pachner_23, tri, *legal[int(rng.integers(len(legal)))])
                move = "23"
            counts.append((move, checks.complex_counts(tri.num_tets, tri.gluings)))
        state["tri"] = tri
        value = clock.call(tvo.tv_evaluate, sixj, tri).value
        return value, counts

    def check(out, _):
        value, counts = out
        if not close(value, 0.5):
            return False
        prev = None
        for move, (V, E, F, T, orientable) in counts:
            if not orientable or V - E + F - T != 0:
                return False
            if move == "23" and (V, E, T) != (prev[0], prev[1] + 1, prev[3] + 1):
                return False
            if move == "14" and (V, E, T) != (prev[0] + 1, prev[1] + 4, prev[3] + 3):
                return False
            prev = (V, E, F, T)
        return True

    return Op(("segment", index), run, check, size, probe=lambda out: _fresh(state["tri"]))


WORKLOADS = {
    "algebra": build_algebra,
    "surgery": build_surgery,
    "statesum-deep": build_statesum_deep,
    "pachner-long": build_pachner_long,
}
