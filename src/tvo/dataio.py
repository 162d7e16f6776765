"""Line-oriented text formats for modular data and triangulations.

Modular data format::

    # comment
    rank 4
    label 0 1            # label <i> <name>, the name is the rest of the line
    S 0 0 0.5 0.0        # S <i> <j> <re> <im>, all rank^2 entries required
    T 0 1.0 0.0          # T <i> <re> <im>, all rank entries required

Triangulation format::

    tets 5
    glue 0 0 1 0 1 2 3   # glue <t> <f> <t'> <f'> <v0 v1 v2>

where the final triple lists the images of the three face vertices of
(t, f) taken in increasing order. Each glued face pair may be listed from
one or both sides; listing both sides must be involution-consistent.

Plumbing tree format::

    vertex 0 1           # vertex <id> <framing>
    edge 0 1             # edge <u> <v>

Every other directive has exactly the fields shown, and a second label,
S or T line for the same index is an error; errors name the line.
Loading refuses a NaN or inf entry, naming it, but checks no axiom (an S
that fails unitarity loads; run the verifier). Saving writes >= 15
significant digits so a round trip reproduces every double exactly.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ParseError, StructureError
from .modular import ModularData
from .surgery import PlumbingTree
from .triangulation import Triangulation, inverse_perm


def _tokens(path):
    """Yield (line_number, token_list) for non-empty, non-comment lines."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line.split()


def _check_fields(lineno, toks, count):
    if len(toks) != count + 1:
        raise ParseError(f"line {lineno}: {toks[0]} needs {count} fields")


def save_modular_file(data: ModularData, path) -> None:
    """Write modular data in the text format (17 significant digits)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"rank {data.rank}\n")
        if data.labels is not None:
            for i, name in enumerate(data.labels):
                fh.write(f"label {i} {name}\n")
        for i in range(data.rank):
            for j in range(data.rank):
                z = data.S[i, j]
                fh.write(f"S {i} {j} {z.real:.17g} {z.imag:.17g}\n")
        for i in range(data.rank):
            z = data.T[i]
            fh.write(f"T {i} {z.real:.17g} {z.imag:.17g}\n")


def load_modular_file(path) -> ModularData:
    """Parse a modular data file; errors name the offending line or missing entry.

    Entries are collected first and the arrays allocated only once all
    rank^2 + rank of them are present, so memory follows the file's length,
    not the rank it declares.
    """
    rank = None
    S: dict[tuple[int, int], complex] = {}
    T: dict[int, complex] = {}
    labels: dict[int, str] = {}

    for lineno, toks in _tokens(path):
        kind = toks[0]
        try:
            if kind == "rank":
                if rank is not None:
                    raise ParseError(f"line {lineno}: duplicate rank directive")
                _check_fields(lineno, toks, 1)
                rank = int(toks[1])
                if rank < 1:
                    raise ParseError(f"line {lineno}: rank must be positive")
            elif kind == "label":
                if rank is None:
                    raise ParseError(f"line {lineno}: label before rank")
                i = int(toks[1])
                if not 0 <= i < rank:
                    raise ParseError(f"line {lineno}: label index {i} out of range")
                if i in labels:
                    raise ParseError(f"line {lineno}: duplicate label {i}")
                labels[i] = " ".join(toks[2:])
            elif kind == "S":
                if rank is None:
                    raise ParseError(f"line {lineno}: S entry before rank")
                _check_fields(lineno, toks, 4)
                i, j = int(toks[1]), int(toks[2])
                if not (0 <= i < rank and 0 <= j < rank):
                    raise ParseError(f"line {lineno}: S index ({i},{j}) out of range")
                if (i, j) in S:
                    raise ParseError(f"line {lineno}: duplicate S entry ({i},{j})")
                S[i, j] = complex(float(toks[3]), float(toks[4]))
            elif kind == "T":
                if rank is None:
                    raise ParseError(f"line {lineno}: T entry before rank")
                _check_fields(lineno, toks, 3)
                i = int(toks[1])
                if not 0 <= i < rank:
                    raise ParseError(f"line {lineno}: T index {i} out of range")
                if i in T:
                    raise ParseError(f"line {lineno}: duplicate T entry {i}")
                T[i] = complex(float(toks[2]), float(toks[3]))
            else:
                raise ParseError(f"line {lineno}: unknown directive {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ParseError(f"line {lineno}: malformed {kind!r} line ({exc})") from exc

    if rank is None:
        raise ParseError("no rank directive found")
    # every stored index is in range, so the first absent one is among the
    # first len + 1 in row-major order
    if len(S) != rank * rank:
        i, j = next((i, j) for i in range(rank) for j in range(rank) if (i, j) not in S)
        raise ParseError(f"missing S entry ({i},{j}): rank {rank} needs {rank * rank} "
                         f"S entries, the file has {len(S)}")
    if len(T) != rank:
        i = next(i for i in range(rank) if i not in T)
        raise ParseError(f"missing T entry {i}: rank {rank} needs {rank} T entries, "
                         f"the file has {len(T)}")

    S_arr = np.empty((rank, rank), dtype=complex)
    ij = np.fromiter(itertools.chain.from_iterable(S), dtype=np.intp, count=2 * len(S))
    S_arr[ij[0::2], ij[1::2]] = np.fromiter(S.values(), dtype=complex, count=len(S))
    T_arr = np.array([T[i] for i in range(rank)], dtype=complex)
    label_tuple = None
    if labels:
        label_tuple = tuple(labels.get(i, str(i)) for i in range(rank))
    return ModularData(S_arr, T_arr, labels=label_tuple)


def save_triangulation(tri: Triangulation, path) -> None:
    """Write a triangulation; both sides of every gluing are emitted."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"tets {tri.num_tets}\n")
        for (t, f), (t2, perm) in sorted(tri.gluings.items()):
            face = [v for v in range(4) if v != f]
            images = " ".join(str(perm[v]) for v in face)
            fh.write(f"glue {t} {f} {t2} {perm[f]} {images}\n")


def load_triangulation(path) -> Triangulation:
    """Parse a triangulation file and validate involution and closedness."""
    num_tets = None
    gluings: dict = {}
    for lineno, toks in _tokens(path):
        kind = toks[0]
        try:
            if kind == "tets":
                if num_tets is not None:
                    raise ParseError(f"line {lineno}: duplicate tets directive")
                _check_fields(lineno, toks, 1)
                num_tets = int(toks[1])
                if num_tets < 1:
                    raise ParseError(f"line {lineno}: need at least one tetrahedron")
            elif kind == "glue":
                if num_tets is None:
                    raise ParseError(f"line {lineno}: glue before tets")
                _check_fields(lineno, toks, 7)
                t, f, t2, f2 = (int(x) for x in toks[1:5])
                imgs = [int(x) for x in toks[5:8]]
                for val, hi in ((t, num_tets), (t2, num_tets), (f, 4), (f2, 4)):
                    if not 0 <= val < hi:
                        raise ParseError(f"line {lineno}: index {val} out of range")
                face = [v for v in range(4) if v != f]
                if sorted(imgs) != [v for v in range(4) if v != f2]:
                    raise ParseError(
                        f"line {lineno}: images {imgs} do not cover the face opposite {f2}"
                    )
                perm = [0, 0, 0, 0]
                perm[f] = f2
                for v, img in zip(face, imgs):
                    perm[v] = img
                perm = tuple(perm)
                key = (t, f)
                if key in gluings:
                    if gluings[key] != (t2, perm):
                        raise ParseError(
                            f"line {lineno}: gluing of tet {t} face {f} conflicts with an "
                            f"earlier line (involution broken)"
                        )
                    continue
                gluings[key] = (t2, perm)
                back = (t2, f2)
                inv = inverse_perm(perm)
                if back in gluings:
                    if gluings[back] != (t, inv):
                        raise ParseError(
                            f"line {lineno}: gluing of tet {t2} face {f2} is not the inverse "
                            f"of tet {t} face {f} (involution broken)"
                        )
                else:
                    gluings[back] = (t, inv)
            else:
                raise ParseError(f"line {lineno}: unknown directive {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ParseError(f"line {lineno}: malformed {kind!r} line ({exc})") from exc

    if num_tets is None:
        raise ParseError("no tets directive found")
    try:
        tri = Triangulation(num_tets, gluings)
        tri.validate_closed_manifold()
    except StructureError as exc:
        raise ParseError(f"invalid triangulation: {exc}") from exc
    return tri


def load_plumbing_tree(path) -> PlumbingTree:
    """Parse a plumbing tree file; the vertices and edges must form a tree."""
    verts, edges = [], []
    for lineno, toks in _tokens(path):
        kind = toks[0]
        if kind not in ("vertex", "edge"):
            raise ParseError(f"line {lineno}: unknown directive {kind!r}")
        _check_fields(lineno, toks, 2)
        try:
            (verts if kind == "vertex" else edges).append((int(toks[1]), int(toks[2])))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: malformed {kind!r} line ({exc})") from exc
    try:
        return PlumbingTree(tuple(verts), tuple(edges))
    except StructureError as exc:
        raise ParseError(f"invalid plumbing tree: {exc}") from exc
