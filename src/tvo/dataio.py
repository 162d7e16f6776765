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
significant digits so a round trip reproduces every double exactly, and
refuses a label that would not read back as written: a label is read as
its words joined by single spaces, so it may hold no ``#`` and no
leading, trailing or repeated whitespace.

A modular data file is read whole, by one reader. One pass checks its
rank, label and T lines and collects its S lines, which numpy parses in
one call; only when a check refuses are the S lines before the fault read
one by one, so the error names the first faulty line. No array is sized
by the declared rank before the file has supplied every entry, so memory
follows the file's length, not the rank it declares.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ParseError, StructureError
from .modular import ModularData
from .surgery import PlumbingTree
from .triangulation import Triangulation, inverse_perm


def _lines(path) -> list:
    """The file's lines as text-mode iteration splits them, without newlines.

    A file that is not UTF-8 is a :class:`ParseError` naming the file and
    the offset of its first undecodable byte (the whole file is decoded in
    one call, so the decoder's offset is the file's).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{str(path)!r} is not UTF-8: byte {exc.start} "
                         f"(0x{exc.object[exc.start]:02x}): {exc.reason}") from None


def _tokens(lines):
    """Yield (line_number, token_list) for non-empty, non-comment lines."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _check_fields(lineno, toks, count):
    if len(toks) != count + 1:
        raise ParseError(f"line {lineno}: {toks[0]} needs {count} fields")


def save_modular_file(data: ModularData, path) -> None:
    """Write modular data in the text format (17 significant digits).

    A label that the loader would not read back as written (one holding
    ``#``, or with leading, trailing or repeated whitespace) is refused with
    a :class:`StructureError` naming its index, before the file is opened.
    """
    for i, name in enumerate(data.labels or ()):
        if "#" in name or name != " ".join(name.split()):
            raise StructureError(f"label {i} ({name!r}) would not read back: a label may "
                                 f"hold no '#' and only single spaces between words")
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


class _ModularLines:
    """The entries of a modular data file, read one tokenised line at a time.

    :meth:`read` checks a line as it reads it and raises a ParseError
    naming it; the entries are kept in dicts keyed by index.
    """

    def __init__(self):
        self.rank = None
        self.S: dict[tuple[int, int], complex] = {}
        self.T: dict[int, complex] = {}
        self.labels: dict[int, str] = {}

    def read(self, lineno, toks) -> None:
        kind = toks[0]
        rank = self.rank
        try:
            if kind == "rank":
                if rank is not None:
                    raise ParseError(f"line {lineno}: duplicate rank directive")
                _check_fields(lineno, toks, 1)
                rank = int(toks[1])
                if rank < 1:
                    raise ParseError(f"line {lineno}: rank must be positive")
                self.rank = rank
            elif kind == "label":
                if rank is None:
                    raise ParseError(f"line {lineno}: label before rank")
                i = int(toks[1])
                if not 0 <= i < rank:
                    raise ParseError(f"line {lineno}: label index {i} out of range")
                if i in self.labels:
                    raise ParseError(f"line {lineno}: duplicate label {i}")
                self.labels[i] = " ".join(toks[2:])
            elif kind == "S":
                if rank is None:
                    raise ParseError(f"line {lineno}: S entry before rank")
                _check_fields(lineno, toks, 4)
                i, j = int(toks[1]), int(toks[2])
                if not (0 <= i < rank and 0 <= j < rank):
                    raise ParseError(f"line {lineno}: S index ({i},{j}) out of range")
                if (i, j) in self.S:
                    raise ParseError(f"line {lineno}: duplicate S entry ({i},{j})")
                self.S[i, j] = complex(float(toks[3]), float(toks[4]))
            elif kind == "T":
                if rank is None:
                    raise ParseError(f"line {lineno}: T entry before rank")
                _check_fields(lineno, toks, 3)
                i = int(toks[1])
                if not 0 <= i < rank:
                    raise ParseError(f"line {lineno}: T index {i} out of range")
                if i in self.T:
                    raise ParseError(f"line {lineno}: duplicate T entry {i}")
                self.T[i] = complex(float(toks[2]), float(toks[3]))
            else:
                raise ParseError(f"line {lineno}: unknown directive {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ParseError(f"line {lineno}: malformed {kind!r} line ({exc})") from exc

    def data(self, S: np.ndarray) -> ModularData:
        """The data set with ``S``; every T entry must have been read."""
        T = np.array([self.T[i] for i in range(self.rank)], dtype=complex)
        labels = None
        if self.labels:
            labels = tuple(self.labels.get(i, str(i)) for i in range(self.rank))
        return ModularData(S, T, labels=labels)


# one S line: the directive, i, j, Re S_ij, Im S_ij
_S_ROW = np.dtype([("S", "U1"), ("i", np.int64), ("j", np.int64), ("re", np.float64),
                   ("im", np.float64)])


def _S_block(block, rank) -> np.ndarray | None:
    """The S matrix of the collected S lines, parsed by numpy in one call,
    or None if numpy or a count, range or duplicate check refuses them.

    numpy's whitespace is str.split()'s, and each field it parses reads as
    int() or float() reads it; it refuses the rarer spellings those accept
    (``1_0``, non-ASCII digits, integers past int64).
    """
    # rank^2 == len(block) bounds the rank by the file's length before
    # anything is sized by it or i * rank + j is formed
    if len(block) != rank * rank:
        return None
    try:
        with warnings.catch_warnings():
            # older numpy releases read an integer field such as "1.0" via
            # float with a DeprecationWarning; int() refuses it
            warnings.simplefilter("error")
            rows = np.loadtxt(block, dtype=_S_ROW, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    i, j = rows["i"], rows["j"]
    if not ((i >= 0) & (i < rank) & (j >= 0) & (j < rank)).all():
        return None
    at = i * rank + j
    seen = np.zeros(len(block), dtype=bool)
    seen[at] = True
    if not seen.all():
        return None
    S = np.empty(len(block), dtype=complex)
    S.real[at] = rows["re"]
    S.imag[at] = rows["im"]
    return S.reshape(rank, rank)


def load_modular_file(path) -> ModularData:
    """Parse a modular data file; errors name the offending line or missing entry.

    One pass checks the rank, label and T lines, stopping at the first
    fault, and collects the S lines for :func:`_S_block`; on a refusal,
    :func:`_after_refusal` raises the fault a line-by-line reader would.
    """
    lines = _lines(path)
    acc = _ModularLines()
    block = []
    fault, stop = None, len(lines)
    try:
        for lineno, raw in enumerate(lines, start=1):
            if "#" in raw:
                raw = raw[:raw.index("#")]
            line = raw.strip()
            if line[:1] == "S" and line[1:2].isspace() and acc.rank is not None:
                block.append(line)
            elif line:
                acc.read(lineno, line.split())
    except ParseError as exc:
        fault, stop = exc, lineno - 1
    rank = acc.rank
    if fault is None and rank is not None and len(acc.T) == rank:
        S = _S_block(block, rank)
        if S is not None:
            return acc.data(S)
    return _after_refusal(acc, lines, stop, fault)


def _after_refusal(acc, lines, stop, fault) -> ModularData:
    """Read the S lines of ``lines[:stop]`` one by one, then raise the first
    fault in file order (an S line's checks read only the rank, set once, and
    the S lines before it, so a faulty S line precedes ``fault``), else the
    first missing entry. With none, numpy refused a spelling that int() or
    float() reads, and S is built from the entries read.
    """
    for lineno, toks in _tokens(lines[:stop]):
        if toks[0] == "S":
            acc.read(lineno, toks)
    if fault is not None:
        raise fault
    rank, S, T = acc.rank, acc.S, acc.T
    if rank is None:
        raise ParseError("no rank directive found")
    # every stored index is in range, so the first absent one is among the first
    # len + 1 in row-major order; the search is lazy, as the rank may dwarf the file
    if len(S) != rank * rank:
        i, j = next((i, j) for i in range(rank) for j in range(rank) if (i, j) not in S)
        raise ParseError(f"missing S entry ({i},{j}): rank {rank} needs {rank * rank} "
                         f"S entries, the file has {len(S)}")
    if len(T) != rank:
        i = next(i for i in range(rank) if i not in T)
        raise ParseError(f"missing T entry {i}: rank {rank} needs {rank} T entries, "
                         f"the file has {len(T)}")
    return acc.data(np.array([[S[i, j] for j in range(rank)] for i in range(rank)],
                             dtype=complex))


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
    for lineno, toks in _tokens(_lines(path)):
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
    for lineno, toks in _tokens(_lines(path)):
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
