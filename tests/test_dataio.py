import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tvo
from tvo import (
    ModularData,
    ParseError,
    StructureError,
    conjugate_equivalent,
    load_modular_file,
    load_triangulation,
    save_modular_file,
    save_triangulation,
    verify_verlinde,
)

from tvo.cli import resolve_builtin_data
from tvo.dataio import load_plumbing_tree

from helpers import random_pachner_sequence, read_modular_text, two_tet_sphere


def test_roundtrip_toric_code(tmp_path, toric_code):
    path = tmp_path / "toric.dat"
    save_modular_file(toric_code, path)
    back = load_modular_file(path)
    assert back.rank == 4
    assert np.array_equal(back.S, toric_code.S)
    assert np.array_equal(back.T, toric_code.T)
    assert back.labels == toric_code.labels
    perm = conjugate_equivalent(toric_code, back)
    assert perm is not None and perm.tolist() == [0, 1, 2, 3]


def test_roundtrip_complex_data(tmp_path):
    d = tvo.twisted_double_cyclic(3, 2)
    path = tmp_path / "t.dat"
    save_modular_file(d, path)
    back = load_modular_file(path)
    assert np.array_equal(back.S, d.S)
    assert np.array_equal(back.T, d.T)


@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
@example(rank=1, seed=0)
@example(rank=5, seed=2**32 - 1)
def test_roundtrip_random_matrices(tmp_path_factory, rank, seed):
    # loading does not validate, so arbitrary complex tables must round-trip
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
    T = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
    d = ModularData(S, T)
    path = tmp_path_factory.mktemp("io") / "r.dat"
    save_modular_file(d, path)
    back = load_modular_file(path)
    assert np.array_equal(back.S, d.S)
    assert np.array_equal(back.T, d.T)


@pytest.mark.parametrize("name", [
    "trivial", "fibonacci", "ising", "su2-4", "pointed-z5", "pointed-z4-3", "toric-code",
    "dw-z2x3", "twisted-z4-3", "double-ising", "double-double-fibonacci", "tube-z3-2",
])
def test_builtin_families_read_back_bit_for_bit(tmp_path, name):
    d = resolve_builtin_data(name)
    path = tmp_path / "b.dat"
    save_modular_file(d, path)
    back = load_modular_file(path)
    assert back.labels == d.labels
    assert back.S.tobytes() == d.S.tobytes() and back.T.tobytes() == d.T.tobytes()


@pytest.mark.parametrize("label", ["a#b", "a  b", " a", "a ", "a\tb", "a\nb", "a\xa0b"])
def test_labels_that_would_not_read_back_are_refused(tmp_path, label):
    # "a#b" loaded as "a", "a  b" as "a b" and " a" as "a"
    d = ModularData(np.eye(2), np.ones(2), labels=("1", label))
    path = tmp_path / "l.dat"
    with pytest.raises(StructureError, match=r"label 1 \("):
        save_modular_file(d, path)
    assert not path.exists()


def test_missing_entry_names_first_absent_index(tmp_path):
    d = tvo.trivial_data()
    path = tmp_path / "broken.dat"
    lines = ["rank 2", "S 0 0 1 0", "S 0 1 0 0", "S 1 1 1 0", "T 0 1 0", "T 1 1 0"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=r"missing S entry \(1,0\)"):
        load_modular_file(path)


def test_file_without_s_lines_names_the_first_s_entry(tmp_path):
    # refused before any bulk parse, so numpy's "input contained no data"
    # warning (an error under this suite's filters) never fires
    path = tmp_path / "no_s.dat"
    path.write_text("rank 2\nlabel 0 one\nT 0 1 0\nT 1 1 0\n")
    with pytest.raises(ParseError, match=r"missing S entry \(0,0\): rank 2 needs 4 S entries, "
                                         r"the file has 0"):
        load_modular_file(path)


def test_missing_t_entry(tmp_path):
    path = tmp_path / "broken.dat"
    path.write_text("rank 1\nS 0 0 1 0\n")
    with pytest.raises(ParseError, match="missing T entry 0"):
        load_modular_file(path)


def test_huge_rank_is_a_parse_error_naming_the_rank(tmp_path):
    # the arrays are sized only once the file has supplied every entry, and
    # the missing entry is found lazily, so memory follows the file's length
    import tracemalloc

    path = tmp_path / "huge.dat"
    for rank in (100000000, 10**12, 2**63, 2**70):
        path.write_text(f"rank {rank}\nS 0 0 1 0\nT 5 1 0\n")
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=rf"missing S entry \(0,1\): rank {rank} "):
                load_modular_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_missing_t_entry_names_the_rank(tmp_path):
    path = tmp_path / "broken.dat"
    path.write_text("rank 2\nS 0 0 1 0\nS 0 1 0 0\nS 1 0 0 0\nS 1 1 1 0\nT 1 1 0\n")
    with pytest.raises(ParseError, match="missing T entry 0: rank 2"):
        load_modular_file(path)


def test_duplicate_entries_rejected(tmp_path):
    path = tmp_path / "dup.dat"
    path.write_text("rank 1\nS 0 0 1 0\nS 0 0 1 0\nT 0 1 0\n")
    with pytest.raises(ParseError, match=r"line 3: duplicate S entry \(0,0\)"):
        load_modular_file(path)
    # the bulk pass counts rank^2 S lines, so the duplicate is found line by line
    path.write_text("rank 2\nT 0 1 0\nT 1 1 0\nS 0 0 1 0\nS 0 0 1 0\nS 0 1 0 0\nS 1 0 0 0\n")
    with pytest.raises(ParseError, match=r"line 5: duplicate S entry \(0,0\)"):
        load_modular_file(path)
    path.write_text("rank 1\nS 0 0 1 0\nT 0 1 0\nT 0 1 0\n")
    with pytest.raises(ParseError, match="line 4: duplicate T entry 0"):
        load_modular_file(path)


def test_parse_error_names_line(tmp_path):
    path = tmp_path / "broken.dat"
    path.write_text("rank 1\nS 0 0 oops 0\n")
    with pytest.raises(ParseError, match="line 2"):
        load_modular_file(path)


def test_unknown_directive(tmp_path):
    path = tmp_path / "broken.dat"
    path.write_text("rank 1\nbogus 1\n")
    with pytest.raises(ParseError, match="line 2"):
        load_modular_file(path)


def test_out_of_range_index(tmp_path):
    path = tmp_path / "broken.dat"
    path.write_text("rank 1\nS 0 5 1 0\n")
    with pytest.raises(ParseError, match="out of range"):
        load_modular_file(path)


@pytest.mark.parametrize("text,message", [
    ("rank 1 7\nS 0 0 1 0\nT 0 1 0\n", "line 1: rank needs 1 fields"),
    ("rank 1\nS 0 0 1.0 0.0 junk\nT 0 1 0\n", "line 2: S needs 4 fields"),
    ("rank 1\nS 0 0 1 0\nT 0 1.0 0.0 9\n", "line 3: T needs 3 fields"),
    ("rank 1\nS 0 0 1 0\nT 0 1\n", "line 3: T needs 3 fields"),
    ("rank 1\nlabel 0 one\nlabel 0 uno\nS 0 0 1 0\nT 0 1 0\n", "line 3: duplicate label 0"),
    ("rank 0\n", "line 1: rank must be positive"),
    ("# a comment\n\n  # another\n", "no rank directive found"),
])
def test_modular_file_lines_have_exact_fields(tmp_path, text, message):
    path = tmp_path / "bad.dat"
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        load_modular_file(path)


def test_comments_and_labels(tmp_path):
    path = tmp_path / "c.dat"
    path.write_text(
        "# a comment\nrank 1  # trailing comment\nlabel 0 vac\nS 0 0 1 0\nT 0 1 0\n"
    )
    d = load_modular_file(path)
    assert d.labels == ("vac",)


def test_loading_invalid_data_defers_validation(tmp_path):
    # a file whose S is far from unitary loads fine; the verifier reports it
    path = tmp_path / "bad.dat"
    path.write_text("rank 1\nS 0 0 2 0\nT 0 1 0\n")
    d = load_modular_file(path)
    rep = verify_verlinde(d)
    assert not rep.axioms_pass


# ---------------------------------------------------------------------------
# the loader against a naive line-by-line reader of the format
# ---------------------------------------------------------------------------

_ARABIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))  # Arabic-Indic


def _underscored(text):
    """``text`` with a ``_`` between its first two adjacent digits, if any."""
    for k in range(1, len(text)):
        if text[k - 1].isdigit() and text[k].isdigit():
            return text[:k] + "_" + text[k:]
    return text


def _spell(rnd, text, rare):
    """``text`` (a number) respelled as int() or float() still reads it."""
    style = rnd.choice(["plain", "plain", "plus", "zeros"] + ["underscore", "arabic"] * rare)
    sign, digits = ("-", text[1:]) if text.startswith("-") else ("", text)
    if style == "plus":
        sign = sign or "+"
    elif style == "zeros" and digits[:1].isdigit():
        digits = "00" + digits
    elif style == "underscore":
        digits = _underscored(digits)
    elif style == "arabic":
        digits = digits.translate(_ARABIC)
    return sign + digits


def _float_text(rnd):
    x = rnd.choice([rnd.uniform(-1, 1), rnd.choice([0.0, -0.0, 1.0, -0.5, 1e-300, 5e-324]),
                    struct.unpack("<d", struct.pack("<Q", rnd.getrandbits(64)))[0]])
    if not math.isfinite(x):
        x = 0.25
    return rnd.choice([repr(x), f"{x:.17g}", f"{x:e}", f"{x:.3f}"])


_FAULTS = ["fields", "range", "duplicate", "unknown", "before rank", "number", "missing",
           "special"]


@st.composite
def _modular_files(draw):
    """A modular data file with varied spellings, separators, comments and
    line endings, and zero to two faults."""
    rnd = draw(st.randoms(use_true_random=False))
    rank = draw(st.integers(1, 3))
    rare = rnd.random() < 0.3  # spellings numpy refuses: 1_0, arabic digits

    def num(text):
        return _spell(rnd, text, rare)

    body = [["label", num(str(i)), *rnd.choice([["a"], ["(0|1)", "b~"], ["x", "", "y"]])]
            for i in range(rank) if rnd.random() < 0.4]
    body += [["S", num(str(i)), num(str(j)), num(_float_text(rnd)), num(_float_text(rnd))]
             for i in range(rank) for j in range(rank)]
    body += [["T", num(str(i)), num(_float_text(rnd)), num(_float_text(rnd))]
             for i in range(rank)]
    rnd.shuffle(body)
    lines = [["rank", num(str(rank))], *body]

    def pick(kinds=("rank", "label", "S", "T")):
        at = [k for k, line in enumerate(lines) if line[0] in kinds]
        return rnd.choice(at) if at else None

    for fault in rnd.choices(_FAULTS, k=rnd.choice([0, 1, 1, 2, 2])):
        if fault == "fields":
            line = lines[pick()]
            if rnd.random() < 0.5:
                line.append("7")
            elif len(line) > 1:  # the directive stays, so every line keeps a token
                line.pop()
        elif fault == "range" and (k := pick(("label", "S", "T"))) is not None:
            field = rnd.choice([1, 2] if lines[k][0] == "S" else [1])
            lines[k][field] = str(rnd.choice([-1, rank, rank + 3, 10**20]))
        elif fault == "duplicate":
            k = pick()
            lines.insert(rnd.randint(k + 1, len(lines)), list(lines[k]))
        elif fault == "unknown":
            kind = rnd.choice(["bogus", "s", "S0", "Sx", "S\u200b", "rank2"])
            lines.insert(rnd.randint(0, len(lines)), [kind, "0", "0", "1", "0"])
        elif fault == "before rank" and (k := pick(("label", "S", "T"))) is not None:
            lines.insert(0, lines.pop(k))
        elif fault == "number" and len(line := lines[pick()]) > 1:
            line[rnd.randint(1, len(line) - 1)] = rnd.choice(
                ["x", "1..0", "0x10", "1e", "--1", "1,0", "1\u0661x", "1.5", "__1", "1e5"])
        elif fault == "missing" and len(lines) > 1:
            del lines[pick(("label", "S", "T"))]
        elif fault == "special" and (k := pick(("S", "T"))) is not None:
            lines[k][-1] = rnd.choice(["nan", "Infinity", "-inf", "1e400", "+NaN", "-nan"])

    seps = rnd.choice([[" "], [" ", "  ", "\t"], [" ", "\xa0", "\u3000", " \t"]])
    newlines = rnd.choice([["\n"], ["\r\n"], ["\n", "\r\n", "\r"]])
    text = []
    for line in lines:
        if rnd.random() < 0.2:
            text += [rnd.choice(["", "   ", "# note", "  #S 0 0 1 0"]), rnd.choice(newlines)]
        text.append(rnd.choice(["", "", " ", "\t"]) + line[0])
        text += [rnd.choice(seps) + field for field in line[1:]]
        text.append(rnd.choice(["", "", " ", "\t", " # c", "#", "# S 9 9 x"]))
        text.append(rnd.choice(newlines))
    return "".join(text)


def _load_outcome(path):
    try:
        d = load_modular_file(path)
    except (ParseError, StructureError) as exc:
        return type(exc).__name__, str(exc)
    return d.S.tobytes(), d.T.tobytes(), d.labels


def _reference_outcome(text):
    read = read_modular_text(text)
    if isinstance(read, str):
        return "ParseError", read
    S, T, labels = read
    try:
        ModularData(S, T, labels)
    except StructureError as exc:  # a NaN or inf entry
        return "StructureError", str(exc)
    return S.tobytes(), T.tobytes(), labels


# Hypothesis mixes literal constants of the loaded modules into its draws,
# so an edit to src/ reshuffles the derandomized examples; these files, drawn
# from _modular_files, keep one of each fault kind and spelling in the run
@settings(max_examples=300)
@given(_modular_files())
# fault: fields
@example("\nrank 1 7\n\r\nS 0 0 0.0 0.0\n\nT 0 -5.000000e-01 0\n")
# fault: range
@example("\n rank \u0661\nT 1 +0.0 0.0\n\nS +0 +0 0.0 0.0\n")
# fault: duplicate
@example("\nrank 1\n   \n\tS 0 0 002e-323 0.0\n\nT 0 0.0 0.0#\n\nT 0 0.0 0.0\n")
# fault: unknown
@example("\nSx \t0 0\xa01 0\n\nrank 1\t\n\n T 0 0.000 0.0\n\nS\xa00 0 -0.5 +0.0\n\n"
         "label +0 (0|1) b~\n")
# fault: before rank
@example("S\xa0\u0660\u30000\u3000\u0660.\u0660\u0660\u0660 +5.060752e-02\n   \nrank\xa0+1\n"
         "  #S 0 0 1 0\nT\u3000000 \t-0.69794186718074869\xa0-0.0\n")
# fault: number
@example("# note\nrank 1..0\n S  \u0660 0\t-\u0660.\u0669\u0668\u0661\t000.000\n# note\n"
         "\tT\t+0 001.000000e-300 1e-3_00# S 9 9 x\n")
# fault: missing
@example("rank 1#\nlabel 000 (0|1) b~# S 9 9 x\n# note\n\tS 000 +0 +0.000 1.088e-320#\n")
# fault: special
@example("   \nrank 1#\r# note\n\tS 000 0 -0.000 Infinity\r\nT +0 -000.000 1.000\n")
# rare spellings: 1_0 and Arabic-Indic digits
@example("\nrank\u30001\nS 0\xa00 \t+5e-324 0.0_00\t\n"
         "T \t\u0660 0.000\u3000+2.238117e-321#\n")
# bare \r line endings, no-break and ideographic-space separators
@example("\rrank\xa01\n  #S 0 0 1 0\nlabel \u0660\xa0(0|1)\xa0b~ # c\n\n"
         "S 0\u30000\xa00.0 -0.0_00 # c\n  #S 0 0 1 0\n T \t0 0.0 0\r")
def test_loader_agrees_with_a_line_by_line_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("differential") / "m.dat"
    path.write_bytes(text.encode("utf-8"))
    assert _load_outcome(path) == _reference_outcome(text)


# ---------------------------------------------------------------------------
# triangulation files
# ---------------------------------------------------------------------------

def test_triangulation_roundtrip(tmp_path, s3_triangulation):
    path = tmp_path / "s3.tri"
    save_triangulation(s3_triangulation, path)
    back = load_triangulation(path)
    assert back.num_tets == 5
    assert back.gluings == s3_triangulation.gluings
    z = tvo.tv_evaluate(tvo.pointed_sixj(2, 0), back)
    assert abs(z.value - 0.5) < 1e-9


def test_triangulation_roundtrip_two_tet(tmp_path):
    tri = two_tet_sphere()
    path = tmp_path / "p.tri"
    save_triangulation(tri, path)
    back = load_triangulation(path)
    assert back.gluings == tri.gluings


def test_one_sided_gluings_accepted(tmp_path):
    # the reverse of each gluing line is inferred
    path = tmp_path / "half.tri"
    lines = ["tets 2"] + [f"glue 0 {f} 1 {f} " + " ".join(str(v) for v in range(4) if v != f)
                          for f in range(4)]
    path.write_text("\n".join(lines) + "\n")
    back = load_triangulation(path)
    assert back.num_tets == 2
    assert back.is_closed


def test_broken_involution_named(tmp_path):
    path = tmp_path / "bad.tri"
    lines = [
        "tets 2",
        "glue 0 0 1 0 1 2 3",
        "glue 1 0 0 0 2 1 3",  # not the inverse of the line above
        "glue 0 1 1 1 0 2 3",
        "glue 0 2 1 2 0 1 3",
        "glue 0 3 1 3 0 1 2",
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="involution"):
        load_triangulation(path)


def test_tets_line_has_exact_fields(tmp_path):
    path = tmp_path / "bad.tri"
    path.write_text("tets 5 9\n")
    with pytest.raises(ParseError, match="line 1: tets needs 1 fields"):
        load_triangulation(path)


@pytest.mark.parametrize("text,message", [
    ("tets 1\ntets 1\n", "line 2: duplicate tets directive"),
    ("tets 0\n", "line 1: need at least one tetrahedron"),
    ("glue 0 0 0 1 0 2 3\ntets 1\n", "line 1: glue before tets"),
    ("tets 1\nglue 0 0 1 1 0 2 3\n", "line 2: index 1 out of range"),
    ("tets 3\nglue 0 0 1 0 1 2 3\nglue 2 0 1 0 1 2 3\n",
     r"line 3: gluing of tet 1 face 0 is not the inverse of tet 2 face 0"),
    ("tets 2\nglue 0 0 1 0 1 2 3\nglue 1 0 0 0 2 1 3\n",
     r"^line 3: gluing of tet 1 face 0 conflicts with an earlier line \(involution broken\)$"),
    # a self-glued line has one key on both sides; its second side is the one refused
    ("tets 1\nglue 0 0 0 0 2 3 1\n",
     r"^line 2: gluing of tet 0 face 0 is not the inverse of tet 0 face 0 \(involution broken\)$"),
    ("tets 1\nglue 0 0 0 0 1 2 3\n", r"^invalid triangulation: face \(0,0\) glued to itself$"),
    ("tets 1\n# comment\nflip 0 1\n", "line 3: unknown directive 'flip'"),
    ("tets 1\nglue 0 0 0 1 0 2 x\n", "line 2: malformed 'glue' line"),
    ("# no directive\n", "no tets directive found"),
])
def test_triangulation_file_errors_name_the_line(tmp_path, text, message):
    path = tmp_path / "bad.tri"
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        load_triangulation(path)


def test_gluing_order_follows_the_file_whichever_sides_it_lists(tmp_path, s3_triangulation):
    # the walks read the gluings in insertion order, so a file written with
    # both sides, with one side per pair or with repeated lines loads in one order
    tri, _ = random_pachner_sequence(s3_triangulation, 30, np.random.default_rng(7))
    path = tmp_path / "both.tri"
    save_triangulation(tri, path)
    header, *lines = path.read_text().splitlines()

    def first_of_its_pair(line):
        t, f, t2, f2 = map(int, line.split()[1:5])
        return (t, f) <= (t2, f2)

    one_side = [line for line in lines if first_of_its_pair(line)]
    shuffled = list(lines)
    np.random.default_rng(8).shuffle(shuffled)
    repeated = [line for line in lines for _ in range(2)]
    loaded = {}
    for name, body in (("both", lines), ("one_side", one_side), ("shuffled", shuffled),
                       ("repeated", repeated)):
        (tmp_path / f"{name}.tri").write_text("\n".join([header, *body]) + "\n")
        loaded[name] = load_triangulation(tmp_path / f"{name}.tri").gluings
    assert len(one_side) == len(lines) // 2
    order = list(loaded["both"].items())
    assert list(loaded["one_side"].items()) == order
    assert list(loaded["repeated"].items()) == order
    assert loaded["shuffled"] == loaded["both"] == tri.gluings
    assert list(loaded["shuffled"].items()) != order


def test_unglued_faces_named_in_constant_memory(tmp_path):
    import tracemalloc

    path = tmp_path / "open.tri"
    path.write_text("tets 100000\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as info:
            load_triangulation(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == (
        "invalid triangulation: triangulation has unglued faces, e.g. [(0, 0), (0, 1), (0, 2)]")
    assert peak < 2**20


def test_bad_image_triple(tmp_path):
    path = tmp_path / "bad.tri"
    path.write_text("tets 2\nglue 0 0 1 0 1 2 2\n")
    with pytest.raises(ParseError, match="line 2"):
        load_triangulation(path)


# ---------------------------------------------------------------------------
# plumbing trees
# ---------------------------------------------------------------------------

def test_plumbing_tree_file_reads_a_star(tmp_path):
    path = tmp_path / "star.tree"
    path.write_text("# star\nvertex 0 1\nvertex 1 2   # leg\nvertex 2 3\nvertex 3 5\n\n"
                    "edge 0 1\nedge 0 2\nedge 0 3\n")
    assert load_plumbing_tree(path) == tvo.PlumbingTree.star(1, (2, 3, 5))


@pytest.mark.parametrize("text,message", [
    ("vertex 0\n", "line 1: vertex needs 2 fields"),
    ("vertex 0 1 7\n", "line 1: vertex needs 2 fields"),
    ("vertex 0 1\nedge 0\n", "line 2: edge needs 2 fields"),
    ("vertex 0 1\nvertex 1 x\n", "line 2: malformed 'vertex' line"),
    ("vertex 0 1\nknot 0 1\n", "line 2: unknown directive 'knot'"),
    ("vertex 0 1\nvertex 1 1\n", "invalid plumbing tree"),
    ("", "invalid plumbing tree"),
])
def test_plumbing_tree_file_errors_name_the_line(tmp_path, text, message):
    path = tmp_path / "bad.tree"
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        load_plumbing_tree(path)


# ---------------------------------------------------------------------------
# files that are not UTF-8
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("loader,text", [
    (load_modular_file, "rank 2\nlabel 0 caf{bad}\n"),
    (load_triangulation, "tets 1\n# {bad}\n"),
    (load_plumbing_tree, "vertex 0 1\n# {bad}\n"),
])
@pytest.mark.parametrize("pad", [0, 20000])
def test_a_file_that_is_not_utf8_is_a_parse_error_naming_the_byte(tmp_path, loader, text,
                                                                  pad):
    # with a pad, a comment line first puts the bad byte past the first
    # buffered read
    head, tail = (("#" + "x" * pad + "\n" if pad else "") + text).split("{bad}")
    data = head.encode() + b"\xe9" + tail.encode()
    path = tmp_path / "latin1.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError) as info:
        loader(path)
    message = str(info.value)
    assert str(path) in message
    assert f"byte {len(head.encode())} (0xe9)" in message
