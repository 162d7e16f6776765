import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tvo
from tvo import (
    ModularData,
    ParseError,
    conjugate_equivalent,
    load_modular_file,
    load_triangulation,
    save_modular_file,
    save_triangulation,
    verify_verlinde,
)

from tvo.dataio import load_plumbing_tree

from helpers import two_tet_sphere


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


def test_missing_entry_names_first_absent_index(tmp_path):
    d = tvo.trivial_data()
    path = tmp_path / "broken.dat"
    lines = ["rank 2", "S 0 0 1 0", "S 0 1 0 0", "S 1 1 1 0", "T 0 1 0", "T 1 1 0"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=r"missing S entry \(1,0\)"):
        load_modular_file(path)


def test_missing_t_entry(tmp_path):
    path = tmp_path / "broken.dat"
    path.write_text("rank 1\nS 0 0 1 0\n")
    with pytest.raises(ParseError, match="missing T entry 0"):
        load_modular_file(path)


def test_huge_rank_is_a_parse_error_naming_the_rank(tmp_path):
    # the arrays are sized only once the file has supplied every entry
    path = tmp_path / "huge.dat"
    path.write_text("rank 100000000\nS 0 0 1 0\nT 5 1 0\n")
    with pytest.raises(ParseError, match=r"missing S entry \(0,1\): rank 100000000"):
        load_modular_file(path)


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
