import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tvo
from tvo.cli import fmt_value, main, resolve_builtin_data


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_value(out):
    """Parse the last non-comment stdout line as a complex value."""
    lines = [l for l in out.strip().splitlines() if l and not l.startswith("#")]
    re_, im = lines[-1].split()
    return complex(float(re_), float(im))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_toric_code_passes(capsys):
    code, out, _ = run(capsys, "verify", "--data", "builtin:toric-code")
    assert code == 0
    assert "PASS (strict)" in out


def test_verify_fibonacci_fails_strict_with_anomaly(capsys):
    code, out, _ = run(capsys, "verify", "--data", "builtin:fibonacci")
    assert code == 1
    assert "anomaly phase" in out
    assert "-0.587785252292" in out


def test_verify_missing_file_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--data", "missing.dat")
    assert code == 2
    assert "missing.dat" in err


# ---------------------------------------------------------------------------
# invariant
# ---------------------------------------------------------------------------

def test_invariant_lens_toric(capsys):
    code, out, _ = run(capsys, "invariant", "lens", "-p", "3", "-q", "1",
                       "--data", "builtin:toric-code")
    assert code == 0
    assert "0.500000000000 0.000000000000" in out


def test_invariant_lens_machine_line_parses_back(capsys):
    code, out, _ = run(capsys, "invariant", "lens", "-p", "7", "-q", "3",
                       "--data", "builtin:dw-z3")
    assert code == 0
    value = machine_value(out)
    assert abs(value - tvo.lens_general(resolve_builtin_data("dw-z3"), 7, 3).value) < 1e-12


def test_invariant_brieskorn(capsys):
    code, out, _ = run(capsys, "invariant", "brieskorn", "-p", "2", "-q", "3", "-r", "5",
                       "--data", "builtin:toric-code")
    assert code == 0
    assert abs(machine_value(out) - 0.5) < 1e-12


def test_invariant_gcd_violation_exit2(capsys):
    code, _, err = run(capsys, "invariant", "lens", "-p", "4", "-q", "2",
                       "--data", "builtin:toric-code")
    assert code == 2
    assert "gcd" in err


def test_invariant_plumbing_tree_file(capsys, tmp_path):
    tree = tmp_path / "star.tree"
    tree.write_text(
        "vertex 0 1\nvertex 1 2\nvertex 2 3\nvertex 3 5\n"
        "edge 0 1\nedge 0 2\nedge 0 3\n"
    )
    code, out, _ = run(capsys, "invariant", "plumbing", "--tree", str(tree),
                       "--data", "builtin:toric-code")
    assert code == 0
    assert abs(machine_value(out) - 0.5) < 1e-12


@pytest.mark.parametrize("argv,message", [
    (["lens", "-p", "3"], "lens requires -p and -q"),
    (["brieskorn", "-p", "2", "-q", "3"], "brieskorn requires -p, -q and -r"),
    (["plumbing"], "plumbing requires --tree FILE"),
])
def test_invariant_missing_arguments_exit2(capsys, argv, message):
    code, out, err = run(capsys, "invariant", *argv, "--data", "builtin:toric-code")
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


def test_invariant_long_lens_chain(capsys):
    code, out, err = run(capsys, "invariant", "lens", "-p", "2000", "-q", "1999",
                         "--data", "builtin:toric-code")
    assert code == 0, err
    assert out.strip().splitlines()[-1].split()[0] == "1.000000000000"


def test_invariant_long_lens_chain_comment_is_short(capsys):
    code, out, err = run(capsys, "invariant", "lens", "-p", "2000", "-q", "1999",
                         "--data", "builtin:toric-code")
    assert code == 0, err
    comments = [l for l in out.splitlines() if l.startswith("#")]
    assert comments and all(len(l) < 100 for l in comments), comments
    assert "chain of 1999 vertices" in comments[0]


def test_invariant_lens_chain_above_the_surgery_cap_exit2(capsys):
    code, out, err = run(capsys, "invariant", "lens", "-p", "1000000000001",
                         "-q", "1000000000000", "--data", "builtin:toric-code")
    assert code == 2
    assert err.startswith("error:") and "1000000000000 vertices" in err and "cap of 1000000 " in err
    assert "Traceback" not in err + out and out == ""


@pytest.mark.parametrize("p, value", [(10**6 + 1, 0.5), (10**6, 1.0)])
def test_invariant_lens_chain_of_a_million_vertices(capsys, p, value):
    # gcd(p, 2) / 2 on the toric code; the roundoff of 10^6 vertices is ~3e-11
    code, out, err = run(capsys, "invariant", "lens", "-p", str(p), "-q", str(p - 1),
                         "--data", "builtin:toric-code")
    assert code == 0, err
    assert abs(machine_value(out) - value) <= 1e-9


def test_invariant_lens_q2_is_the_general_chain(capsys):
    code, out, _ = run(capsys, "invariant", "lens", "-p", "7", "-q", "2",
                       "--data", "builtin:dw-z3")
    assert code == 0
    assert "lens_general(p=7,q=2,chain=[4, 2])" in out
    assert out.strip().splitlines()[-1] == fmt_value(
        tvo.lens_p2(resolve_builtin_data("dw-z3"), 7).value)


def test_verify_huge_rank_file_exit2(capsys, tmp_path):
    path = tmp_path / "huge.dat"
    path.write_text("rank 100000000\n")
    code, out, err = run(capsys, "verify", "--data", str(path))
    assert code == 2
    assert "rank 100000000" in err and "Traceback" not in err + out


def test_verify_extra_field_exit2(capsys, tmp_path):
    path = tmp_path / "junk.dat"
    path.write_text("rank 1\nS 0 0 1.0 0.0 junk\nT 0 1 0\n")
    code, out, err = run(capsys, "verify", "--data", str(path))
    assert code == 2
    assert err.startswith("error:") and "line 2" in err
    assert "Traceback" not in err + out


def test_verify_rank_above_the_verlinde_cap_exit2(capsys):
    code, out, err = run(capsys, "verify", "--data", "builtin:su2-1000")
    assert code == 2
    assert err.startswith("error:") and "rank 1001" in err and "cap 1 GiB" in err
    assert "Traceback" not in err + out


@pytest.mark.parametrize("name, rank", [
    ("su2-10000000", "10000001"),
    ("pointed-z100000000", "100000000"),
    ("twisted-z100000-1", "10000000000"),
    ("dw-z100000x100000", "100000000000000000000"),
    ("dw-z1000000", "1000000000000"),
])
def test_verify_huge_generator_exit2(capsys, name, rank):
    # refused before the generator allocates its S matrix
    code, out, err = run(capsys, "verify", "--data", f"builtin:{name}")
    assert code == 2
    assert err.startswith("error:") and f"rank {rank})" in err and "cap 1 GiB" in err
    assert "Traceback" not in err + out


@pytest.mark.parametrize("argv", [
    ("verify", "--data", "builtin:su2-" + "1" * 5000),
    ("verify", "--data", "builtin:dw-z2x" + "1" * 5000),
    ("statesum", "--sixj", "builtin:vec-z" + "1" * 5000, "--tri", "builtin:s3"),
])
def test_builtin_parameter_past_the_digit_limit_exit2(capsys, argv):
    # int() refuses strings of more than 4300 digits; the name is refused, not a traceback
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "5000 digits is above the limit of 4300 digits" in err
    assert "Traceback" not in err + out and out == ""


def test_invariant_anomalous_data_warns_on_stderr(capsys):
    code, out, err = run(capsys, "invariant", "lens", "-p", "3", "-q", "1",
                         "--data", "builtin:fibonacci")
    assert code == 0
    assert "anomaly" in err


# ---------------------------------------------------------------------------
# statesum
# ---------------------------------------------------------------------------

def test_statesum_builtin_sphere(capsys):
    code, out, _ = run(capsys, "statesum", "--sixj", "builtin:vec-z2", "--tri", "builtin:s3")
    assert code == 0
    assert abs(machine_value(out) - 0.5) < 1e-9


def test_statesum_trivial_labels(capsys):
    code, out, _ = run(capsys, "statesum", "--sixj", "builtin:vec-z1", "--tri", "builtin:s3")
    assert code == 0
    assert abs(machine_value(out) - 1.0) < 1e-12


def test_statesum_file_and_twist(capsys, tmp_path):
    path = tmp_path / "s3.tri"
    tvo.save_triangulation(tvo.boundary_4_simplex(), path)
    code, out, _ = run(capsys, "statesum", "--sixj", "builtin:vec-z3-2", "--tri", str(path))
    assert code == 0
    assert abs(machine_value(out) - 1 / 3) < 1e-9


def test_statesum_corrupt_triangulation_exit2(capsys, tmp_path):
    path = tmp_path / "bad.tri"
    path.write_text(
        "tets 2\nglue 0 0 1 0 1 2 3\nglue 1 0 0 0 2 1 3\n"
        "glue 0 1 1 1 0 2 3\nglue 0 2 1 2 0 1 3\nglue 0 3 1 3 0 1 2\n"
    )
    code, _, err = run(capsys, "statesum", "--sixj", "builtin:vec-z2", "--tri", str(path))
    assert code == 2
    assert "involution" in err


def test_statesum_labels_above_the_cap_exit2(capsys):
    # refused before the n^3 weight table is built
    code, out, err = run(capsys, "statesum", "--sixj", "builtin:vec-z400", "--tri", "builtin:s3")
    assert code == 2
    assert err.startswith("error:") and "Z/400" in err and "cap of 64 labels" in err
    assert "Traceback" not in err + out and out == ""


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_toric_conjugate_identity(capsys):
    code, out, _ = run(capsys, "compare", "--a", "builtin:toric-code",
                       "--b", "builtin:toric-code", "--conjugate")
    assert code == 0
    perm_line = [l for l in out.splitlines() if not l.startswith("#")][-1]
    assert perm_line.split() == ["0", "1", "2", "3"]


def test_compare_rank_1001(capsys):
    code, out, _ = run(capsys, "compare", "--a", "builtin:su2-1000", "--b", "builtin:su2-1000")
    assert code == 0
    perm_line = [l for l in out.splitlines() if not l.startswith("#")][-1]
    assert perm_line.split() == [str(i) for i in range(1001)]


def test_compare_rank_mismatch_exit1(capsys):
    code, out, _ = run(capsys, "compare", "--a", "builtin:fibonacci", "--b", "builtin:ising")
    assert code == 1
    assert "no equivalence" in out


def test_compare_file_with_saved_conjugate(capsys, tmp_path):
    d = tvo.twisted_double_cyclic(3, 1)
    a = tmp_path / "a.dat"
    b = tmp_path / "b.dat"
    tvo.save_modular_file(d, a)
    tvo.save_modular_file(d.conjugate(), b)
    code, out, _ = run(capsys, "compare", "--a", str(a), "--b", str(b), "--conjugate")
    assert code == 0


def test_compare_tube_against_twisted(capsys):
    code, _, _ = run(capsys, "compare", "--a", "builtin:tube-z3-1",
                     "--b", "builtin:twisted-z3-1")
    assert code == 0


# ---------------------------------------------------------------------------
# golden
# ---------------------------------------------------------------------------

def test_golden_wrong_data_fails(capsys):
    code, out, _ = run(capsys, "golden", "--data", "builtin:toric-code",
                       "--source", "haagerup")
    assert code == 1
    assert "FAIL" in out
    # with data, the e6 source adds the closed form's L(p, 1), p <= 12, and
    # L(p, 2) for odd p <= 11
    code, out, _ = run(capsys, "golden", "--data", "builtin:toric-code", "--source", "e6")
    assert code == 1
    assert sum(line.startswith("e6 L(") for line in out.splitlines()) == 18


def test_golden_e6_self_consistency(capsys):
    code, out, _ = run(capsys, "golden", "--source", "e6")
    assert code == 0
    assert "closed form" in out


def test_golden_other_source_requires_data(capsys):
    code, _, err = run(capsys, "golden", "--source", "haagerup")
    assert code == 2
    assert "requires --data" in err


# ---------------------------------------------------------------------------
# builtins and misc
# ---------------------------------------------------------------------------

def test_list_builtins_flag(capsys):
    code, out, _ = run(capsys, "--list-builtins")
    assert code == 0
    for name in ("fibonacci", "toric-code", "dw-z", "twisted-z", "tube-z", "vec-z", "s3"):
        assert name in out


def test_documented_builtins_resolve():
    for name in ("trivial", "fibonacci", "ising", "su2-3", "pointed-z3",
                 "pointed-z4-1", "toric-code", "dw-z2", "dw-z2x2",
                 "twisted-z3-1", "double-fibonacci", "tube-z2-1"):
        d = resolve_builtin_data(name)
        assert d.rank >= 1


def test_unknown_builtin_exit2(capsys):
    code, _, err = run(capsys, "verify", "--data", "builtin:nope")
    assert code == 2
    assert "unknown builtin" in err


def test_no_command_usage(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_help_exits_zero(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0


def test_bad_threads(capsys):
    code, _, err = run(capsys, "--threads", "0", "verify", "--data", "builtin:trivial")
    assert code == 2


def test_fmt_value_twelve_digits():
    assert fmt_value(0.5) == "0.500000000000 0.000000000000"
    z = complex(1 / 3, -2 / 7)
    re_, im = fmt_value(z).split()
    assert math.isclose(float(re_), z.real, abs_tol=5e-13)
    assert math.isclose(float(im), z.imag, abs_tol=5e-13)


def test_double_builtin_matches_library():
    import numpy as np

    d = resolve_builtin_data("double-ising")
    ref = tvo.double_data(tvo.ising())
    assert np.array_equal(d.S, ref.S)


def test_double_double_is_double_data_twice():
    import numpy as np

    d = resolve_builtin_data("double-double-fibonacci")
    ref = tvo.double_data(tvo.double_data(tvo.fibonacci()))
    assert np.array_equal(d.S, ref.S) and np.array_equal(d.T, ref.T)
    assert d.labels == ref.labels


def test_double_nesting_up_to_the_cap_resolves():
    from tvo.cli import _DOUBLE_CAP

    d = resolve_builtin_data("double-" * _DOUBLE_CAP + "trivial")
    assert d.rank == 1 and len(d.labels[0]) == 5 * 2**_DOUBLE_CAP - 4


@pytest.mark.parametrize("depth", [9, 1200])
def test_double_nesting_above_the_cap_exit2(capsys, depth):
    from tvo.cli import _DOUBLE_CAP

    assert depth > _DOUBLE_CAP
    code, out, err = run(capsys, "verify", "--data", "builtin:" + "double-" * depth + "trivial")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert f"{depth} nested double- prefixes are above the cap of {_DOUBLE_CAP}" in err


def test_command_result_contract():
    import argparse

    from tvo.cli import cmd_invariant

    args = argparse.Namespace(manifold="lens", p=3, q=1, r=None, tree=None,
                              data="builtin:toric-code")
    res = cmd_invariant(args)
    assert res.exit_code == 0
    assert res.records == ["0.500000000000 0.000000000000"]
    assert res.lines and res.lines[0].startswith("#")
    assert res.warnings == []

    args.data = "builtin:fibonacci"
    res = cmd_invariant(args)
    assert res.exit_code == 0 and res.warnings


def test_invariant_huge_framing_is_exact(capsys):
    code, out, _ = run(capsys, "invariant", "lens", "-p", "100000000000000000000", "-q", "1",
                       "--data", "builtin:toric-code")
    assert code == 0
    assert out.strip().splitlines()[-1] == "1.000000000000 0.000000000000"


def test_invariant_malformed_tree_file_exit2(capsys, tmp_path):
    for text, where in (("vertex 0\n", "line 1"),
                        ("vertex 0 1\n# comment\nknot 0 1\n", "line 3"),
                        ("vertex 0 1 7\n", "line 1")):
        tree = tmp_path / "bad.tree"
        tree.write_text(text)
        code, out, err = run(capsys, "invariant", "plumbing", "--tree", str(tree),
                             "--data", "builtin:toric-code")
        assert code == 2
        assert err.startswith("error:") and where in err
        assert "Traceback" not in err and out == ""


def test_invariant_missing_tree_file_exit2(capsys, tmp_path):
    code, _, err = run(capsys, "invariant", "plumbing", "--tree", str(tmp_path / "none.tree"),
                       "--data", "builtin:toric-code")
    assert code == 2
    assert "cannot open tree file" in err


def _rank2_file(tmp_path, entry):
    """A rank-2 data file (S = the 2x2 Hadamard over sqrt 2, T = (1, -1)) with
    the line for ``entry``'s index replaced by ``entry``."""
    path = tmp_path / "rank2.dat"
    r = 0.7071067811865476
    lines = {"S 0 0": f"S 0 0 {r} 0", "S 0 1": f"S 0 1 {r} 0", "S 1 0": f"S 1 0 {r} 0",
             "S 1 1": f"S 1 1 {-r} 0", "T 0": "T 0 1 0", "T 1": "T 1 -1 0"}
    lines[entry.rsplit(" ", 2)[0]] = entry
    path.write_text("rank 2\n" + "\n".join(lines.values()) + "\n")
    return path


def test_invariant_nan_twist_exit2(capsys, tmp_path):
    path = _rank2_file(tmp_path, "T 1 nan 0")
    code, _, err = run(capsys, "invariant", "lens", "-p", "3", "-q", "1", "--data", str(path))
    assert code == 2
    assert "T[1] = (nan+0j) is not finite" in err


@pytest.mark.parametrize("entry,args", [("T 1 inf 0", ("lens", "-p", "5", "-q", "1")),
                                        ("T 1 inf 0", ("brieskorn", "-p", "2", "-q", "3", "-r", "5")),
                                        ("S 1 1 inf 0", ("lens", "-p", "5", "-q", "2"))])
def test_invariant_infinite_entry_exit2_without_numpy_warnings(capsys, tmp_path, entry, args):
    path = _rank2_file(tmp_path, entry)
    code, out, err = run(capsys, "invariant", *args, "--data", str(path))
    assert code == 2 and out == ""
    where = "T[1]" if entry.startswith("T") else "S[1, 1]"
    assert f"{where} = (inf+0j) is not finite" in err and "RuntimeWarning" not in err


def test_invariant_nan_s_entry_is_refused(capsys, tmp_path):
    path = _rank2_file(tmp_path, "S 0 1 nan 0")
    code, out, err = run(capsys, "invariant", "lens", "-p", "5", "-q", "1", "--data", str(path))
    assert code == 2 and out == ""
    assert "S[0, 1] = (nan+0j) is not finite" in err


@pytest.mark.parametrize("args", [("lens", "-p", "5", "-q", "2"),
                                  ("brieskorn", "-p", "2", "-q", "3", "-r", "5"),
                                  ("plumbing",)])
def test_invariant_non_unitary_data_exit2_without_numpy_warnings(capsys, tmp_path, args):
    # finite, but S S^dagger overflows: surgery refuses it before any sum
    path = _rank2_file(tmp_path, "S 1 1 1e200 0")
    if args == ("plumbing",):
        tree = tmp_path / "star.tree"
        tree.write_text("vertex 0 1\nvertex 1 2\nvertex 2 3\nvertex 3 5\n"
                        "edge 0 1\nedge 0 2\nedge 0 3\n")
        args += ("--tree", str(tree))
    code, out, err = run(capsys, "invariant", *args, "--data", str(path))
    assert code == 2 and out == ""
    assert "surgery needs S unitary" in err and "max |S S^dagger - I| = inf" in err
    assert "RuntimeWarning" not in err


def test_verify_non_finite_data_exit2(capsys, tmp_path):
    path = _rank2_file(tmp_path, "S 0 1 nan 0")
    code, out, err = run(capsys, "verify", "--data", str(path))
    assert code == 2 and out == ""
    assert "S[0, 1] = (nan+0j) is not finite" in err


# ---------------------------------------------------------------------------
# input files that cannot be read
# ---------------------------------------------------------------------------

_FILE_ARGS = {
    "data": ("verify", "--data", "{}"),
    "triangulation": ("statesum", "--sixj", "builtin:vec-z2", "--tri", "{}"),
    "tree": ("invariant", "plumbing", "--tree", "{}", "--data", "builtin:toric-code"),
}


@pytest.mark.parametrize("what", sorted(_FILE_ARGS))
@pytest.mark.parametrize("kind,reason", [("directory", "Is a directory"),
                                         ("missing", "No such file or directory")])
def test_an_unreadable_input_path_is_exit2(capsys, tmp_path, what, kind, reason):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    argv = [a.format(path) for a in _FILE_ARGS[what]]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: cannot open {what} file {str(path)!r}: {reason}\n"


@pytest.mark.parametrize("what,text", [
    ("data", "rank 1\nlabel 0 caf{bad}\nS 0 0 1 0\nT 0 1 0\n"),
    ("triangulation", "# {bad}\ntets 1\n"),
    ("tree", "vertex 0 1\n# {bad}\n"),
])
def test_an_input_file_that_is_not_utf8_is_exit2(capsys, tmp_path, what, text):
    head, tail = text.split("{bad}")
    path = tmp_path / "latin1.txt"
    path.write_bytes(head.encode() + b"\xe9" + tail.encode())
    code, out, err = run(capsys, *[a.format(path) for a in _FILE_ARGS[what]])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(path) in err and f"byte {len(head)} (0xe9)" in err


def test_python_m_tvo_runs_the_cli(capsys):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "tvo", "--list-builtins"],
                          capture_output=True, text=True, env=env, timeout=120)
    code, out, _ = run(capsys, "--list-builtins")
    assert proc.returncode == code == 0, proc.stderr
    assert proc.stdout == out and out
