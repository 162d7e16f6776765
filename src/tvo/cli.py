"""Command-line interface: verify data, compute invariants, run comparisons.

Exit codes: 0 success, 1 a check failed, 2 usage or parse error. Values are
printed as `re im` pairs with 12 digits; lines starting with `#` are
commentary, the last plain line of `invariant`/`statesum` output is the
machine-readable value.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field

from . import catalog, dataio, statesum, surgery, tube
from .errors import CapacityError, TvoError
from .modular import ModularData, conjugate_equivalent, double_data, verify_verlinde
from .triangulation import boundary_4_simplex

GOLDEN_TOLERANCE = 1e-6


def fmt_value(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.12f} {z.imag:.12f}"


@dataclass
class CommandResult:
    """Outcome of one subcommand: exit code, report lines, machine records.

    Exit code 0 means every check passed and no error occurred; 1 means a
    check failed; 2 (raised as TvoError before construction) covers usage
    and parse errors. ``records`` are the machine-readable `re im` lines,
    printed to stdout after the report; ``warnings`` go to stderr.
    """

    exit_code: int
    lines: list
    records: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# builtin registries
# ---------------------------------------------------------------------------
# One row per builtin name: (pattern, usage, description, factory). A name
# resolves by the first row whose pattern matches it whole, calling the factory
# on the match groups; ``list_builtins`` prints the usage and description.

#: the most ``double-`` prefixes one builtin name may nest. Each doubling
#: squares the rank and doubles the label length, so every builtin of rank
#: >= 2 meets the 1 GiB array cap by its fourth; only rank-1 data goes deeper.
_DOUBLE_CAP = 8


def _int(digits: str) -> int:
    """A builtin's integer parameter; refuses digit strings past Python's
    integer-conversion limit instead of raising ``ValueError``."""
    try:
        return int(digits)
    except ValueError:
        raise CapacityError(
            f"a builtin parameter of {len(digits)} digits is above the limit of "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def _on_ints(make):
    """A factory that calls ``make`` on its match groups read as integers."""
    return lambda *groups: make(*map(_int, groups))


def _doubled(prefixes: str, name: str) -> ModularData:
    """``double_data`` applied once per peeled ``double-`` prefix to builtin ``name``."""
    depth = len(prefixes) // len("double-")
    if depth > _DOUBLE_CAP:
        raise CapacityError(f"{depth} nested double- prefixes are above the cap of {_DOUBLE_CAP}")
    data = resolve_builtin_data(name)
    for _ in range(depth):
        data = double_data(data)
    return data


_DATA = (
    ("trivial", "trivial", "rank-1 data", catalog.trivial_data),
    ("fibonacci", "fibonacci", "rank-2 golden-ratio data", catalog.fibonacci),
    ("ising", "ising", "rank-3 data (1, sigma, psi)", catalog.ising),
    (r"su2-(\d+)", "su2-<k>", "SU(2) level k, rank k+1", _on_ints(catalog.su2_level_k)),
    (r"pointed-z(\d+)", "pointed-z<n>", "pointed cyclic data, canonical non-degenerate form",
     _on_ints(lambda n: catalog.pointed_cyclic(n, catalog.standard_pointed_form(n)))),
    (r"pointed-z(\d+)-(\d+)", "pointed-z<n>-<q>",
     "pointed cyclic data with form parameter q (mod 2n)", _on_ints(catalog.pointed_cyclic)),
    ("toric-code", "toric-code", "alias for dw-z2", lambda: resolve_builtin_data("dw-z2")),
    (r"dw-z(\d+(?:x\d+)*)", "dw-z<n1>[x<n2>...]",
     "quantum double of an abelian group, e.g. dw-z2, dw-z2x2",
     lambda f: catalog.quantum_double_abelian(
         catalog.FiniteAbelianGroup(tuple(map(_int, f.split("x")))))),
    (r"twisted-z(\d+)-(\d+)", "twisted-z<n>-<k>", "twisted double of Z/n with cocycle parameter k",
     _on_ints(catalog.twisted_double_cyclic)),
    (r"((?:double-)+)(.+)", "double-<name>",
     "product of a builtin with its conjugate, e.g. double-fibonacci", _doubled),
    (r"tube-z(\d+)-(\d+)", "tube-z<n>-<k>", "modular data from the tube-algebra center for (n, k)",
     _on_ints(lambda n, k: tube.tube_modular_data(tube.tube_pointed(n, k)))),
)

_SIXJ = (
    (r"vec-z(\d+)", "vec-z<n>", "pointed 6j data on Z/n, trivial cocycle",
     _on_ints(lambda n: statesum.pointed_sixj(n, 0))),
    (r"vec-z(\d+)-(\d+)", "vec-z<n>-<k>", "pointed 6j data on Z/n, cocycle parameter k",
     _on_ints(statesum.pointed_sixj)),
)

_TRI = (("s3", "s3", "boundary of the 4-simplex (5-tetrahedron 3-sphere)", boundary_4_simplex),)


def _make(rows, name: str, unknown: str):
    for pattern, _, _, make in rows:
        m = re.fullmatch(pattern, name)
        if m:
            return make(*m.groups())
    raise TvoError(unknown)


def resolve_builtin_data(name: str) -> ModularData:
    return _make(_DATA, name, f"unknown builtin data set {name!r} (see --list-builtins)")


def _load(loader, path, what):
    try:
        return loader(path)
    except OSError as exc:  # missing, a directory, not readable
        raise TvoError(f"cannot open {what} file {path!r}: {exc.strerror or exc}") from None


def resolve_data_source(source: str) -> ModularData:
    if source.startswith("builtin:"):
        return resolve_builtin_data(source[len("builtin:") :])
    return _load(dataio.load_modular_file, source, "data")


def resolve_sixj(source: str) -> statesum.SixJData:
    return _make(_SIXJ, source.removeprefix("builtin:"),
                 f"unknown 6j data {source!r} (see --list-builtins)")


def resolve_triangulation(source: str):
    if source.startswith("builtin:"):
        name = source[len("builtin:") :]
        return _make(_TRI, name, f"unknown builtin triangulation {name!r}")
    return _load(dataio.load_triangulation, source, "triangulation")


def list_builtins() -> list[str]:
    out = []
    for title, rows in (("modular data builtins (use as builtin:NAME):", _DATA),
                        ("6j data builtins (statesum --sixj):", _SIXJ),
                        ("triangulation builtins (statesum --tri):", _TRI)):
        out.append(title)
        out += [f"  {usage:<22} {doc}" for _, usage, doc, _ in rows]
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> CommandResult:
    data = resolve_data_source(args.data)
    report = verify_verlinde(data)
    lines = [f"# data: {args.data} (rank {data.rank})"] + report.lines()
    return CommandResult(0 if report.strict_pass else 1, lines)


def _surgery(data: ModularData, manifold: tuple):
    """Name and value of ``("lens", p, q)`` or ``("brieskorn", p, q, r)``; L(p,1)
    by ``lens_p1``, which alone also takes p = 0 (S^1 x S^2)."""
    if manifold[0] == "lens":
        _, p, q = manifold
        return f"L({p},{q})", surgery.lens_p1(data, p) if q == 1 else surgery.lens_general(data, p, q)
    _, p, q, r = manifold
    return f"M({p},{q},{r})", surgery.brieskorn(data, p, q, r)


def cmd_invariant(args) -> CommandResult:
    data = resolve_data_source(args.data)
    if args.manifold == "lens":
        if args.p is None or args.q is None:
            raise TvoError("lens requires -p and -q")
        _, result = _surgery(data, ("lens", args.p, args.q))
    elif args.manifold == "brieskorn":
        if None in (args.p, args.q, args.r):
            raise TvoError("brieskorn requires -p, -q and -r")
        _, result = _surgery(data, ("brieskorn", args.p, args.q, args.r))
    else:  # plumbing, the one choice left
        if args.tree is None:
            raise TvoError("plumbing requires --tree FILE")
        tree = _load(dataio.load_plumbing_tree, args.tree, "tree")
        result = surgery.plumbing_invariant(data, tree)
    return CommandResult(
        0,
        [f"# {result.method} data={args.data}"],
        records=[fmt_value(result.value)],
        warnings=list(result.warnings),
    )


def cmd_statesum(args) -> CommandResult:
    sixj = resolve_sixj(args.sixj)
    tri = resolve_triangulation(args.tri)
    result = statesum.tv_evaluate(sixj, tri)
    return CommandResult(0, [f"# {result.method}"], records=[fmt_value(result.value)])


def cmd_compare(args) -> CommandResult:
    a = resolve_data_source(args.a)
    b = resolve_data_source(args.b)
    if not args.conjugate:
        b = b.conjugate()
    perm = conjugate_equivalent(a, b)
    mode = "conjugate-equivalent" if args.conjugate else "equal up to relabeling"
    if perm is None:
        return CommandResult(1, [f"no equivalence: data sets are not {mode}"])
    return CommandResult(
        0,
        [f"# {mode}; permutation maps label i of A to label perm[i] of B"],
        records=[" ".join(str(int(x)) for x in perm)],
    )


def _checks(rows) -> CommandResult:
    """One ``head residual r  pass|FAIL`` line per (head, residual, tolerance)
    row; exit code 1 if any residual is above its tolerance."""
    lines, failures = [], 0
    for head, diff, tol in rows:
        failures += diff > tol
        lines.append(f"{head} residual {diff:.3e}  {'FAIL' if diff > tol else 'pass'}")
    return CommandResult(1 if failures else 0, lines)


def cmd_golden(args) -> CommandResult:
    if args.data is None:
        if args.source == "e6":
            return _e6_self_consistency()
        raise TvoError(f"golden --source {args.source} requires --data FILE")
    data = resolve_data_source(args.data)
    # (line head around the manifold's name, manifold, expected value)
    cases = [(f"{fx.source} {{:<10}}", fx.manifold, fx.value)
             for fx in catalog.golden_fixtures(args.source)]
    if args.source == "e6":  # the closed form's lens spaces L(p, 1), p <= 12, and L(p, 2), odd p
        cases += [("e6 {} ", ("lens", p, q), catalog.e6_lens_reference(p, q))
                  for p in range(1, 13) for q in (1, 2) if q == 1 or p % 2]
    rows = []
    for head, manifold, want in cases:
        name, result = _surgery(data, manifold)
        got = result.value
        rows.append((f"{head.format(name)} expected {fmt_value(want)}  got {fmt_value(got)} ",
                     abs(got - want), GOLDEN_TOLERANCE))
    return _checks(rows)


def _e6_self_consistency() -> CommandResult:
    """Closed-form checks that need no data file."""
    ref = catalog.e6_lens_reference
    checks = [
        ("L(1,1) = L(1,2) (both the 3-sphere)", ref(1, 1), ref(1, 2)),
        ("L(3,2) = conj(L(3,1))", ref(3, 2), ref(3, 1).conjugate()),
        ("L(2,1) = 1/2", ref(2, 1), 0.5 + 0j),
        ("L(3,1) = (1-i)/4", ref(3, 1), (1 - 1j) / 4),
    ]
    return _checks((f"e6 closed form {name:<34}", abs(got - want), 1e-12)
                   for name, got, want in checks)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvo",
        description="3-manifold invariants from modular data: verification, "
        "surgery formulas, state sums and reference comparisons.",
    )
    parser.add_argument("--list-builtins", action="store_true", help="list builtin names and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("verify", help="run the Verlinde axiom suite on a data set")
    p.set_defaults(run=cmd_verify)
    p.add_argument("--data", required=True, help="file path or builtin:NAME")

    p = sub.add_parser("invariant", help="evaluate a surgery formula")
    p.set_defaults(run=cmd_invariant)
    p.add_argument("manifold", choices=["lens", "brieskorn", "plumbing"])
    p.add_argument("-p", type=int, default=None)
    p.add_argument("-q", type=int, default=None)
    p.add_argument("-r", type=int, default=None)
    p.add_argument("--tree", default=None, help="plumbing tree file")
    p.add_argument("--data", required=True)

    p = sub.add_parser("statesum", help="evaluate the triangulation state sum")
    p.set_defaults(run=cmd_statesum)
    p.add_argument("--sixj", required=True, help="builtin:vec-zN or builtin:vec-zN-k")
    p.add_argument("--tri", required=True, help="triangulation file or builtin:s3")

    p = sub.add_parser("compare", help="search for a relabeling between two data sets")
    p.set_defaults(run=cmd_compare)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--conjugate", action="store_true",
                   help="match against the entrywise conjugate of --b")

    p = sub.add_parser("golden", help="compare a data file against published values")
    p.set_defaults(run=cmd_golden)
    p.add_argument("--data", default=None)
    p.add_argument("--source", required=True, choices=list(catalog.fixture_sources()))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, keep that contract
        return int(exc.code) if exc.code else 0
    if args.list_builtins:
        for line in list_builtins():
            print(line)
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        result = args.run(args)
    except TvoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in result.lines:
        print(line)
    for w in result.warnings:
        print(f"# warning: {w}", file=sys.stderr)
    for rec in result.records:
        print(rec)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
