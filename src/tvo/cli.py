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
from .errors import TvoError
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

_BUILTIN_DOCS = [
    ("trivial", "rank-1 data"),
    ("fibonacci", "rank-2 golden-ratio data"),
    ("ising", "rank-3 data (1, sigma, psi)"),
    ("su2-<k>", "SU(2) level k, rank k+1"),
    ("pointed-z<n>", "pointed cyclic data, canonical non-degenerate form"),
    ("pointed-z<n>-<q>", "pointed cyclic data with form parameter q (mod 2n)"),
    ("toric-code", "alias for dw-z2"),
    ("dw-z<n1>[x<n2>...]", "quantum double of an abelian group, e.g. dw-z2, dw-z2x2"),
    ("twisted-z<n>-<k>", "twisted double of Z/n with cocycle parameter k"),
    ("double-<name>", "product of a builtin with its conjugate, e.g. double-fibonacci"),
    ("tube-z<n>-<k>", "modular data from the tube-algebra center for (n, k)"),
]

_SIXJ_DOCS = [
    ("vec-z<n>", "pointed 6j data on Z/n, trivial cocycle"),
    ("vec-z<n>-<k>", "pointed 6j data on Z/n, cocycle parameter k"),
]

_TRI_DOCS = [
    ("s3", "boundary of the 4-simplex (5-tetrahedron 3-sphere)"),
]


def resolve_builtin_data(name: str) -> ModularData:
    if name == "trivial":
        return catalog.trivial_data()
    if name == "fibonacci":
        return catalog.fibonacci()
    if name == "ising":
        return catalog.ising()
    if name == "toric-code":
        return catalog.quantum_double_abelian(catalog.FiniteAbelianGroup((2,)))
    m = re.fullmatch(r"su2-(\d+)", name)
    if m:
        return catalog.su2_level_k(int(m.group(1)))
    m = re.fullmatch(r"pointed-z(\d+)(?:-(\d+))?", name)
    if m:
        n = int(m.group(1))
        q = int(m.group(2)) if m.group(2) is not None else catalog.standard_pointed_form(n)
        return catalog.pointed_cyclic(n, q)
    m = re.fullmatch(r"dw-z(\d+(?:x\d+)*)", name)
    if m:
        factors = tuple(int(x) for x in m.group(1).split("x"))
        return catalog.quantum_double_abelian(catalog.FiniteAbelianGroup(factors))
    m = re.fullmatch(r"twisted-z(\d+)-(\d+)", name)
    if m:
        return catalog.twisted_double_cyclic(int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"tube-z(\d+)-(\d+)", name)
    if m:
        return tube.tube_modular_data(tube.tube_pointed(int(m.group(1)), int(m.group(2))))
    m = re.fullmatch(r"double-(.+)", name)
    if m:
        return double_data(resolve_builtin_data(m.group(1)))
    raise TvoError(f"unknown builtin data set {name!r} (see --list-builtins)")


def _load(loader, path, what):
    try:
        return loader(path)
    except FileNotFoundError:
        raise TvoError(f"cannot open {what} file {path!r}") from None


def resolve_data_source(source: str) -> ModularData:
    if source.startswith("builtin:"):
        return resolve_builtin_data(source[len("builtin:") :])
    return _load(dataio.load_modular_file, source, "data")


def resolve_sixj(source: str) -> statesum.SixJData:
    name = source.removeprefix("builtin:")
    m = re.fullmatch(r"vec-z(\d+)(?:-(\d+))?", name)
    if m:
        n = int(m.group(1))
        k = int(m.group(2)) if m.group(2) is not None else 0
        return statesum.pointed_sixj(n, k)
    raise TvoError(f"unknown 6j data {source!r} (see --list-builtins)")


def resolve_triangulation(source: str):
    if source.startswith("builtin:"):
        name = source[len("builtin:") :]
        if name == "s3":
            return boundary_4_simplex()
        raise TvoError(f"unknown builtin triangulation {name!r}")
    return _load(dataio.load_triangulation, source, "triangulation")


def list_builtins() -> list[str]:
    out = ["modular data builtins (use as builtin:NAME):"]
    out += [f"  {name:<22} {doc}" for name, doc in _BUILTIN_DOCS]
    out.append("6j data builtins (statesum --sixj):")
    out += [f"  {name:<22} {doc}" for name, doc in _SIXJ_DOCS]
    out.append("triangulation builtins (statesum --tri):")
    out += [f"  {name:<22} {doc}" for name, doc in _TRI_DOCS]
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> CommandResult:
    data = resolve_data_source(args.data)
    report = verify_verlinde(data)
    lines = [f"# data: {args.data} (rank {data.rank})"] + report.lines()
    return CommandResult(0 if report.strict_pass else 1, lines)


def cmd_invariant(args) -> CommandResult:
    data = resolve_data_source(args.data)
    if args.manifold == "lens":
        if args.p is None or args.q is None:
            raise TvoError("lens requires -p and -q")
        if args.q == 1:  # lens_p1 alone also takes p = 0 (S^1 x S^2)
            result = surgery.lens_p1(data, args.p)
        else:
            result = surgery.lens_general(data, args.p, args.q)
    elif args.manifold == "brieskorn":
        if None in (args.p, args.q, args.r):
            raise TvoError("brieskorn requires -p, -q and -r")
        result = surgery.brieskorn(data, args.p, args.q, args.r)
    elif args.manifold == "plumbing":
        if args.tree is None:
            raise TvoError("plumbing requires --tree FILE")
        tree = _load(dataio.load_plumbing_tree, args.tree, "tree")
        result = surgery.plumbing_invariant(data, tree)
    else:  # pragma: no cover - argparse restricts choices
        raise TvoError(f"unknown manifold {args.manifold!r}")
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


def cmd_golden(args) -> CommandResult:
    if args.data is None:
        if args.source == "e6":
            return _e6_self_consistency()
        raise TvoError(f"golden --source {args.source} requires --data FILE")
    data = resolve_data_source(args.data)
    fixtures = catalog.golden_fixtures(args.source)
    lines = []
    failures = 0
    for fx in fixtures:
        if fx.manifold[0] == "lens":
            _, p, q = fx.manifold
            got = surgery.lens_general(data, p, q).value
            name = f"L({p},{q})"
        else:
            _, p, q, r = fx.manifold
            got = surgery.brieskorn(data, p, q, r).value
            name = f"M({p},{q},{r})"
        diff = abs(got - fx.value)
        ok = diff <= GOLDEN_TOLERANCE
        failures += 0 if ok else 1
        lines.append(f"{fx.source} {name:<10} expected {fmt_value(fx.value)}  got {fmt_value(got)}  "
                     f"residual {diff:.3e}  {'pass' if ok else 'FAIL'}")
    if args.source == "e6":
        more, extra_failures = _e6_lens_against_data(data)
        lines += more
        failures += extra_failures
    return CommandResult(1 if failures else 0, lines)


def _e6_self_consistency() -> CommandResult:
    """Closed-form checks that need no data file."""
    checks = [
        ("L(1,1) = L(1,2) (both the 3-sphere)",
         catalog.e6_lens_reference(1, 1), catalog.e6_lens_reference(1, 2)),
        ("L(3,2) = conj(L(3,1))",
         catalog.e6_lens_reference(3, 2), catalog.e6_lens_reference(3, 1).conjugate()),
        ("L(2,1) = 1/2", catalog.e6_lens_reference(2, 1), 0.5 + 0j),
        ("L(3,1) = (1-i)/4", catalog.e6_lens_reference(3, 1), (1 - 1j) / 4),
    ]
    lines = []
    bad = 0
    for name, got, want in checks:
        diff = abs(got - want)
        ok = diff <= 1e-12
        bad += 0 if ok else 1
        lines.append(f"e6 closed form {name:<34} residual {diff:.3e}  {'pass' if ok else 'FAIL'}")
    return CommandResult(1 if bad else 0, lines)


def _e6_lens_against_data(data: ModularData):
    lines = []
    failures = 0
    for p in range(1, 13):
        for q in (1, 2):
            if q == 2 and p % 2 == 0:
                continue
            want = catalog.e6_lens_reference(p, q)
            got = surgery.lens_general(data, p, q).value
            diff = abs(got - want)
            ok = diff <= GOLDEN_TOLERANCE
            failures += 0 if ok else 1
            lines.append(f"e6 L({p},{q})  expected {fmt_value(want)}  got {fmt_value(got)}  "
                         f"residual {diff:.3e}  {'pass' if ok else 'FAIL'}")
    return lines, failures


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
    p.add_argument("--data", required=True, help="file path or builtin:NAME")

    p = sub.add_parser("invariant", help="evaluate a surgery formula")
    p.add_argument("manifold", choices=["lens", "brieskorn", "plumbing"])
    p.add_argument("-p", type=int, default=None)
    p.add_argument("-q", type=int, default=None)
    p.add_argument("-r", type=int, default=None)
    p.add_argument("--tree", default=None, help="plumbing tree file")
    p.add_argument("--data", required=True)

    p = sub.add_parser("statesum", help="evaluate the triangulation state sum")
    p.add_argument("--sixj", required=True, help="builtin:vec-zN or builtin:vec-zN-k")
    p.add_argument("--tri", required=True, help="triangulation file or builtin:s3")

    p = sub.add_parser("compare", help="search for a relabeling between two data sets")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--conjugate", action="store_true",
                   help="match against the entrywise conjugate of --b")

    p = sub.add_parser("golden", help="compare a data file against published values")
    p.add_argument("--data", default=None)
    p.add_argument("--source", required=True, choices=list(catalog.fixture_sources()))
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "invariant": cmd_invariant,
    "statesum": cmd_statesum,
    "compare": cmd_compare,
    "golden": cmd_golden,
}


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
        result = _COMMANDS[args.command](args)
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
