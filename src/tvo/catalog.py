"""Built-in modular data generators, brute-force oracles and golden reference values.

The generators cover the standard small examples (Fibonacci, Ising, SU(2)
levels, pointed cyclic data, abelian quantum doubles and twisted doubles of
cyclic groups). The oracles count group homomorphisms directly and know
nothing about S or T matrices, which makes them independent checks for the
surgery evaluators.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GeneratorError, PreconditionError
from .modular import ModularData, _require_capacity
from .surgery import _integral

_TWO_PI_I = 2j * math.pi


def _e(x: float) -> complex:
    """exp(2 pi i x)"""
    return cmath.exp(_TWO_PI_I * x)


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups; elements are tuples of residues. The factors
    may be any integral values (numpy integers, floats such as 3.0) and are
    stored as Python ints."""

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(_integral(f, "cyclic factor", GeneratorError) for f in self.factors)
        if not all(f >= 1 for f in factors):
            raise GeneratorError(f"cyclic factors must be positive integers: {factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    def elements(self) -> list[tuple[int, ...]]:
        """Every element, in lexicographic order of the residues."""
        return list(itertools.product(*(range(f) for f in self.factors)))

    def __str__(self):
        return "x".join(f"Z{f}" for f in self.factors) if self.factors else "Z1"


def trivial_data() -> ModularData:
    return ModularData(np.array([[1.0]]), np.array([1.0]), labels=("1",))


def fibonacci() -> ModularData:
    phi = (1 + math.sqrt(5)) / 2
    s = 1.0 / math.sqrt(2 + phi)
    S = s * np.array([[1, phi], [phi, -1]], dtype=complex)
    T = np.array([1.0, _e(2 / 5)], dtype=complex)
    return ModularData(S, T, labels=("1", "tau"))


def ising() -> ModularData:
    r = math.sqrt(2)
    S = 0.5 * np.array([[1, r, 1], [r, 0, -r], [1, -r, 1]], dtype=complex)
    T = np.array([1.0, _e(1 / 16), -1.0], dtype=complex)
    return ModularData(S, T, labels=("1", "sigma", "psi"))


def su2_level_k(k: int) -> ModularData:
    """SU(2) level-k data: S_ij = sqrt(2/(k+2)) sin((i+1)(j+1)pi/(k+2)), spins j(j+2)/(4(k+2))."""
    k = _integral(k, "su2_level_k k")
    if k < 1:
        raise PreconditionError("su2_level_k requires k >= 1")
    _require_capacity((k + 1) ** 2, f"the S matrix of su2_level_k({k}) (rank {k + 1})")
    n = k + 2
    j = np.arange(k + 1)
    # integer numerators reduced mod their periods, so the angles stay below 2 pi
    S = np.sin(np.outer(j + 1, j + 1) % (2 * n) * np.pi / n).astype(complex)
    S *= np.sqrt(2 / n)
    S.setflags(write=False)
    T = np.exp(_TWO_PI_I * (j * (j + 2) % (4 * n)) / (4 * n))
    return ModularData(S, T, labels=tuple(str(x) for x in j))


def standard_pointed_form(n: int) -> int:
    """A canonical non-degenerate form parameter: q=1 for even n, q=2 for odd n."""
    if n == 1:
        return 0
    return 1 if n % 2 == 0 else 2


def pointed_cyclic(n: int, q: int) -> ModularData:
    """Rank-n pointed data from the quadratic form Q(a) = q a^2 / (2n) on Z/n.

    S comes from the induced bilinear pairing, S_ab = exp(-2 pi i q a b / n)/sqrt(n),
    and t_a = exp(2 pi i Q(a)). The form must be non-degenerate, i.e.
    gcd(q, n) = 1, otherwise a :class:`GeneratorError` is raised.
    """
    n, q = _integral(n, "pointed_cyclic n"), _integral(q, "pointed_cyclic q")
    if n < 1:
        raise PreconditionError("pointed_cyclic requires n >= 1")
    q = q % (2 * n)
    if math.gcd(q, n) != 1:
        raise GeneratorError(
            f"quadratic form parameter q={q} is degenerate on Z/{n} (gcd(q, n) != 1)"
        )
    _require_capacity(n * n, f"the S matrix of pointed_cyclic({n}, {q}) (rank {n})")
    a = np.arange(n)
    S = (q * np.outer(a, a) % n).astype(complex)
    np.divide(np.multiply(S, -_TWO_PI_I, out=S), n, out=S)  # the exponent, then S in place
    np.divide(np.exp(S, out=S), math.sqrt(n), out=S)
    S.setflags(write=False)
    T = np.exp(_TWO_PI_I * (q * a * a % (2 * n)) / (2 * n))
    return ModularData(S, T, labels=tuple(str(x) for x in a))


def _double_from_characters(psi: np.ndarray, labels) -> ModularData:
    """Modular data of a double of a group of order m from its character block
    psi[a, i, b], the character of label (a, i) at flux b:
    S_(a,i),(b,j) = conj(psi[a,i,b] psi[b,j,a]) / m and t_(a,i) = psi[a,i,a]
    (Dijkgraaf-Pasquier-Roche; Coste-Gannon-Ruelle, Finite group modular data).
    S, the only m^4 array built, is written in place and kept read-only.
    """
    m = psi.shape[0]
    S = np.empty((m * m, m * m), dtype=complex)
    np.multiply(psi[:, :, :, None], psi.transpose(2, 0, 1)[:, None, :, :], out=S.reshape(m, m, m, m))
    np.divide(np.conjugate(S, out=S), m, out=S)
    S.setflags(write=False)
    return ModularData(S, np.einsum("aia->ai", psi).reshape(-1), labels=labels)


def quantum_double_abelian(G: FiniteAbelianGroup) -> ModularData:
    """Untwisted quantum double of an abelian group.

    Labels are pairs (g, h) of a group element and a character index,
    each in the order of ``G.elements()``; the character of (g, h) at every
    flux is chi_h(x) = exp(2 pi i sum_i (x_i h_i mod n_i) / n_i), one (m, m)
    array P[x, h] broadcast to the character block. Strictly anomaly-free.
    """
    m = G.order
    _require_capacity(m**4, f"the S matrix of the double of {G} (rank {m * m})")
    els = G.elements()
    x = np.indices(G.factors).reshape(len(G.factors), m)  # x[i, e]: residue i of element e
    turns = sum((np.outer(xi, xi) % f / f for xi, f in zip(x, G.factors)), np.zeros((m, m)))
    P = np.exp(_TWO_PI_I * turns)
    labels = tuple(f"({','.join(map(str, g))}|{','.join(map(str, h))})" for g in els for h in els)
    return _double_from_characters(np.broadcast_to(P.T, (m, m, m)), labels)


def cyclic_cocycle(n: int, k: int) -> np.ndarray:
    """The degree-3 cocycle representative on Z/n with parameter k, as the
    read-only (n, n, n) complex table omega[a, b, c]: the 6j weights of
    ``pointed_sixj`` and the tube table tau of ``tube_pointed``.

    omega_k(a,b,c) = exp(2 pi i k a (b + c - [(b+c) mod n]) / n^2); the middle
    factor is n times the carry of b+c, so the value is exp(2 pi i k a / n)
    exactly where b+c wraps around, and 1 elsewhere.
    """
    n, k = _integral(n, "cyclic_cocycle n"), _integral(k, "cyclic_cocycle k")
    if n < 1:
        raise PreconditionError("cyclic_cocycle requires n >= 1")
    _require_capacity(n**3, f"the cocycle table of Z/{n} (n^3 entries)")
    ar = np.arange(n)
    wraps = np.add.outer(ar, ar) >= n
    omega = np.where(wraps, np.exp(_TWO_PI_I * (k % n * ar / n))[:, None, None], 1.0 + 0j)
    omega.setflags(write=False)
    return omega


def twisted_double_cyclic(n: int, k: int) -> ModularData:
    """Twisted double of Z/n for the cyclic cocycle with parameter k.

    Labels are pairs (a, j): a flux and a projective-character index. The
    projective characters psi_{a,j}(x) = exp(2 pi i (k a x / n + j x) / n)
    form the (n, n, n) block that :func:`_double_from_characters` reads as
    it is. k = 0 reduces to quantum_double_abelian(Z/n) with identical
    label order.
    """
    n, k = _integral(n, "twisted_double_cyclic n"), _integral(k, "twisted_double_cyclic k")
    if n < 1:
        raise PreconditionError("twisted_double_cyclic requires n >= 1")
    _require_capacity(n**4, f"the S matrix of twisted_double_cyclic({n}, {k}) (rank {n * n})")
    k = k % n
    a = np.arange(n)
    # psi[a, j, x] = exp(2 pi i (k a x + n j x) / n^2), numerator reduced mod n^2
    ax = np.outer(a, a)
    psi = np.exp(_TWO_PI_I * ((k * ax[:, np.newaxis, :] + n * ax[np.newaxis]) % (n * n)) / (n * n))
    labels = tuple(f"({fa},{i})" for fa in range(n) for i in range(n))
    return _double_from_characters(psi, labels)


# ---------------------------------------------------------------------------
# brute-force homomorphism-counting oracles
# ---------------------------------------------------------------------------

def dw_lens_oracle(G: FiniteAbelianGroup, p: int) -> Fraction:
    """Untwisted path-integral value for the lens space L(p, q): |Hom(Z/p, G)| / |G|.

    Counted exactly, factor by factor, without enumerating G (independent
    of q): Z/n holds gcd(p, n) elements x with p x = 0.
    """
    p = _integral(p, "dw_lens_oracle p")
    if p < 1:
        raise PreconditionError("dw_lens_oracle requires p >= 1")
    return Fraction(math.prod(math.gcd(p, n) for n in G.factors), G.order)


def dw_brieskorn_oracle(G: FiniteAbelianGroup, p: int, q: int, r: int) -> Fraction:
    """Counting value 1/|G| for the Brieskorn homology sphere Sigma(p,q,r).

    Valid only for pairwise coprime p, q, r >= 2 (then H_1 = 0 and only the
    trivial homomorphism to an abelian target exists); anything else is
    rejected. It equals ``brieskorn()`` on a quantum double only when the
    star plumbing that sum presents is Sigma(p,q,r), i.e. when
    |pqr - pq - pr - qr| = 1.
    """
    p, q, r = (_integral(v, f"dw_brieskorn_oracle {name}") for v, name in zip((p, q, r), "pqr"))
    if min(p, q, r) < 2:
        raise PreconditionError("dw_brieskorn_oracle requires p, q, r >= 2")
    if math.gcd(p, q) != 1 or math.gcd(p, r) != 1 or math.gcd(q, r) != 1:
        raise PreconditionError(
            f"({p},{q},{r}) is not pairwise coprime; oracle requires a homology sphere"
        )
    return Fraction(1, G.order)


# ---------------------------------------------------------------------------
# closed-form reference values for the E6 data
# ---------------------------------------------------------------------------

def e6_lens_reference(p: int, q: int) -> complex:
    """Closed-form lens space values for the E6 data set, q in {1, 2}, of period 12 in p."""
    p, q = _integral(p, "e6_lens_reference p"), _integral(q, "e6_lens_reference q")
    if p < 1:
        raise PreconditionError("e6_lens_reference requires p >= 1")
    p = (p - 1) % 12 + 1
    if q == 1:
        return (
            ((-1) ** p + 1) * cmath.exp(-p * math.pi * 1j / 3)
            + 2 * cmath.exp(-5 * p * math.pi * 1j / 6)
            + 1j**p
            + 2 * (-1) ** p
            + 5
        ) / 12
    if q == 2:
        if p % 2 == 0:
            raise PreconditionError("the L(p,2) closed form requires odd p")
        return (
            0.25
            + ((-1) ** ((p + 1) // 2)) * 1j / 12
            - (math.sqrt(3) + 1j) / 12 * cmath.exp(-(p + 1) * math.pi * 1j / 6)
        )
    raise PreconditionError("e6_lens_reference supports q = 1 or 2 only")


# ---------------------------------------------------------------------------
# golden fixtures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoldenFixture:
    """A published invariant value: data-set label, manifold, expected complex value."""

    source: str
    manifold: tuple  # ("lens", p, q) or ("brieskorn", p, q, r)
    value: complex
    note: str = ""


def _lens(p, q):
    return ("lens", p, q)


def _brieskorn(p, q, r):
    return ("brieskorn", p, q, r)


_SQRT2 = math.sqrt(2)
_SQRT3 = math.sqrt(3)
_SQRT5 = math.sqrt(5)
_SQRT7 = math.sqrt(7)
_SQRT13 = math.sqrt(13)
_SQRT21 = math.sqrt(21)

_W = _e(1 / 3)  # primitive cube root of unity used in the D5 value

_FIXTURES: tuple[GoldenFixture, ...] = (
    # D5(1) data
    GoldenFixture("d5", _lens(3, 1), (1 + 2 * _W**2) / 6, "(1+2w^2)/6, w = e^{2 pi i/3}"),
    GoldenFixture("d5", _lens(3, 2), ((1 + 2 * _W**2) / 6).conjugate(), "conjugate of L(3,1)"),
    GoldenFixture("d5", _lens(5, 1), 1 / 6),
    GoldenFixture("d5", _lens(5, 2), 1 / 6),
    GoldenFixture("d5", _lens(7, 1), 1 / 6),
    GoldenFixture("d5", _lens(7, 2), 1 / 6),
    # E6 data: Brieskorn table (lens values come from e6_lens_reference)
    GoldenFixture("e6", _brieskorn(2, 3, 5), ((6 + 2 * _SQRT3) + (3 - 3 * _SQRT3) * 1j) / 12),
    GoldenFixture("e6", _brieskorn(2, 3, 7), ((6 + 2 * _SQRT3) + (3 - 3 * _SQRT3) * 1j) / 12),
    GoldenFixture("e6", _brieskorn(2, 5, 7), (-_SQRT3 + 9 + 6j) / 12),
    GoldenFixture("e6", _brieskorn(3, 5, 7), (2 - _SQRT3 * 1j) / 2),
    # generalized E6 with Z/3
    GoldenFixture("e6-z3", _lens(3, 1), (7 - _SQRT7 * 1j) / 14),
    GoldenFixture("e6-z3", _lens(3, 2), ((7 - _SQRT7 * 1j) / 14).conjugate(), "conjugate of L(3,1)"),
    GoldenFixture("e6-z3", _lens(5, 1), (7 - _SQRT21) / 42),
    GoldenFixture("e6-z3", _lens(5, 2), (7 - _SQRT21) / 42),
    GoldenFixture("e6-z3", _lens(7, 1), (1 + _SQRT3 * 1j) / 6),
    GoldenFixture("e6-z3", _lens(7, 2), (1 + _SQRT3 * 1j) / 6),
    # generalized E6 with Z/4
    GoldenFixture("e6-z4", _lens(3, 1), (2 + _SQRT2) / 16),
    GoldenFixture("e6-z4", _lens(3, 2), (2 + _SQRT2) / 16),
    GoldenFixture("e6-z4", _lens(5, 1), (2 + _SQRT2) / 16),
    GoldenFixture("e6-z4", _lens(5, 2), (2 + _SQRT2) / 16),
    GoldenFixture("e6-z4", _lens(7, 1), (2 - _SQRT2) / 16),
    GoldenFixture("e6-z4", _lens(7, 2), (2 - _SQRT2) / 16),
    # generalized E6 with Z/5
    GoldenFixture("e6-z5", _lens(3, 1), (1 - _SQRT5) / 10),
    GoldenFixture("e6-z5", _lens(3, 2), (1 - _SQRT5) / 10),
    GoldenFixture("e6-z5", _lens(5, 1), 1 / 3),
    GoldenFixture("e6-z5", _lens(5, 2), 2 / 3),
    GoldenFixture("e6-z5", _lens(7, 1), (3 + _SQRT5) / 30),
    GoldenFixture("e6-z5", _lens(7, 2), (3 + _SQRT5) / 30),
    # generalized E6 with Z/2 x Z/2
    GoldenFixture("e6-z2x2", _lens(3, 1), (2 + _SQRT2) / 16),
    GoldenFixture("e6-z2x2", _lens(3, 2), (2 + _SQRT2) / 16),
    GoldenFixture("e6-z2x2", _lens(5, 1), (2 + _SQRT2) / 16),
    GoldenFixture("e6-z2x2", _lens(5, 2), (2 + _SQRT2) / 16),
    GoldenFixture("e6-z2x2", _lens(7, 1), (2 - _SQRT2) / 16),
    GoldenFixture("e6-z2x2", _lens(7, 2), (2 - _SQRT2) / 16),
    # Haagerup data
    GoldenFixture("haagerup", _lens(7, 1), (13 + 3 * _SQRT13) / 78),
    GoldenFixture("haagerup", _lens(7, 2), (13 + 3 * _SQRT13) / 78),
    GoldenFixture("haagerup", _brieskorn(2, 3, 5), -_SQRT13 / 26 + 7 / 6),
)


def golden_fixtures(source: str | None = None) -> tuple[GoldenFixture, ...]:
    """Published invariant values, optionally filtered by data-set label."""
    if source is None:
        return _FIXTURES
    out = tuple(f for f in _FIXTURES if f.source == source)
    if not out:
        known = sorted({f.source for f in _FIXTURES})
        raise PreconditionError(f"unknown fixture source {source!r}; known: {known}")
    return out


def fixture_sources() -> tuple[str, ...]:
    return tuple(dict.fromkeys(f.source for f in _FIXTURES))
