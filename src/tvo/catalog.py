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

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.factors)

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(f) for f in self.factors)))

    def index(self, g: tuple[int, ...]) -> int:
        idx = 0
        for gi, fi in zip(g, self.factors):
            idx = idx * fi + (gi % fi)
        return idx

    def add(self, g, h):
        return tuple((a + b) % f for a, b, f in zip(g, h, self.factors))

    def neg(self, g):
        return tuple((-a) % f for a, f in zip(g, self.factors))

    def scale(self, m: int, g):
        return tuple((m * a) % f for a, f in zip(g, self.factors))

    def pairing(self, g, h) -> complex:
        """Character value chi_h(g) = exp(2 pi i sum (g_i h_i mod n_i) / n_i)."""
        return _e(sum(a * b % f / f for a, b, f in zip(g, h, self.factors)))

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
    S = np.sqrt(2 / n) * np.sin(np.outer(j + 1, j + 1) % (2 * n) * np.pi / n).astype(complex)
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
    S = np.exp(-_TWO_PI_I * (q * np.outer(a, a) % n) / n) / math.sqrt(n)
    T = np.exp(_TWO_PI_I * (q * a * a % (2 * n)) / (2 * n))
    return ModularData(S, T, labels=tuple(str(x) for x in a))


def _double_from_characters(A: np.ndarray, order: int, labels) -> ModularData:
    """Modular data of a double from its character table A[i, j] = psi_i(flux of j).

    S_ij = conj(psi_i(g_j) psi_j(g_i)) / |G| and t_i = psi_i(g_i)
    (Dijkgraaf-Pasquier-Roche; Coste-Gannon-Ruelle, Finite group modular data).
    """
    return ModularData((A * A.T).conj() / order, A.diagonal(), labels=labels)


def quantum_double_abelian(G: FiniteAbelianGroup) -> ModularData:
    """Untwisted quantum double of an abelian group.

    Labels are pairs (g, h) of a group element and a character index,
    ordered (index(g), index(h)); the character of (g, h) is chi_h.
    Strictly anomaly-free.
    """
    m = G.order
    _require_capacity(m**4, f"the S matrix of the double of {G} (rank {m * m})")
    els = G.elements()  # els[G.index(g)] == g
    # P[x, h] = chi_h(x); A[(g, h), (g2, h2)] = P[g2, h]
    P = np.array([[G.pairing(x, h) for h in els] for x in els])
    A = np.tile(np.repeat(P.T, m, axis=1), (m, 1))
    labels = tuple(f"({','.join(map(str, g))}|{','.join(map(str, h))})" for g in els for h in els)
    return _double_from_characters(A, m, labels)


def cyclic_cocycle(n: int, k: int):
    """The degree-3 cocycle representative on Z/n with parameter k.

    omega_k(a,b,c) = exp(2 pi i k a (b + c - [(b+c) mod n]) / n^2); the middle
    factor is n times the carry of b+c, so the value is exp(2 pi i k a / n)
    exactly when b+c wraps around.
    """
    kk = k % n if n > 0 else 0

    def omega(a: int, b: int, c: int) -> complex:
        carry = (b % n + c % n) // n
        return _e(kk * (a % n) * carry / n)

    return omega


def twisted_double_cyclic(n: int, k: int) -> ModularData:
    """Twisted double of Z/n for the cyclic cocycle with parameter k.

    Labels are pairs (a, j): a flux and a projective-character index. The
    projective character of the flux-a sector is
    psi_{a,j}(x) = exp(2 pi i (k a x / n + j x) / n), giving

        t_(a,j)            = psi_{a,j}(a)
        S_(a,i),(b,j)      = conj(psi_{a,i}(b) psi_{b,j}(a)) / n

    k = 0 reduces to quantum_double_abelian(Z/n) with identical label order.
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
    # A[(a, i), (b, j)] = psi[a, i, b]
    A = np.repeat(psi.reshape(n * n, n), n, axis=1)
    labels = tuple(f"({fa},{i})" for fa in range(n) for i in range(n))
    return _double_from_characters(A, n, labels)


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
