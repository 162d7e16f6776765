"""Modular data (S and T matrices) and the Verlinde-basis axiom checks.

A :class:`ModularData` holds a finite label set (index 0 is always the
vacuum), a symmetric unitary S matrix and the diagonal entries t_i of T.
Everything downstream (fusion rules, charge conjugation, doubling,
surgery evaluators) is computed from these two tables in complex double
precision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from time import perf_counter

import numpy as np

from .errors import (
    CapacityError,
    ConjugationError,
    DegenerateDataError,
    FusionIntegralityError,
    StructureError,
)

#: default comparison tolerance; relative for magnitudes > 1, absolute otherwise
DEFAULT_TOLERANCE = 1e-9
#: tolerance for rounding Verlinde sums to integers
INTEGER_TOLERANCE = 1e-6

# conjugate_equivalent search budgets; blocks of labels sharing a T eigenvalue
# larger than this are refused rather than searched
_BLOCK_CAP = 16
_NODE_BUDGET = 500_000
# largest order of T that ModularData._t_order looks for
_T_ORDER_CAP = 10_000
# largest complex array built, in bytes: the generators' S matrices (rank^2
# entries, rank <= 8192). The Verlinde pass charges rank^3 complex entries
# against it and so refuses ranks above 406; its largest array is the int64
# table of rank^3 entries (535 MB at rank 406)
_VERLINDE_CAP_BYTES = 2**30


def close(a, b) -> bool:
    """Tolerance comparison of scalars: relative above magnitude 1, absolute below."""
    scale = max(1.0, abs(a), abs(b))
    return abs(a - b) <= DEFAULT_TOLERANCE * scale


@dataclass(eq=False, frozen=True)
class ModularData:
    """Labels plus the (S, t) tables of a torus representation.

    Parameters
    ----------
    S : (m+1, m+1) complex array, expected unitary and symmetric
    T : (m+1,) complex array of diagonal T entries t_i, expected unit modulus
    labels : optional display names, index 0 is the vacuum

    Construction checks shapes and finiteness; run :func:`verify_verlinde`
    for the axioms. Every comparison uses ``DEFAULT_TOLERANCE``, and the
    integer checks ``INTEGER_TOLERANCE``. Instances are frozen (no attribute
    can be reassigned and the arrays are read-only), so what they cache
    never goes stale, and they are safe to share between threads. The first
    :func:`verify_verlinde` or :func:`fusion_from_S` call streams the
    Verlinde sums once, and the instance keeps their rounded table, the
    largest array the pass builds: rank^3 int64 entries (535 MB at rank
    406; higher ranks are refused); later calls read it. The surgery
    evaluators keep each vertex base t^a * S_0^(2 - deg) they compute on
    the instance, up to 2^20 complex entries (16 MiB), each base charged
    its rank plus 16 for its key and header; past that bound a base is
    computed per call. :meth:`conjugate` and a new instance over the same
    arrays start with an empty table.
    """

    S: np.ndarray
    T: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        S = np.array(self.S, dtype=complex)
        T = np.array(self.T, dtype=complex).reshape(-1)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise StructureError(f"S must be square, got shape {S.shape}")
        if T.shape[0] != S.shape[0]:
            raise StructureError(
                f"T length {T.shape[0]} does not match S rank {S.shape[0]}"
            )
        for name, M in (("S", S), ("T", T)):
            if not np.isfinite(M).all():
                where = tuple(np.argwhere(~np.isfinite(M))[0].tolist())
                raise StructureError(f"{name}{list(where)} = {M[where]} is not finite")
        labels = self.labels
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != S.shape[0]:
                raise StructureError("label count does not match rank")
        S.setflags(write=False)
        T.setflags(write=False)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "labels", labels)

    @property
    def rank(self) -> int:
        return self.S.shape[0]

    def conjugate(self) -> "ModularData":
        """Entrywise complex conjugate data set."""
        return ModularData(self.S.conj(), self.T.conj(), self.labels)

    @cached_property
    def _s_squared(self) -> np.ndarray:
        with np.errstate(all="ignore"):  # an S entry of 1e200 overflows S^2
            return self.S @ self.S

    @cached_property
    def _s_squared_permutation(self):
        # (label each row of S^2 selects, distance of S^2 from that permutation
        # matrix or None when the rows do not select a bijection)
        S2 = self._s_squared
        r = self.rank
        perm = np.argmax(np.abs(S2), axis=1)
        if len(set(perm.tolist())) != r:
            return perm, None
        P = np.zeros_like(S2)
        P[np.arange(r), perm] = 1.0
        return perm, float(np.abs(S2 - P).max())

    @cached_property
    def _t_order(self) -> int | None:
        # the lcm N of the denominators of T's phases read as fractions, kept
        # only when N <= _T_ORDER_CAP and every t_i^N = 1 within tolerance
        N = 1
        for turn in np.angle(self.T) / (2 * np.pi):
            N = math.lcm(N, Fraction(turn).limit_denominator(_T_ORDER_CAP).denominator)
            if N > _T_ORDER_CAP:
                return None
        return N if float(np.abs(self.T ** N - 1.0).max()) <= DEFAULT_TOLERANCE else None

    @cached_property
    def _s0_min(self) -> float:
        # smallest |S_i0|: the surgery sums divide by S_i0 at vertices of degree > 1
        return float(np.abs(self.S[:, 0]).min())

    @cached_property
    def _st_cubed(self):
        # returns ((ST)^3, S^2, scalar u, proportionality residual)
        S2 = self._s_squared
        with np.errstate(all="ignore"):  # an S entry of 1e200 overflows (ST)^3 and u
            M = self.S * self.T[np.newaxis, :]
            M3 = M @ M @ M
            idx = np.unravel_index(np.argmax(np.abs(S2)), S2.shape)
            u = M3[idx] / S2[idx]
            residual = float(np.abs(M3 - u * S2).max())
        return M3, S2, complex(u), residual

    @cached_property
    def _verlinde(self) -> "_VerlindePass":
        # the one Verlinde pass verify_verlinde and fusion_from_S both read;
        # a CapacityError is raised on every access, never cached
        return _verlinde_pass(self)

    @cached_property
    def _vertex_bases(self) -> dict:
        # the surgery vertex bases t^a * S_0^(2 - deg) by (a, deg), which
        # tvo.surgery fills up to its _BASE_TABLE_CAP complex entries
        return {}

    @cached_property
    def _surgery_warnings(self) -> tuple[str, ...]:
        # the warning every surgery value on this data carries
        if not self.is_strictly_anomaly_free:
            return (f"data is not strictly anomaly-free (anomaly phase {self.anomaly_phase:.6f}); "
                    "no framing correction applied",)
        return ()

    @cached_property
    def _unitarity(self) -> tuple[float, float]:
        # (max |S S^dagger - I|, max ||t_i| - 1|), read by verify_verlinde and surgery
        with np.errstate(all="ignore"):  # an S entry of 1e200 overflows S S^dagger
            s_res = float(np.abs(self.S @ self.S.conj().T - np.eye(self.rank)).max())
        return s_res, float(np.abs(np.abs(self.T) - 1.0).max())

    @property
    def anomaly_phase(self) -> complex:
        """Scalar u with (ST)^3 = u * S^2; meaningful when the residual is small."""
        return self._st_cubed[2]

    @property
    def is_strictly_anomaly_free(self) -> bool:
        _, _, u, res = self._st_cubed
        return res <= DEFAULT_TOLERANCE and close(u, 1.0)


@dataclass(eq=False)
class FusionTable:
    """Non-negative integer structure constants N_ij^k of the fusion algebra.

    ``N`` is copied into a read-only int64 array, except that an int64
    array already read-only and owning its memory is kept as it is, so
    tables over one such array share it.
    """

    N: np.ndarray  # (rank, rank, rank) integer array

    def __post_init__(self):
        N = self.N
        if not (isinstance(N, np.ndarray) and N.dtype == np.int64
                and not N.flags.writeable and N.flags.owndata):
            N = np.array(N, dtype=np.int64)
        if N.ndim != 3 or len(set(N.shape)) != 1:
            raise StructureError(f"fusion tensor must be cubic, got {N.shape}")
        if (N < 0).any():
            raise StructureError("fusion coefficients must be non-negative")
        N.setflags(write=False)
        self.N = N

    @property
    def rank(self) -> int:
        return self.N.shape[0]

    def unit_ok(self) -> bool:
        """N_0j^k = delta_jk: label 0 acts as the unit."""
        return bool((self.N[0] == np.eye(self.rank, dtype=np.int64)).all())

    def commutative_ok(self) -> bool:
        return bool((self.N == self.N.transpose(1, 0, 2)).all())

    def associative_ok(self) -> bool:
        """sum_x N_ij^x N_xk^l == sum_y N_jk^y N_iy^l, checked exactly.

        One pair of float64 GEMMs per i: N_i (r x r) times N as (r, r*r), and N
        as (r*r, r) times N_i, written into two buffers allocated once, so
        memory stays at three r^3 float arrays. Every partial sum is an
        integer of at most r * max(N)^2, which float64 holds exactly while
        that is below 2^53; past the bound :class:`CapacityError` is raised
        instead of answering inexactly.
        """
        r = self.rank
        largest = int(self.N.max(initial=0))
        if r * largest**2 >= 2**53:
            raise CapacityError(
                f"fusion-ring associativity is exact only while rank * max(N)^2 < 2^53; "
                f"rank {r} with max(N) = {largest} gives {r * largest**2}"
            )
        Nf = self.N.astype(np.float64)
        lhs = np.empty((r, r * r))  # [j, (k, l)] = sum_x N_ij^x N_xk^l
        rhs = np.empty((r * r, r))  # [(j, k), l] = sum_y N_jk^y N_iy^l
        for i in range(r):
            np.matmul(Nf[i], Nf.reshape(r, r * r), out=lhs)
            np.matmul(Nf.reshape(r * r, r), Nf[i], out=rhs)
            if not np.array_equal(lhs, rhs.reshape(r, r * r)):
                return False
        return True


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float


@dataclass
class VerificationReport:
    """Outcome of the Verlinde-basis axiom suite for one data set.

    ``checks`` holds one pass/fail flag and worst-case residual per axiom;
    ``anomaly_phase`` is the scalar u in (ST)^3 = u S^2 (u = 1 means the
    torus representation is honest, i.e. strictly anomaly-free).
    ``stats`` records what the run did: ``rank`` and the seconds of its
    stages in this call, ``tensor_s`` (Verlinde sums), ``rounding_s``
    (integrality and unit), ``ring_s`` (unit, commutativity, associativity)
    and ``sl2_s`` (S^4 and (ST)^3); a stage that did not run in this call,
    such as the sums of a data set already verified or fused, reads 0.
    ``ring_bound`` is the certified bound on the associativity defect of the rounded fusion
    table (``inf`` when none was computed: some Verlinde sum was not near
    an integer, or the unit or commutativity check failed first), and
    ``ring_exact`` is True when the exact :meth:`FusionTable.associative_ok`
    ran because that bound was not below 1/2. It takes no part in
    equality and :meth:`lines` does not print it.
    """

    checks: list[CheckResult] = field(default_factory=list)
    anomaly_phase: complex = 1.0
    st_proportional: bool = False
    st_proportionality_residual: float = float("inf")
    stats: dict = field(default_factory=dict, compare=False)

    def _get(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def axioms_pass(self) -> bool:
        """All matrix/fusion axioms hold (anomaly phase not required to be 1)."""
        sl2 = {"S^4 identity", "(ST)^3 = S^2"}
        return all(c.passed for c in self.checks if c.name not in sl2)

    @property
    def sl2_relations_pass(self) -> bool:
        return self._get("S^4 identity").passed and self._get("(ST)^3 = S^2").passed

    @property
    def strict_pass(self) -> bool:
        return self.axioms_pass and self.sl2_relations_pass

    @property
    def worst_residual(self) -> float:
        finite = [c.residual for c in self.checks if np.isfinite(c.residual)]
        return max(finite) if finite else float("inf")

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            out.append(f"check {c.name:<24} {'pass' if c.passed else 'FAIL'}  residual {c.residual:.3e}")
        u = self.anomaly_phase
        out.append(f"anomaly phase: {u.real:.12f} {u.imag:.12f}")
        out.append(f"overall: {'PASS (strict)' if self.strict_pass else ('PASS (axioms only, anomalous)' if self.axioms_pass else 'FAIL')}")
        return out


def _require_capacity(entries: int, what: str):
    """Raise :class:`CapacityError` when ``entries`` complex numbers exceed
    ``_VERLINDE_CAP_BYTES``; callers check before they allocate."""
    size = entries * np.dtype(complex).itemsize
    if size > _VERLINDE_CAP_BYTES:
        raise CapacityError(
            f"{what} needs {size / 2**30:.3g} GiB (cap {_VERLINDE_CAP_BYTES / 2**30:g} GiB)"
        )


@dataclass(frozen=True)
class _VerlindePass:
    """What one streamed pass over the Verlinde sums keeps.

    ``table`` is the read-only int64 table of the sums rounded to integers
    and clipped at 0, or None when some sum was not finite (``int_res`` and
    ``unit_res`` then mean nothing); ``int_res`` the worst distance of a
    sum's real or imaginary part from that integer; ``first_bad`` the first
    (i, j, k, sum) in C order whose distance exceeds the integer tolerance,
    whose rounded value is negative or which is not finite, else None;
    ``unit_res`` max |N_0 - I|, from slab 0; ``tensor_s`` and
    ``rounding_s`` the seconds of the GEMMs and of the rounding.
    """

    table: np.ndarray | None
    int_res: float
    first_bad: tuple | None
    unit_res: float
    tensor_s: float
    rounding_s: float


def _verlinde_pass(data: ModularData) -> _VerlindePass:
    """Stream the Verlinde sums N_ij^k = sum_l S_il S_jl conj(S_lk) / S_0l one
    slab N_i at a time into a rounded int64 table.

    Slab i is one complex GEMM, (S_i * S) @ (conj(S) / S_0), into an r x r
    buffer, rounded in place with r^2 buffers allocated once, so the table
    is the only rank^3 array. The pass stops at the first slab holding a
    sum that is not finite. Raises :class:`CapacityError` before allocating
    when rank^3 complex entries would exceed ``_VERLINDE_CAP_BYTES``
    (1 GiB, i.e. rank > 406). :attr:`ModularData._verlinde` caches it.
    """
    r = data.rank
    _require_capacity(r**3, f"the Verlinde tensor of rank {r}")
    S, tol = data.S, INTEGER_TOLERANCE
    table = np.empty((r, r, r), dtype=np.int64)
    row = np.empty((r, r), dtype=complex)
    slab = np.empty((r, r), dtype=complex)
    rounded = np.empty((r, r))
    dev = np.empty((r, r))
    int_res, first_bad, unit_res = 0.0, None, float("inf")
    tensor_s = rounding_s = 0.0
    # a zero in S row 0, or an S entry as large as 1e200, gives inf and nan
    # sums, which end the pass
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        weighted = S.conj() / S[0][:, np.newaxis]
        for i in range(r):
            start = perf_counter()
            np.multiply(S[i], S, out=row)
            np.matmul(row, weighted, out=slab)
            mid = perf_counter()
            tensor_s += mid - start
            np.round(slab.real, out=rounded)
            np.abs(np.subtract(slab.real, rounded, out=dev), out=dev)
            dev_re = float(dev.max())
            dev_im = float(np.abs(slab.imag, out=dev).max())
            # NaN maxima fail the comparisons, so a non-finite sum is bad
            if first_bad is None and not (dev_re <= tol and dev_im <= tol and rounded.min() >= 0):
                bad = (~(np.abs(slab.real - rounded) <= tol) | ~(np.abs(slab.imag) <= tol)
                       | (rounded < 0))
                j, k = np.unravel_index(np.argmax(bad), bad.shape)
                first_bad = (i, int(j), int(k), complex(slab[j, k]))
            if not (math.isfinite(dev_re) and math.isfinite(dev_im)):
                table = None
                break
            int_res = max(int_res, dev_re, dev_im)
            if i == 0:
                unit_res = float(np.abs(slab - np.eye(r)).max())
            table[i] = np.maximum(rounded, 0, out=rounded)
            rounding_s += perf_counter() - mid
    if table is not None:
        table.setflags(write=False)
    return _VerlindePass(table, int_res, first_bad, unit_res, tensor_s, rounding_s)


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u = 2^-53 the unit roundoff of float64."""
    nu = n * 2.0**-53
    return nu / (1.0 - nu)


def _associativity_bound(S: np.ndarray, int_res: float, table: FusionTable) -> float:
    """An upper bound on every entry of M_ij = N_j N_i - sum_x N_ij^x N_x.

    Here N_i is the matrix (N_i)_jk = N_ij^k of the integer ``table`` that
    ``_verlinde_pass`` gave, with no bad entry (so no entry is negative and
    clipping left it as it was), from the Verlinde sums of ``S``, and
    ``int_res`` is its worst distance from them. M_ij = 0 for all
    i, j is the statement :meth:`FusionTable.associative_ok` checks
    (sum_x N_ij^x N_xk^l = sum_y N_jk^y N_iy^l). M is an integer matrix, so
    a computed bound below 1/2 proves it zero.

    Proof. Write r for the rank, Y = conj(S), lambda_i[l] = S_il / S_0l,
    Lambda_i = diag(lambda_i), A_i = S Lambda_i Y (the exact Verlinde
    matrix of the float S), E_i = N_i - A_i and W = Y S - I. Then

    * A_j A_i = S Lambda_j (I + W) Lambda_i Y
      = S Lambda_j Lambda_i Y + S Lambda_j W Lambda_i Y;
    * sum_x N_ij^x S_xl = (N_i S)_jl and N_i S = S Lambda_i + S Lambda_i W + E_i S,
      while (S Lambda_i)_jl / S_0l = lambda_j[l] lambda_i[l]; so
      sum_x N_ij^x Lambda_x = Lambda_j Lambda_i + diag(nu) with
      nu[l] = ((S Lambda_i W)_jl + (E_i S)_jl) / S_0l;
    * hence, expanding N_j N_i = (A_j + E_j)(A_i + E_i) and
      sum_x N_ij^x N_x = sum_x N_ij^x (A_x + E_x), the Lambda_j Lambda_i terms cancel:
      M_ij = S Lambda_j W Lambda_i Y + S Lambda_j Y E_i + E_j S Lambda_i Y
             + E_j E_i - S diag(nu) Y - sum_x N_ij^x E_x.

    With s = max|S|, L = max|lambda|, w >= max|W|, eps >= max|E| and
    n1 = max_ij sum_x N_ij^x, each entry of the six terms is at most
    r^2 s^2 L^2 w, r^2 s^2 L eps, r^2 s^2 L eps, r eps^2, r^2 s^2 L (L w + eps)
    (use |S_kl / S_0l| = |lambda_k[l]| <= L on S diag(nu)) and n1 eps, so

        |M_ij| <= 2 r^2 s^2 L^2 w + 3 r^2 s^2 L eps + r eps^2 + n1 eps.

    Rounding (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 3; u = 2^-53, gamma_n = n u / (1 - n u)). A complex product is within
    a relative sqrt(2) gamma_2 of the exact one (Lemma 3.5), and Smith's
    quotient, which NumPy uses, within 2 gamma_7. Each real or imaginary
    part of a complex GEMM entry is a sum of 2r real products, so in any
    order, with or without fused multiply-adds, it is off by at most
    gamma_2r times sum |x_l||y_l|. So:

    * w: the computed W^ = fl(fl(Y S) - I) gives |W| <= |W^| / (1 - u)
      + sqrt(2) gamma_2r r s^2 entrywise;
    * eps: ``_verlinde_pass`` forms sum_l fl(S_il S_jl) fl(conj(S_lk) / S_0l)
      by one GEMM, so its entry is within 2 gamma_(2r+9) sum_l |S_il S_jl S_lk / S_0l|
      <= 2 gamma_(2r+9) r s^2 L of A_i[j, k] (the first-order terms are
      sqrt(2)(2r + 2) u + 14 u, and the factor 2 over sqrt(2) covers the
      second-order ones); the integer table is within sqrt(2) int_res of
      the computed sums (the real and imaginary deviations are exact, by
      Sterbenz's lemma), so eps = sqrt(2) int_res + 2 gamma_(2r+9) r s^2 L.

    The maxima s and L and the final expression are positive terms formed
    in a few dozen float operations, each within a relative gamma_40 of
    their exact values; the factor 2 between the threshold 1/2 and the
    integer gap 1 absorbs that. A NaN anywhere gives NaN, which is not below
    1/2. Cost: one r x r GEMM, O(r^2) maxima and the O(r^3) row sums n1.
    """
    r = S.shape[0]
    absS = np.abs(S)
    s = float(absS.max())
    L = float((absS.max(axis=0) / absS[0]).max())
    W = S.conj() @ S
    W[np.diag_indices(r)] -= 1.0
    w = float(np.abs(W).max()) / (1.0 - 2.0**-53) + math.sqrt(2) * _gamma(2 * r) * r * s * s
    eps = math.sqrt(2) * int_res + 2 * _gamma(2 * r + 9) * r * s * s * L
    n1 = int(table.N.sum(axis=2).max())
    r2s2L = r * r * s * s * L
    return 2 * r2s2L * L * w + 3 * r2s2L * eps + r * eps * eps + n1 * eps


def verify_verlinde(data: ModularData) -> VerificationReport:
    """Run every Verlinde-basis axiom on ``data`` and report residuals.

    Never raises on a failed axiom; structural problems (shape mismatch) are
    caught at :class:`ModularData` construction instead. A "strict" pass
    additionally requires the honest torus relations S^4 = I and
    (ST)^3 = S^2 (anomaly phase 1).

    Fusion-ring associativity of the rounded table is certified by
    :func:`_associativity_bound` when every Verlinde sum is near a
    non-negative integer, and checked exactly by
    :meth:`FusionTable.associative_ok` when it is not or the bound is not
    below 1/2; either way the verdict is the exact one. The run costs
    O(rank^4), the Verlinde sums, unless the exact check runs (O(rank^5)).

    The sums come from one streamed pass cached on ``data``
    (:func:`_verlinde_pass`), shared with :func:`fusion_from_S`. Each
    ``*_s`` stat is the time spent in this call, so when an earlier verify
    or fusion call already ran the pass, ``tensor_s`` and ``rounding_s``
    read 0.0.
    """
    S = data.S
    r = data.rank
    eye = np.eye(r)
    rep = VerificationReport()
    rep.stats.update(rank=r, tensor_s=0.0, rounding_s=0.0, ring_s=0.0, sl2_s=0.0,
                     ring_bound=float("inf"), ring_exact=False)

    def add(name, residual, passed=None):
        residual = float(residual)
        if passed is None:
            passed = residual <= DEFAULT_TOLERANCE
        rep.checks.append(CheckResult(name, bool(passed), residual))

    add("S unitary", data._unitarity[0])
    with np.errstate(all="ignore"):  # entries of +-1.5e308 overflow S - S^T
        add("S symmetric", np.abs(S - S.T).max())
    add("T unitary", data._unitarity[1])

    S2 = data._s_squared
    _, res_perm = data._s_squared_permutation
    add("S^2 permutation", float("inf") if res_perm is None else res_perm)
    add("S^2 fixes vacuum", np.abs(S2[0, 0] - 1.0))

    min_s0 = float(np.abs(S[0]).min())
    nonzero = min_s0 > DEFAULT_TOLERANCE
    add("S row 0 nonzero", 0.0 if nonzero else DEFAULT_TOLERANCE - min_s0, nonzero)

    # the pass's own seconds count only in the call that ran it
    fresh = "_verlinde" not in data.__dict__
    sums = data._verlinde
    if fresh:
        rep.stats.update(tensor_s=sums.tensor_s, rounding_s=sums.rounding_s)
    if sums.table is not None:
        integral = sums.first_bad is None
        add("fusion integrality", sums.int_res, integral)
        # axiom (i): the vacuum is the unit of the fusion algebra
        add("vacuum unit", sums.unit_res, sums.unit_res <= INTEGER_TOLERANCE)
        start = perf_counter()
        table = FusionTable(sums.table)
        ring_ok = table.unit_ok() and table.commutative_ok()
        # a bound below 1/2 proves associativity; otherwise the exact products decide
        if ring_ok and integral:
            rep.stats["ring_bound"] = _associativity_bound(S, sums.int_res, table)
        if ring_ok and not rep.stats["ring_bound"] < 0.5:
            rep.stats["ring_exact"] = True
            ring_ok = table.associative_ok()
        add("fusion ring consistency", 0.0 if ring_ok else 1.0, ring_ok)
        rep.stats["ring_s"] = perf_counter() - start
    else:
        add("fusion integrality", float("inf"), False)
        add("vacuum unit", float("inf"), False)
        add("fusion ring consistency", float("inf"), False)

    start = perf_counter()
    M3, S2_, u, prop_res = data._st_cubed
    with np.errstate(all="ignore"):  # an S entry of 1e200 overflows S^4 and (ST)^3
        add("S^4 identity", np.abs(S2 @ S2 - eye).max())
        add("(ST)^3 = S^2", np.abs(M3 - S2_).max())
    rep.anomaly_phase = u
    rep.st_proportionality_residual = prop_res
    rep.st_proportional = prop_res <= DEFAULT_TOLERANCE
    rep.stats["sl2_s"] = perf_counter() - start
    return rep


def fusion_from_S(data: ModularData) -> FusionTable:
    """Fusion coefficients by the Verlinde formula, rounded to integers.

    Raises :class:`FusionIntegralityError` naming the first offending
    (i, j, k) if any sum is not finite or is farther than the integer
    tolerance from a non-negative integer. The sums are the pass
    :func:`verify_verlinde` reads, cached on ``data``, so after a verify
    this call rounds nothing; each call returns its own :class:`FusionTable`
    over the shared read-only array.
    """
    if float(np.abs(data.S[0]).min()) <= DEFAULT_TOLERANCE:
        raise DegenerateDataError("S row 0 has (near-)zero entries; Verlinde sums undefined")
    sums = data._verlinde
    if sums.first_bad is not None:
        raise FusionIntegralityError(*sums.first_bad)
    return FusionTable(sums.table)


def charge_conjugation(data: ModularData) -> np.ndarray:
    """The permutation i -> ibar read off S^2; fixes the vacuum.

    Raises :class:`ConjugationError` when S^2 is not within tolerance of a
    permutation matrix.
    """
    perm, res = data._s_squared_permutation
    if res is None:
        raise ConjugationError("S^2 rows do not select a bijection")
    if res > DEFAULT_TOLERANCE:
        raise ConjugationError(f"S^2 is not a permutation matrix (residual {res:.3e})")
    if perm[0] != 0:
        raise ConjugationError("S^2 does not fix the vacuum")
    return perm.copy()


def double_data(data: ModularData) -> ModularData:
    """The product of the data with its conjugate: S' = S (x) conj(S), t' = t (x) conj(t).

    Pair (i, j) gets index i*rank + j, so (0, 0) is the new vacuum. For any
    input satisfying the matrix axioms the result is strictly anomaly-free
    (the anomaly phases of the factor and its conjugate cancel).
    """
    _require_capacity(
        data.rank**4, f"the S matrix of the double of rank-{data.rank} data (rank {data.rank**2})"
    )
    S2 = np.kron(data.S, data.S.conj())
    T2 = np.kron(data.T, data.T.conj())
    labels = None
    if data.labels is not None:
        labels = tuple(
            f"({a},{b}~)" for a, b in itertools.product(data.labels, data.labels)
        )
    return ModularData(S2, T2, labels)


def global_index(data: ModularData) -> float:
    """The total squared dimension, computed as 1 / S_00^2.

    Requires S_00 real and positive within tolerance.
    """
    s00 = data.S[0, 0]
    if abs(s00.imag) > DEFAULT_TOLERANCE or s00.real <= DEFAULT_TOLERANCE:
        raise DegenerateDataError(f"S_00 = {s00} is not a positive real")
    return float(1.0 / s00.real**2)


def _t_blocks(ta: np.ndarray, tb_conj: np.ndarray):
    """Cluster labels of `a` by T eigenvalue and match each cluster in `b`.

    Returns None if the multisets do not match; otherwise a list of candidate
    index lists, cand[i] = labels j of b with t^a_i ~ conj(t^b_j).
    """
    # finite twists of +-1.5e308 overflow the differences to inf, which match nothing
    with np.errstate(all="ignore"):
        match = np.abs(ta[:, None] - tb_conj[None, :]) <= DEFAULT_TOLERANCE
        # multiset check: count of a-labels sharing a value must equal b-count
        same_a = np.abs(ta[:, None] - ta[None, :]) <= DEFAULT_TOLERANCE
    if not match.any(axis=1).all() or (same_a.sum(axis=1) != match.sum(axis=1)).any():
        return None
    return [np.flatnonzero(row).tolist() for row in match]


def conjugate_equivalent(a: ModularData, b: ModularData) -> np.ndarray | None:
    """Search for a vacuum-fixing permutation pi with S^a = conj(S^b o pi), t^a = conj(t^b o pi).

    Returns the permutation as an index array, or None if no equivalence
    exists. The search is a backtracking match over labels, pruned by the
    T spectrum and by S row 0; blocks of more than ``_BLOCK_CAP`` (16) labels
    sharing a T eigenvalue, or searches exceeding the node budget, raise
    :class:`CapacityError`.
    """
    if a.rank != b.rank:
        return None
    n = a.rank
    Sa, Sb = a.S, b.S.conj()
    cand = _t_blocks(a.T, b.T.conj())
    if cand is None:
        return None
    if max(len(c) for c in cand) > _BLOCK_CAP:
        raise CapacityError(
            f"a T-eigenvalue block has {max(len(c) for c in cand)} labels "
            f"(cap {_BLOCK_CAP}); refusing brute-force permutation search"
        )
    if 0 not in cand[0] or abs(Sa[0, 0] - Sb[0, 0]) > DEFAULT_TOLERANCE:
        return None
    # row-0 pruning: pi(0) = 0 forces S^a_{0i} = conj(S^b_{0 pi(i)})
    cand = [
        [j for j in js if abs(Sa[0, i] - Sb[0, j]) <= DEFAULT_TOLERANCE]
        for i, js in enumerate(cand)
    ]
    cand[0] = [0]
    if any(not js for js in cand):
        return None

    # depth-first over labels, without recursion: perm[0..i-1] is the current
    # partial assignment and i the label being assigned
    perm = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    nodes, i = 1, 0
    while 0 <= i < n:
        if nodes > _NODE_BUDGET:
            raise CapacityError("conjugate-equivalence search exceeded node budget")
        start = 0
        if perm[i] >= 0:  # back from label i + 1: try the candidates after this one
            start = cand[i].index(perm[i]) + 1
            used[perm[i]] = False
            perm[i] = -1
        for j in cand[i][start:]:
            if not used[j] and not any(
                abs(Sa[i, i2] - Sb[j, perm[i2] if i2 < i else j]) > DEFAULT_TOLERANCE
                for i2 in range(i + 1)
            ):
                perm[i] = j
                used[j] = True
                break
        if perm[i] < 0:
            i -= 1
        else:
            i += 1
            nodes += 1
    return perm if i == n else None
