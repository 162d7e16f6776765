"""Tube algebra of pointed cyclic data and the modular data on its center.

For a cyclic group with the degree-3 cocycle omega_k the tube algebra has
basis u_(g,x) indexed by pairs of group elements (the object label g and
the annulus label x) with product

    u_(g,x) u_(h,y) = delta_{g,h} tau_g(x, y) u_(g, x+y),
    tau_g(x, y) = omega_k(g, x, y) omega_k(x, y, g) / omega_k(x, g, y),

which for the cyclic cocycle collapses to omega_k(g, x, y). The delta_{g,h}
splits the algebra into n flux sectors of dimension n, and a product in a
sector has one term, so the algebra is its (n, n, n) table tau[g, x, y]
alone, for ``tube_pointed`` the :func:`~tvo.catalog.cyclic_cocycle` table
that ``pointed_sixj`` reads too. Each sector is a twisted group algebra of
Z/n, commutative because H^2(Z/n, U(1)) = 0 and generated by u_(g,1), so
its minimal idempotents are the eigenvectors of multiplication by u_(g,1),
rescaled; the eigenvalue names the charge. The idempotent of flux g and
charge j lies in sector g, so all n^2 of them are the blocks B[g, j, x],
the coefficient of u_(g,x). The modular data is read off these blocks,
the torus S-transformation swapping u_(g,x) and u_(x,g) as it swaps the
torus's two cycles:

    S_(g,j),(h,l) = n B[g,j,h] B[h,l,g],    t_(g,j) = conj(n B[g,j,g]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .catalog import cyclic_cocycle
from .errors import DecompositionError, PreconditionError, StructureError
from .modular import DEFAULT_TOLERANCE, ModularData, _frozen, _require_capacity
from .surgery import _integral

#: complex entries of the largest (sectors, ..., n, n) temporary the n^4
#: passes build at once; they run over as many sectors as fit
_CHUNK_ENTRIES = 2**18


def _sector_chunks(n: int, rows: int = 1) -> list:
    """Slices of the n sectors, each small enough that ``rows`` n x n
    matrices per sector stay within ``_CHUNK_ENTRIES``."""
    step = max(1, _CHUNK_ENTRIES // (rows * n * n))
    return [slice(a, a + step) for a in range(0, n, step)]


@dataclass(eq=False, frozen=True)
class TubeAlgebra:
    """Finite-dimensional *-algebra of n flux sectors in the (g, x) basis,
    given by its read-only (n, n, n) table ``tau`` alone.

    ``tau[g, x, y]`` is the coefficient of u_(g,x+y) in u_(g,x) u_(g,y),
    the product's only term; products across sectors vanish. Vectors are
    flat, entry g*n + x holding u_(g,x). Everything else is read off tau:
    the unit u_(g,0) / tau_g(0,0) in every sector and the star
    (u_(g,x))^* = conj(tau_g(x,-x)) u_(g,-x). A read-only complex table that
    owns its memory is shared, anything else copied once; one with a NaN or
    inf entry, or of another shape, is refused with :class:`StructureError`.
    """

    tau: np.ndarray

    def __post_init__(self):
        tau = _frozen(self.tau, complex, "tau")
        if tau.ndim != 3 or tau.shape[0] < 1 or len(set(tau.shape)) != 1:
            raise StructureError(f"a tube table has shape (n, n, n) with n >= 1, not {tau.shape}")
        object.__setattr__(self, "tau", tau)

    @property
    def n(self) -> int:
        return self.tau.shape[0]

    @property
    def dim(self) -> int:
        return self.n * self.n

    @property
    def identity(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=complex)
        out[:, 0] = 1.0 / self.tau[:, 0, 0]
        return out.reshape(-1)

    def product(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """u v for vectors of n^2 entries, or row by row for stacks of shape
        (n, rows, n): out[g, j, z] = sum_x u[g, j, x] v[g, j, z - x] tau[g, x, z - x],
        of u's shape."""
        n = self.n
        U, V = u.reshape(n, -1, n), v.reshape(n, -1, n)
        x = np.arange(n)[:, None]
        diff = (x.T - x) % n  # [x, z] -> z - x
        out = np.empty(U.shape, dtype=complex)
        for s in _sector_chunks(n, U.shape[1]):
            out[s] = np.einsum("gjx,gjxz,gxz->gjz", U[s], V[s][:, :, diff], self.tau[s][:, x, diff])
        return out.reshape(u.shape)

    def _star_phase(self) -> tuple:
        """(x -> -x as an index array, phase[g, x] = conj(tau_g(x, -x)))."""
        neg = -np.arange(self.n) % self.n
        return neg, self.tau[:, np.arange(self.n), neg].conj()

    def star(self, u: np.ndarray) -> np.ndarray:
        neg, phase = self._star_phase()
        return (u.reshape(self.n, self.n).conj() * phase)[:, neg].reshape(-1)

    def associativity_residual(self) -> float:
        """max |tau(x,y) tau(x+y,z) - tau(y,z) tau(x,y+z)| over every sector
        and triple: (u_x u_y) u_z and u_x (u_y u_z) are these multiples of
        u_(x+y+z), so this is the 2-cocycle identity, n^4 products."""
        n = self.n
        add = np.add.outer(np.arange(n), np.arange(n)) % n
        worst = 0.0
        for s in _sector_chunks(n, n):
            t = self.tau[s]
            lhs = t[:, :, :, None] * t[:, add, :]  # [g, x, y, z]
            rhs = t[:, None, :, :] * t[:, :, add]
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        return worst

    def star_antihomomorphism_residual(self) -> float:
        """max |(e_a e_b)^* - e_b^* e_a^*| over all basis pairs of one sector."""
        n = self.n
        g = np.arange(n)[:, None, None]
        neg, phase = self._star_phase()
        add = np.add.outer(np.arange(n), np.arange(n)) % n
        # (e_(g,x) e_(g,y))^* is this multiple of e_(g, -x-y) ...
        lhs = self.tau.conj() * phase[g, add]
        # ... and e_(g,y)^* e_(g,x)^* this multiple of e_(g, -y-x)
        rhs = phase[:, :, None] * phase[:, None, :] * self.tau[g, neg[None, :], neg[:, None]]
        return float(np.abs(lhs - rhs).max())


def tube_pointed(n: int, k: int) -> TubeAlgebra:
    """The tube algebra of the pointed cyclic data with cocycle parameter k,
    whose table is :func:`~tvo.catalog.cyclic_cocycle`. Dimension n^2; for
    k = 0 every sector is the plain group algebra of Z/n."""
    n, k = _integral(n, "tube_pointed n"), _integral(k, "tube_pointed k")
    if n < 1:
        raise PreconditionError("tube_pointed requires n >= 1")
    return TubeAlgebra(cyclic_cocycle(n, k))


@dataclass(eq=False)
class CenterBasis:
    """Minimal central idempotents of a tube algebra by flux sector.

    ``blocks[g, j, x]`` is the coefficient of u_(g,x) in the idempotent of
    flux g and charge j, which has no terms outside sector g; so the n^2
    idempotents take n^3 numbers. ``stats`` records what the extraction
    did: ``dim`` (n^2), ``sector_gaps`` (per sector, the smallest distance
    between two eigenvalues of u_(g,1); inf for n = 1) and the seconds of
    the algebra checks, the eigensolve and the read-out (``checks_s``,
    ``eig_s``, ``readout_s``). It is not printed.
    """

    blocks: np.ndarray  # (n, n, n)
    idempotent_residual: float
    completeness_residual: float
    stats: dict = field(default_factory=dict, repr=False)


def center_idempotents(alg: TubeAlgebra) -> CenterBasis:
    """Extract the minimal central idempotents of ``alg`` numerically.

    Every flux sector must be commutative. In sector g the eigenvectors of
    left multiplication by u_(g,1) are rescaled to idempotents; all n
    sectors are diagonalised in one stacked eigensolve. For
    ``tube_pointed`` data u_(g,1) generates the sector and its eigenvalues
    psi_j(1) = exp(2 pi i (k g / n + j) / n), at least 2 sin(pi / n) apart,
    give the charges j. The offset k is read off the table: the n-th power
    of u_(1,1) is prod_y tau_1(1, y) = exp(2 pi i k / n) times u_(1,0), and
    k = 0 at n = 1. Raises :class:`DecompositionError` if the table is
    not a 2-cocycle (not associative) or not symmetric (not commutative),
    if the eigenvalues are not separated, if a charge is not an integer
    (a sector's twist disagrees with sector 1's), if the idempotents do not
    sum to the unit, or if residuals exceed tolerance.

    u_(g,1) maps u_(g,y) to a multiple of u_(g,y+1), so its eigenvalues are
    the n n-th roots of one number, and charges that pass the integer check
    are distinct. The idempotents of an exact 2-cocycle sum to the unit;
    completeness refuses a small table that passes the absolute
    associativity bound but is no 2-cocycle.
    """
    start = perf_counter()
    res = alg.associativity_residual()
    if res > DEFAULT_TOLERANCE:
        raise DecompositionError(f"structure constants not associative (residual {res:.3e})")
    res = float(np.abs(alg.tau - alg.tau.swapaxes(1, 2)).max())
    if res > DEFAULT_TOLERANCE:
        raise DecompositionError(f"structure constants not commutative (residual {res:.3e})")
    checked = perf_counter()
    n, ar = alg.n, np.arange(alg.n)
    left = np.zeros((n, n, n), dtype=complex)  # [g, z, y]: left multiplication by u_(g,1)
    left[:, (ar + 1) % n, ar] = alg.tau[:, 1 % n, :]
    evals, evecs = np.linalg.eig(left)
    solved = perf_counter()
    dist = np.abs(evals[:, :, None] - evals[:, None, :])
    dist[:, ar, ar] = np.inf  # a sector of n = 1 has no gap: inf
    gaps = dist.min(axis=(1, 2))
    if gaps.min() <= 1e-6:
        raise DecompositionError("could not separate central eigenvalues")
    k = int(np.rint(n * np.angle(alg.tau[1, 1].prod()) / (2 * np.pi))) % n if n > 1 else 0
    charge = np.angle(evals) * n / (2 * np.pi) - k * ar[:, None] / n
    j = np.rint(charge)
    off = np.abs(charge - j).max(axis=1)
    if off.max() > 1e3 * DEFAULT_TOLERANCE:
        g = int(np.argmax(off > 1e3 * DEFAULT_TOLERANCE))
        raise DecompositionError(f"charges of sector {g} are {off[g]:.3e} off the integers "
                                 f"for the charge offset k = {k} read from sector 1")
    Q = evecs.transpose(0, 2, 1)  # [g, i, x]: eigenvector i of sector g
    QQ = alg.product(Q, Q)
    mu = np.einsum("gjz,gjz->gj", Q.conj(), QQ) / np.einsum("gjz,gjz->gj", Q.conj(), Q)
    if np.abs(mu).min() < DEFAULT_TOLERANCE:
        raise DecompositionError("nilpotent direction in the center")
    P = Q / mu[:, :, None]
    worst = float(np.abs(QQ / (mu * mu)[:, :, None] - P).max())  # P P - P, the product bilinear
    if worst > 1e3 * DEFAULT_TOLERANCE:
        raise DecompositionError(f"idempotent residual {worst:.3e} above tolerance")
    blocks = np.zeros((n, n, n), dtype=complex)
    blocks[ar[:, None], j.astype(np.int64) % n] = P
    completeness = float(np.abs(blocks.sum(axis=1) - alg.identity.reshape(n, n)).max())
    if completeness > 1e3 * DEFAULT_TOLERANCE:
        raise DecompositionError(f"idempotents do not sum to the identity ({completeness:.3e})")
    stats = {"dim": n * n, "sector_gaps": tuple(gaps.tolist()), "checks_s": checked - start,
             "eig_s": solved - checked, "readout_s": perf_counter() - solved}
    return CenterBasis(blocks, worst, completeness, stats)


def tube_modular_data(alg: TubeAlgebra) -> ModularData:
    """Modular data read off the center idempotents of a pointed tube algebra.

    S_(g,j),(h,l) = n B[g,j,h] B[h,l,g] by the torus swap u_(g,x) <-> u_(x,g),
    and t_(g,j) = conj(n B[g,j,g]) from the diagonal coefficient of the
    idempotent of flux g, both read off the blocks B of
    :func:`center_idempotents` with no matrix product. Every n B[g,j,x] must
    be unimodular with n B[g,j,0] = 1, and the vacuum (0,0) must be the
    trivial character. Labels are ordered (flux, charge), so the output
    coincides with the twisted-double generator for the same (n, k) rather
    than merely being equivalent to it. S, n^4 complex entries, is the
    largest array built, charged against the capacity cap first and written
    into the one array that the data keeps.
    """
    n = alg.n
    _require_capacity(n**4, f"the modular data of the tube algebra of Z/{n} (n^4 S entries)")
    B = center_idempotents(alg).blocks
    miss = np.abs(B[:, :, 0] - 1.0 / n)
    if miss.max() > 1e3 * DEFAULT_TOLERANCE:
        bad, j = np.unravel_index(miss.argmax(), miss.shape)
        raise DecompositionError(f"vacuum coefficient {B[bad, j, 0]} of sector {bad} is not 1/n")
    nB = n * B
    if np.abs(np.abs(nB) - 1.0).max() > 1e3 * DEFAULT_TOLERANCE:
        raise DecompositionError("projective character is not unimodular")
    if np.abs(nB[0, 0] - 1.0).max() > 1e3 * DEFAULT_TOLERANCE:
        raise DecompositionError("vacuum idempotent (flux 0, trivial character) not found")
    S = np.empty((n * n, n * n), dtype=complex)
    np.multiply(nB[:, :, :, None], B.transpose(2, 0, 1)[:, None, :, :], out=S.reshape(n, n, n, n))
    S.setflags(write=False)
    T = np.einsum("gjg->gj", nB).conj().reshape(-1)
    return ModularData(S, T, labels=tuple(f"({f},{j})" for f in range(n) for j in range(n)))
