"""Tube algebra of pointed cyclic data and the modular data on its center.

For a cyclic group with the degree-3 cocycle omega_k the tube algebra has
basis u_(g,x) indexed by pairs of group elements (the object label g and
the annulus label x) with product

    u_(g,x) u_(h,y) = delta_{g,h} tau_g(x, y) u_(g, x+y),
    tau_g(x, y) = omega_k(g, x, y) omega_k(x, y, g) / omega_k(x, g, y),

which for the cyclic cocycle collapses to exp(2 pi i k g carry(x,y) / n).
The delta_{g,h} splits the algebra into n flux sectors of dimension n, and
the structure constants are stored per sector. Each sector is a twisted
group algebra of Z/n, commutative because H^2(Z/n, U(1)) = 0 and
generated by u_(g,1), so its minimal idempotents are the eigenvectors of
multiplication by u_(g,1), rescaled; the eigenvalue names the charge.
With the idempotents as rows of P in (flux, charge) order, the modular
data is read off the center, Pi swapping u_(g,x) and u_(x,g) as the
torus S-transformation swaps its two cycles:

    S = n P Pi P^T,    t_p = conj(n p_(g,g)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import cyclic_cocycle
from .errors import DecompositionError, PreconditionError
from .modular import ModularData, _require_capacity
from .surgery import _integral


@dataclass(eq=False)
class TubeAlgebra:
    """Finite-dimensional *-algebra of n flux sectors in the (g, x) basis.

    ``mult[g, x, y, z]`` is the coefficient of u_(g,z) in u_(g,x) u_(g,y);
    products across sectors vanish and are not stored. Vectors are flat,
    entry g*n + x holding u_(g,x); e_a^* = star_phase[a] e_{star_perm[a]}.
    """

    n: int
    twist: int
    labels: tuple
    mult: np.ndarray
    star_phase: np.ndarray
    star_perm: np.ndarray
    identity: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.labels)

    def product(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        n = self.n
        return np.einsum("gx,gy,gxyz->gz", u.reshape(n, n), v.reshape(n, n), self.mult).reshape(-1)

    def star(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim, dtype=complex)
        np.add.at(out, self.star_perm, u.conj() * self.star_phase)
        return out

    def associativity_residual(self) -> float:
        # one sector at a time, so the temporaries are n^4 like mult itself;
        # each triple product is one (n^2, n) @ (n, n^2) matmul
        n = self.n
        worst = 0.0
        for m in self.mult:
            M = m.reshape(n * n, n)
            lhs = M @ m.reshape(n, n * n)  # [(a, b), (c, d)] = sum_x m[a,b,x] m[x,c,d]
            rhs = M @ m.transpose(1, 0, 2).reshape(n, n * n)  # [(b, c), (a, d)] = sum_y m[b,c,y] m[a,y,d]
            rhs = rhs.reshape(n, n, n, n).transpose(2, 0, 1, 3)
            worst = max(worst, float(np.abs(lhs.reshape(n, n, n, n) - rhs).max()))
        return worst

    def star_antihomomorphism_residual(self) -> float:
        """max |(e_a e_b)^* - e_b^* e_a^*| over all basis pairs of one sector."""
        n = self.n
        g = np.arange(n)[:, None, None]
        perm = self.star_perm.reshape(n, n) % n  # the star keeps every sector
        phase = self.star_phase.reshape(n, n)
        inv = np.argsort(perm, axis=1)[:, None, None, :]
        # (e_(g,x) e_(g,y))^* expressed on basis element (g, d)
        lhs = np.take_along_axis(self.mult.conj() * phase[:, None, None, :], inv, axis=3)
        # e_(g,y)^* e_(g,x)^* = phase[x] phase[y] mult[g, perm[y], perm[x], :]
        rhs = phase[:, :, None, None] * phase[:, None, :, None]
        rhs = rhs * self.mult[g, perm[:, None, :], perm[:, :, None]]
        return float(np.abs(lhs - rhs).max())


def tube_pointed(n: int, k: int) -> TubeAlgebra:
    """The tube algebra of the pointed cyclic data with cocycle parameter k.

    Dimension n^2; for k = 0 every sector is the plain group algebra of Z/n.
    """
    n, k = _integral(n, "tube_pointed n"), _integral(k, "tube_pointed k")
    if n < 1:
        raise PreconditionError("tube_pointed requires n >= 1")
    _require_capacity(n**4, f"the tube algebra of Z/{n} (n^4 structure constants)")
    k = k % n
    omega = cyclic_cocycle(n, k)
    labels = tuple((g, x) for g in range(n) for x in range(n))
    mult = np.zeros((n, n, n, n), dtype=complex)
    star_phase = np.zeros(n * n, dtype=complex)
    star_perm = np.zeros(n * n, dtype=np.int64)
    for g in range(n):
        for x in range(n):
            for y in range(n):
                # tau_g(x,y): the two outer cocycle factors cancel for cyclic groups
                mult[g, x, y, (x + y) % n] = omega(g, x, y)
            xm = (-x) % n
            star_phase[g * n + x] = omega(g, x, xm).conjugate()
            star_perm[g * n + x] = g * n + xm
    identity = np.zeros(n * n, dtype=complex)
    identity[::n] = 1.0
    return TubeAlgebra(n, k, labels, mult, star_phase, star_perm, identity)


@dataclass(eq=False)
class CenterBasis:
    """Minimal central idempotents, one row per idempotent, in (flux, charge)
    order: row g*n + j is the idempotent of flux g and charge j."""

    idempotents: np.ndarray  # (r, dim)
    idempotent_residual: float
    completeness_residual: float
    flux: tuple  # the flux sector g of each row


#: the residual bound of the center extraction; idempotent, completeness,
#: charge and character checks allow 1e3 times it
_TOL = 1e-9


def center_idempotents(alg: TubeAlgebra) -> CenterBasis:
    """Extract the minimal central idempotents of ``alg`` numerically.

    Every flux sector must be commutative. In sector g the eigenvectors of
    left multiplication by u_(g,1) are rescaled to idempotents; for
    ``tube_pointed`` data u_(g,1) generates the sector and its eigenvalues
    psi_j(1) = exp(2 pi i (k g / n + j) / n), at least 2 sin(pi / n) apart,
    give the charges j. Raises :class:`DecompositionError` if the structure
    constants are not associative or not commutative, if the eigenvalues
    are not separated, if a charge is not an integer (the twist disagrees
    with the constants) or repeats, or if residuals exceed tolerance.
    """
    res = alg.associativity_residual()
    if res > _TOL:
        raise DecompositionError(f"structure constants not associative (residual {res:.3e})")
    res = float(np.abs(alg.mult - alg.mult.swapaxes(1, 2)).max())
    if res > _TOL:
        raise DecompositionError(f"structure constants not commutative (residual {res:.3e})")
    n = alg.n
    idempotents = np.zeros((alg.dim, alg.dim), dtype=complex)
    worst = completeness = 0.0
    for g in range(n):
        m, sector = alg.mult[g], slice(g * n, (g + 1) * n)
        evals, evecs = np.linalg.eig(m[1 % n].T)  # left multiplication by u_(g,1)
        gaps = np.abs(evals[:, None] - evals[None, :]) + np.eye(n)
        if gaps.min() <= 1e-6:
            raise DecompositionError("could not separate central eigenvalues")
        charge = np.angle(evals) * n / (2 * np.pi) - alg.twist * g / n
        j = np.rint(charge)
        off = float(np.abs(charge - j).max())
        if off > 1e3 * _TOL:
            raise DecompositionError(f"charges of sector {g} are {off:.3e} off the integers: "
                                     f"twist {alg.twist} disagrees with the structure constants")
        j = j.astype(np.int64) % n
        if len(set(j.tolist())) != n:
            raise DecompositionError("flux/charge labels of the idempotents are not distinct")
        Q = evecs.T
        mu = np.einsum("jz,jz->j", Q.conj(), np.einsum("jx,jy,xyz->jz", Q, Q, m))
        mu /= np.einsum("jz,jz->j", Q.conj(), Q)
        if np.abs(mu).min() < _TOL:
            raise DecompositionError("nilpotent direction in the center")
        P = Q / mu[:, None]
        worst = max(worst, float(np.abs(np.einsum("jx,jy,xyz->jz", P, P, m) - P).max()))
        if worst > 1e3 * _TOL:
            raise DecompositionError(f"idempotent residual {worst:.3e} above tolerance")
        completeness = max(completeness, float(np.abs(P.sum(axis=0) - alg.identity[sector]).max()))
        if completeness > 1e3 * _TOL:
            raise DecompositionError(f"idempotents do not sum to the identity ({completeness:.3e})")
        idempotents[g * n + j, sector] = P
    flux = tuple(g for g in range(n) for _ in range(n))
    return CenterBasis(idempotents, worst, completeness, flux)


def tube_modular_data(alg: TubeAlgebra) -> ModularData:
    """Modular data read off the center idempotents of a pointed tube algebra.

    S = n P Pi P^T by the torus swap Pi: u_(g,x) <-> u_(x,g), and t_p =
    conj(n p_(g,g)) from the diagonal coefficient of the idempotent p of
    flux g. Every n p_(g,x) must be unimodular with n p_(g,0) = 1, and the
    vacuum (0,0) must be the trivial character. Labels are ordered
    (flux, charge), so the output coincides with the twisted-double
    generator for the same (n, k) rather than merely being equivalent to it.
    """
    P, n = center_idempotents(alg).idempotents, alg.n
    # B[g, j, x]: coefficient of u_(g,x) in the idempotent of flux g and charge j
    B = np.einsum("gjgx->gjx", P.reshape(n, n, n, n))
    miss = np.abs(B[:, :, 0] - 1.0 / n)
    if miss.max() > 1e3 * _TOL:
        bad, j = np.unravel_index(miss.argmax(), miss.shape)
        raise DecompositionError(f"vacuum coefficient {B[bad, j, 0]} of sector {bad} is not 1/n")
    if np.abs(np.abs(n * B) - 1.0).max() > 1e3 * _TOL:
        raise DecompositionError("projective character is not unimodular")
    if np.abs(n * B[0, 0] - 1.0).max() > 1e3 * _TOL:
        raise DecompositionError("vacuum idempotent (flux 0, trivial character) not found")
    swap = np.arange(n * n).reshape(n, n).T.reshape(-1)  # u_(g,x) <-> u_(x,g)
    S = n * P @ P[:, swap].T
    T = n * np.einsum("gjg->gj", B).conj().reshape(-1)
    return ModularData(S, T, labels=tuple(f"({f},{j})" for f in range(n) for j in range(n)))
