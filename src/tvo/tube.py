"""Tube algebra of pointed cyclic data and the modular data on its center.

For a cyclic group with the degree-3 cocycle omega_k the tube algebra has
basis u_(g,x) indexed by pairs of group elements (the object label g and
the annulus label x) with product

    u_(g,x) u_(h,y) = delta_{g,h} tau_g(x, y) u_(g, x+y),
    tau_g(x, y) = omega_k(g, x, y) omega_k(x, y, g) / omega_k(x, g, y),

which for the cyclic cocycle collapses to exp(2 pi i k g carry(x,y) / n).
The delta_{g,h} splits the algebra into n flux sectors of dimension n, and
the structure constants are stored per sector. The center is extracted
numerically sector by sector (nullspace of the commutator equations, then
diagonalization of a generic central multiplication operator); each
minimal idempotent of sector g carries a projective character psi, and
the modular data on the idempotent basis is

    t_p = psi(g),    S_{p q} = conj(psi_p(g_q) psi_q(g_p)) / n.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .catalog import _double_from_characters, cyclic_cocycle
from .errors import DecompositionError, PreconditionError
from .modular import ModularData


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
        lhs = np.einsum("gabx,gxcd->gabcd", self.mult, self.mult)
        rhs = np.einsum("gbcy,gayd->gabcd", self.mult, self.mult)
        return float(np.abs(lhs - rhs).max())

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
    if n < 1:
        raise PreconditionError("tube_pointed requires n >= 1")
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
    """Minimal central idempotents, one row per idempotent, vacuum sector first."""

    idempotents: np.ndarray  # (r, dim)
    idempotent_residual: float
    completeness_residual: float
    flux: tuple  # the flux sector g of each row


def _center_subspace(m: np.ndarray, tol: float) -> np.ndarray:
    d = m.shape[0]
    # constraints[(a, c), b]: coefficient of e_c in e_b e_a - e_a e_b
    constraints = (np.swapaxes(m, 0, 1) - m).transpose(0, 2, 1).reshape(d * d, d)
    _, s, vh = np.linalg.svd(constraints)
    smax = s[0] if len(s) else 0.0
    cutoff = max(tol, 1e-12 * max(1.0, smax))
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj()  # rows span the nullspace, i.e. the center


def _charge_phase(p: np.ndarray) -> float:
    """Phase in [0, 2 pi) of conj(p_1 / p_0) for a sector idempotent p (0 if n = 1)."""
    ang = cmath.phase((p[1 % len(p)] / p[0]).conjugate()) % (2 * math.pi)
    return 0.0 if ang > 2 * math.pi - 1e-8 else ang


def center_idempotents(alg: TubeAlgebra, tol: float = 1e-9) -> CenterBasis:
    """Extract the minimal central idempotents of ``alg`` numerically.

    In each flux sector the center is the nullspace of the commutation
    constraints; a generic central element's multiplication operator
    restricted to the center is diagonalized, its eigenvectors rescaled to
    idempotents. Raises :class:`DecompositionError` if residuals exceed
    tolerance (the algebra is then not associative/semisimple enough for
    this route).
    """
    res = alg.associativity_residual()
    if res > tol:
        raise DecompositionError(f"structure constants not associative (residual {res:.3e})")
    n = alg.n
    rng = np.random.default_rng(7)
    rows, flux = [], []
    worst = completeness = 0.0
    for g in range(n):
        m = alg.mult[g]

        def product(u, v):
            return np.einsum("x,y,xyz->z", u, v, m)

        Z = _center_subspace(m, tol)
        r = Z.shape[0]
        if r == 0:
            raise DecompositionError("empty center")

        # multiplication by a generic central element, restricted to the center
        for _attempt in range(4):
            z = rng.standard_normal(r) @ Z
            L = np.zeros((r, r), dtype=complex)
            closure = 0.0
            for j in range(r):
                prod = product(z, Z[j])
                comp = Z.conj() @ prod
                closure = max(closure, float(np.abs(prod - comp @ Z).max()))
                L[:, j] = comp
            if closure > 1e3 * tol:
                raise DecompositionError(f"center not closed under product (residual {closure:.3e})")
            evals, evecs = np.linalg.eig(L)
            gaps = np.abs(evals[:, None] - evals[None, :]) + np.eye(r)
            if gaps.min() > 1e-6:
                break
        else:
            raise DecompositionError("could not separate central eigenvalues")

        idems = []
        for j in range(r):
            q = evecs[:, j] @ Z
            mu = (q.conj() @ product(q, q)) / (q.conj() @ q)
            if abs(mu) < tol:
                raise DecompositionError("nilpotent direction in the center")
            p = q / mu
            worst = max(worst, float(np.abs(product(p, p) - p).max()))
            idems.append(p)
        if worst > 1e3 * tol:
            raise DecompositionError(f"idempotent residual {worst:.3e} above tolerance")
        unit = alg.identity[g * n:(g + 1) * n]
        completeness = max(completeness, float(np.abs(sum(idems) - unit).max()))
        if completeness > 1e3 * tol:
            raise DecompositionError(f"idempotents do not sum to the identity ({completeness:.3e})")

        # deterministic order inside the sector: by the phase of the character at 1
        for p in sorted(idems, key=_charge_phase):
            row = np.zeros(alg.dim, dtype=complex)
            row[g * n:(g + 1) * n] = p
            rows.append(row)
            flux.append(g)
    return CenterBasis(np.array(rows), worst, completeness, tuple(flux))


def tube_modular_data(alg: TubeAlgebra, tol: float = 1e-9) -> ModularData:
    """Modular data on the center idempotents of a pointed tube algebra.

    Each idempotent p lives in one flux sector g and reads off a projective
    character psi(x) = conj(n * p_(g,x)); the S and T entries are
    assembled from these characters. Labels are ordered (flux, charge), so
    the output coincides with the twisted-double generator for the same
    (n, k) rather than merely being equivalent to it.
    """
    cb = center_idempotents(alg, tol)
    n = alg.n
    chars = []
    for g, row in zip(cb.flux, cb.idempotents):
        c0 = row[g * n]
        if abs(c0 - 1.0 / n) > 1e3 * tol:
            raise DecompositionError(f"vacuum coefficient {c0} of sector {g} is not 1/n")
        psi = (row[g * n : g * n + n] / c0).conj()
        if np.abs(np.abs(psi) - 1.0).max() > 1e3 * tol:
            raise DecompositionError("projective character is not unimodular")
        # charge index j from psi(1) = exp(2 pi i (k g / n + j) / n); psi(1) = psi(0) if n = 1
        ang = cmath.phase(psi[1 % n]) / (2 * math.pi) * n - alg.twist * g / n
        chars.append((g, int(round(ang)) % n, psi))
    chars.sort(key=lambda t: (t[0], t[1]))
    if len({(g, j) for g, j, _ in chars}) != len(chars):
        raise DecompositionError("flux/charge labels of the idempotents are not distinct")

    if chars[0][:2] != (0, 0):
        raise DecompositionError("vacuum idempotent (flux 0, trivial character) not found")
    # A[i, i2] = psi_i(flux of i2)
    A = np.array([psi for _, _, psi in chars])[:, [g for g, _, _ in chars]]
    return _double_from_characters(A, n, tuple(f"({g},{j})" for g, j, _ in chars))
