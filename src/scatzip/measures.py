"""Matrix-valued probability measures on the unit circle and their zipper data.

A measure here is a finite family of unit-circle atoms with PSD L x L weights
summing to the identity.  Its Caratheodory transform

    F(z) = i sum_j W_j (xi_j + z)/(xi_j - z)

matches the resolvent boundary value of the operator the measure came from.
Conversely, Gram-Schmidt on the interleaved Laurent monomial ladder
{1, 1/z, z, 1/z^2, z^2, ...} (and {U, z, 1/z, z^2, ...} for the second
family) with the matrix inner product <f, g> = sum_j g(xi_j) W_j f(xi_j)*
produces two orthonormal polynomial families whose recursion data is exactly
a zipper block sequence: contraction coefficients alpha_n and gauge unitaries
U_n, V_n with S_n = S(alpha_n, U_n, V_n).

The Gram-Schmidt run holds each polynomial as two tables: its coefficients
over the exponents -K..K and its values at the M atoms.  Each finished
polynomial p also keeps W_j p(xi_j)*, so a projection <p, f> is one
(L, M L) @ (M L, L) product and no polynomial is evaluated twice;
``inner_product`` on ``MatrixLaurentPoly`` objects is the independent check.

Gauge fixing: every orthonormal polynomial is normalized with a Hermitian
positive-definite leading normalizer, the standard positive-kappa convention;
this reproduces the canonical data exactly in the scalar trivial-gauge case
and gauge-invariant quantities (F, spectra, recursion residuals) always.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import matrix_core as mc
from .errors import ValidationError
from .zipper import SemiInfiniteZipper, Zipper, assemble_finite, dense_spectrum, stored_block_fn

GRAM_DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class MatrixMeasure:
    """Finitely many unit-circle atoms with PSD L x L weights summing to 1."""

    atoms: np.ndarray         # shape (M,), unit-modulus complex
    weights: np.ndarray       # shape (M, L, L), PSD
    L: int = field(init=False)

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=complex).ravel()
        weights = np.asarray(self.weights, dtype=complex)
        if weights.ndim == 1:
            weights = weights.reshape(-1, 1, 1)
        if weights.ndim != 3 or weights.shape[0] != atoms.shape[0]:
            raise ValidationError("weights must be one L x L block per atom")
        if not np.all(np.abs(np.abs(atoms) - 1.0) <= 1e-9):  # also rejects NaN
            raise ValidationError("atoms must lie on the unit circle")
        if len(weights) and (mc.hermitian_defect(weights) > 1e-9
                             or np.linalg.eigvalsh(mc.hermitize(weights)).min() < -1e-9):
            raise ValidationError("weights must be Hermitian PSD")
        total = weights.sum(axis=0)
        if np.linalg.norm(total - mc.eye(weights.shape[1]), 2) > 1e-8:
            raise ValidationError("weights must sum to the identity")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "L", weights.shape[1])


def uniform_grid_measure(L: int, m: int) -> MatrixMeasure:
    """Quadrature of normalized Lebesgue measure: m equispaced atoms, weights 1/m."""
    if L < 1:
        raise ValidationError(f"L must be >= 1, got {L}")
    if m < 1:
        raise ValidationError(f"the uniform grid needs m >= 1 atoms, got {m}")
    atoms = np.exp(2j * np.pi * np.arange(m) / m)
    weights = np.broadcast_to(mc.eye(L) / m, (m, L, L)).copy()
    return MatrixMeasure(atoms, weights)


def caratheodory(mu: MatrixMeasure, z: complex) -> np.ndarray:
    """F(z) = i sum_j W_j (xi_j + z)/(xi_j - z), the Caratheodory transform."""
    z = complex(z)
    if not abs(z) < 1.0:  # also rejects NaN
        raise ValidationError(f"the Caratheodory transform is evaluated inside the disc, got z = {z}")
    coeff = (mu.atoms + z) / (mu.atoms - z)
    return 1j * np.einsum("j,jab->ab", coeff, mu.weights)


def spectral_measure_finite(zipper: Zipper) -> MatrixMeasure:
    """Spectral measure of a finite zipper compressed to the first site.

    Atoms at the operator eigenvalues, weights pi_1* P pi_1 from the dense
    spectral projections; the weights resolve the identity because the first
    site is cyclic.
    """
    spec, projections = dense_spectrum(assemble_finite(zipper), want_projections=True)
    L = zipper.L
    weights = np.array([vecs[:L] @ mc.adj(vecs[:L]) for vecs in projections])
    return MatrixMeasure(spec.eigenvalues, np.array([mc.hermitize(W) for W in weights]))


# -- Laurent polynomials -----------------------------------------------------------

class MatrixLaurentPoly:
    """Finite-support Laurent polynomial with L x L matrix coefficients."""

    def __init__(self, coeffs: dict, L: int):
        self.L = L
        self.coeffs = {int(e): mc.as_cmatrix(c) for e, c in coeffs.items()
                       if np.any(np.abs(np.asarray(c)) > 0)}

    @classmethod
    def monomial(cls, exponent: int, coeff, L: int) -> "MatrixLaurentPoly":
        return cls({exponent: coeff}, L)

    def min_exponent(self) -> int:
        return min(self.coeffs) if self.coeffs else 0

    def max_exponent(self) -> int:
        return max(self.coeffs) if self.coeffs else 0

    def coeff(self, exponent: int) -> np.ndarray:
        c = self.coeffs.get(int(exponent))
        return c.copy() if c is not None else np.zeros((self.L, self.L), dtype=complex)

    def left_mul(self, m) -> "MatrixLaurentPoly":
        m = mc.as_cmatrix(m)
        return MatrixLaurentPoly({e: m @ c for e, c in self.coeffs.items()}, self.L)

    def __sub__(self, other: "MatrixLaurentPoly") -> "MatrixLaurentPoly":
        out = {e: c.copy() for e, c in self.coeffs.items()}
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) - c
        return MatrixLaurentPoly(out, self.L)

    def shifted(self, k: int) -> "MatrixLaurentPoly":
        """The polynomial z^k f(z)."""
        return MatrixLaurentPoly({e + k: c for e, c in self.coeffs.items()}, self.L)

    def evaluate(self, points) -> np.ndarray:
        """Values at the given circle points, shape (len(points), L, L)."""
        points = np.asarray(points, dtype=complex).ravel()
        out = np.zeros((len(points), self.L, self.L), dtype=complex)
        for e, c in self.coeffs.items():
            out += np.power(points, e)[:, None, None] * c
        return out


def inner_product(f: MatrixLaurentPoly, g: MatrixLaurentPoly, mu: MatrixMeasure) -> np.ndarray:
    """<f, g> = sum_j g(xi_j) W_j f(xi_j)*: left matrix-linear in g."""
    fv = f.evaluate(mu.atoms)
    gv = g.evaluate(mu.atoms)
    return np.einsum("jab,jbc,jdc->ad", gv, mu.weights, fv.conj())


def mu_norm(f: MatrixLaurentPoly, mu: MatrixMeasure) -> float:
    return float(np.sqrt(max(np.linalg.norm(inner_product(f, f, mu), 2), 0.0)))


# -- Gram-Schmidt and the zipper data ------------------------------------------------

def _phi_exponent(n: int) -> int:
    return 0 if n == 1 else (-(n // 2) if n % 2 == 0 else n // 2)


def _psi_exponent(n: int) -> int:
    return 0 if n == 1 else ((n // 2) if n % 2 == 0 else -(n // 2))


@dataclass
class GramSchmidtResult:
    """The orthonormal families and the zipper data recovered from them.

    ``sites`` holds the operator-aligned blocks S_2, ..., S_n as one
    (alpha, U, V) triple of (n - 1, L, L) stacks, the ``Zipper.sites``
    format; ``recursion_alpha``, ``rho`` and ``rho_tilde`` are the raw
    recursion data of the same sites, and ``kappas``, ``kappas_tilde`` the
    leading coefficients of ``phis`` and ``psis``, each a (len(phis), L, L)
    stack.
    """

    phis: list
    psis: list
    sites: tuple
    recursion_alpha: np.ndarray
    rho: np.ndarray
    rho_tilde: np.ndarray
    kappas: np.ndarray
    kappas_tilde: np.ndarray
    stop_step: Optional[int]
    stop_reason: Optional[str]


def _weighted(values: np.ndarray, mu: MatrixMeasure) -> np.ndarray:
    """W_j V_j*, shape (M, L, L): the right factor of every projection onto V."""
    return mu.weights @ mc.adj(values)


def _pair(values: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    """<p, f> = sum_j F_j W_j P_j* from the values F of f and the weighted table of p.

    One (L, M L) @ (M L, L) matmul.
    """
    M, L, _ = values.shape
    return values.transpose(1, 0, 2).reshape(L, M * L) @ weighted.reshape(M * L, L)


def _orthonormal_step(mu, produced, exponent, K):
    """One Gram-Schmidt step with a Hermitian positive normalizer; None if degenerate.

    ``produced`` holds (coefficients, values, weighted) tables of the finished
    polynomials; the new polynomial comes back as such a triple, its
    coefficient table over the exponents -K..K.
    """
    L = mu.L
    coeffs = np.zeros((2 * K + 1, L, L), dtype=complex)
    coeffs[exponent + K] = mc.eye(L)
    values = np.power(mu.atoms, exponent)[:, None, None] * mc.eye(L)
    for _ in range(2):  # modified Gram-Schmidt, two passes for orthogonality
        for p_coeffs, p_values, p_weighted in produced:
            c = _pair(values, p_weighted)
            coeffs -= c @ p_coeffs
            values -= c @ p_values
    w, V = np.linalg.eigh(mc.hermitize(_pair(values, _weighted(values, mu))))
    if w.min() < GRAM_DEGENERACY_TOL:
        return None
    R = mc.hermitize((V / np.sqrt(w)) @ mc.adj(V))  # H^(-1/2) from the same decomposition
    values = R @ values
    return R @ coeffs, values, _weighted(values, mu)


def _ladder_start(mu, coeff, K):
    """The tables of the constant polynomial ``coeff``."""
    coeffs = np.zeros((2 * K + 1, mu.L, mu.L), dtype=complex)
    coeffs[K] = coeff
    values = np.repeat(coeffs[K][None], len(mu.atoms), axis=0)
    return coeffs, values, _weighted(values, mu)


def gram_schmidt(mu: MatrixMeasure, boundary_u, n_max: int) -> GramSchmidtResult:
    """Orthonormalize the interleaved Laurent ladders and extract the zipper data.

    phi_1 = 1 and psi_1 = U; both families advance together and the run stops
    at the first degenerate Gram normalizer (a measure with finite support
    carries only finitely many steps).  For every fully available index n >= 2
    the result holds alpha_n (a strict contraction), the leading-coefficient
    ratios rho_n, rho~_n, and the gauges U_n, V_n with
    rho_n = (1 - alpha alpha*)^(1/2) U_n and rho~_n = (1 - alpha* alpha)^(1/2) V_n*.
    The recovered sites end before the first n whose alpha reaches the
    contraction boundary, ||alpha_n|| >= 1 - 1e-12; this is the one place
    that decides where the recovery stops.

    The run works on coefficient and atom-value tables; ``phis`` and ``psis``
    are built from the coefficient tables at the end.
    """
    U = mc.as_cmatrix(boundary_u)
    if mc.unitary_defect(U) > 1e-9:
        raise ValidationError("boundary U must be unitary")
    if U.shape[0] != mu.L:
        raise ValidationError("boundary U size must match the measure")
    L = mu.L
    one = mc.eye(L)
    K = max(n_max, 0) // 2 + 1  # every ladder exponent lies in -K..K

    phis = [_ladder_start(mu, one, K)]
    psis = [_ladder_start(mu, U, K)]
    stop_step = None
    stop_reason = None
    for n in range(2, n_max + 1):
        phi_n = _orthonormal_step(mu, phis, _phi_exponent(n), K)
        psi_n = _orthonormal_step(mu, psis, _psi_exponent(n), K)
        if phi_n is None or psi_n is None:
            stop_step = n
            stop_reason = "degenerate Gram normalizer (measure support exhausted)"
            break
        phis.append(phi_n)
        psis.append(psi_n)

    kappas = np.array([p[0][_phi_exponent(n) + K] for n, p in enumerate(phis, start=1)])
    kappas_tilde = np.array([p[0][_psi_exponent(n) + K] for n, p in enumerate(psis, start=1)])

    # per site n = 2, 3, ...: the operator's (alpha, U, V), then the recursion alpha, rho, rho~
    table = np.zeros((6, len(phis) - 1, L, L), dtype=complex)
    for n in range(2, len(phis) + 1):
        (_, _, phi_weighted), (_, psi_values, _) = phis[n - 2], psis[n - 2]
        if n % 2 == 0:
            # z^(-1) psi_{n-1} - rho_n phi_n is a left multiple of phi_{n-1}
            psi_values = psi_values / mu.atoms[:, None, None]
        alpha = _pair(psi_values, phi_weighted)
        if np.linalg.norm(alpha, 2) >= 1.0 - 1e-12:
            # short of it, 1 - alpha alpha* keeps its eigenvalues above 2e-12 - 1e-24,
            # so the inverse square roots below never meet their tolerance
            stop_step = n
            stop_reason = "recovered alpha reached the contraction boundary"
            table = table[:, :n - 2]
            break
        rho = kappas_tilde[n - 2] @ np.linalg.inv(kappas[n - 1])
        rho_tilde = kappas[n - 2] @ np.linalg.inv(kappas_tilde[n - 1])
        u_rec = mc.hermitian_inv_sqrt(one - alpha @ mc.adj(alpha), tol=1e-12) @ rho
        v_rec = mc.adj(mc.hermitian_inv_sqrt(one - mc.adj(alpha) @ alpha, tol=1e-12) @ rho_tilde)
        if n % 2 == 0:
            # the even-layer equation of the operator runs through the inverse block
            # (V psi = z phi versus psi = z S phi), so the operator's block is the
            # adjoint S(a, U, V)* = S(a*, V*, U*) of the recursion data
            table[:, n - 2] = mc.adj(alpha), mc.adj(v_rec), mc.adj(u_rec), alpha, rho, rho_tilde
        else:
            table[:, n - 2] = alpha, u_rec, v_rec, alpha, rho, rho_tilde

    def poly(tables):
        coeffs = tables[0]
        support = np.flatnonzero(np.any(coeffs != 0, axis=(1, 2)))
        return MatrixLaurentPoly({e - K: coeffs[e] for e in support}, L)

    return GramSchmidtResult([poly(p) for p in phis], [poly(p) for p in psis], tuple(table[:3]),
                             *table[3:], kappas, kappas_tilde, stop_step, stop_reason)


@dataclass
class MeasureZipper:
    """Zipper rebuilt from a measure, truncated at the available length."""

    zipper: SemiInfiniteZipper
    n_available: int
    gram: GramSchmidtResult

    def truncate(self, N: int, boundary_v) -> Zipper:
        if N > self.n_available:
            raise ValidationError(f"only blocks up to n = {self.n_available} are available")
        return self.zipper.truncate(N, boundary_v)


def zipper_from_measure(mu: MatrixMeasure, boundary_u, n_max: int) -> MeasureZipper:
    """Inverse of the spectral-measure map, truncated at the available length.

    Builds S_n = S(alpha_n, U_n, V_n) from the Gram-Schmidt data; when mu is
    the spectral measure of a finite zipper this recovers its blocks, and the
    Caratheodory transform of mu is reproduced by the rebuilt operator's
    resolvent boundary value.
    """
    gram = gram_schmidt(mu, boundary_u, n_max)
    zipper = SemiInfiniteZipper(mu.L, boundary_u, stored_block_fn(gram.sites, "the available data"))
    return MeasureZipper(zipper, len(gram.sites[0]) + 1, gram)
