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
from .errors import NotPSDError, ValidationError
from .scattering import ScatteringBlock
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
        if np.any(np.abs(np.abs(atoms) - 1.0) > 1e-9):
            raise ValidationError("atoms must lie on the unit circle")
        for W in weights:
            if mc.hermitian_defect(W) > 1e-9 or np.linalg.eigvalsh(mc.hermitize(W)).min() < -1e-9:
                raise ValidationError("weights must be Hermitian PSD")
        total = weights.sum(axis=0)
        if np.linalg.norm(total - mc.eye(weights.shape[1]), 2) > 1e-8:
            raise ValidationError("weights must sum to the identity")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "L", weights.shape[1])


def uniform_grid_measure(L: int, m: int) -> MatrixMeasure:
    """Quadrature of normalized Lebesgue measure: m equispaced atoms, weights 1/m."""
    atoms = np.exp(2j * np.pi * np.arange(m) / m)
    weights = np.broadcast_to(mc.eye(L) / m, (m, L, L)).copy()
    return MatrixMeasure(atoms, weights)


def caratheodory(mu: MatrixMeasure, z: complex) -> np.ndarray:
    """F(z) = i sum_j W_j (xi_j + z)/(xi_j - z), the Caratheodory transform."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValidationError("the Caratheodory transform is evaluated inside the disc")
    coeff = (mu.atoms + z) / (mu.atoms - z)
    return 1j * np.einsum("j,jab->ab", coeff, mu.weights)


def spectral_measure_finite(zipper: Zipper, v_boundary=None,
                            tol_cluster: float = 1e-7, cap: int = 512) -> MatrixMeasure:
    """Spectral measure of a finite zipper compressed to the first site.

    Atoms at the operator eigenvalues, weights pi_1* P pi_1 from the dense
    spectral projections; the weights resolve the identity because the first
    site is cyclic.
    """
    if v_boundary is not None:
        zipper = zipper.with_boundary_v(v_boundary)
    op = assemble_finite(zipper)
    spec, projections = dense_spectrum(op, cap=cap, tol_cluster=tol_cluster,
                                       want_projections=True)
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
class SzegoEntry:
    """Recursion data of one zipper block recovered from the measure.

    ``recursion_alpha`` and the leading-coefficient ratios rho, rho~ are the
    raw Gram-Schmidt recursion data.  For odd n the zipper block is
    S(recursion data) directly; for even n the even-layer equation of the
    operator runs through the inverse block (V psi = z phi versus
    psi = z S phi), so the operator's block is the adjoint
    S(a, U, V)* = S(a*, V*, U*).  The ``alpha``/``u_gauge``/``v_gauge``
    fields are already operator-aligned: S(alpha, u_gauge, v_gauge) is the
    block of the zipper the measure came from.
    """

    n: int
    alpha: np.ndarray
    u_gauge: np.ndarray
    v_gauge: np.ndarray
    recursion_alpha: np.ndarray
    rho: np.ndarray
    rho_tilde: np.ndarray


@dataclass
class GramSchmidtResult:
    phis: list
    psis: list
    entries: dict
    kappas: dict
    kappas_tilde: dict
    stop_step: Optional[int]
    stop_reason: Optional[str]


def _orthonormal_step(mu, produced, exponent, first_coeff=None):
    """One Gram-Schmidt step with a Hermitian positive normalizer; None if degenerate."""
    L = mu.L
    coeff = mc.eye(L) if first_coeff is None else mc.as_cmatrix(first_coeff)
    f = MatrixLaurentPoly.monomial(exponent, coeff, L)
    for _ in range(2):  # classical Gram-Schmidt, two passes for orthogonality
        for p in produced:
            f = f - p.left_mul(inner_product(p, f, mu))
    H = mc.hermitize(inner_product(f, f, mu))
    if np.linalg.eigvalsh(H).min() < GRAM_DEGENERACY_TOL:
        return None
    return f.left_mul(mc.hermitian_inv_sqrt(H, tol=0.0))


def gram_schmidt(mu: MatrixMeasure, boundary_u, n_max: int) -> GramSchmidtResult:
    """Orthonormalize the interleaved Laurent ladders and extract the zipper data.

    phi_1 = 1 and psi_1 = U; both families advance together and the run stops
    at the first degenerate Gram normalizer (a measure with finite support
    carries only finitely many steps).  For every fully available index n >= 2
    the entry holds alpha_n (a strict contraction), the leading-coefficient
    ratios rho_n, rho~_n, and the gauges U_n, V_n with
    rho_n = (1 - alpha alpha*)^(1/2) U_n and rho~_n = (1 - alpha* alpha)^(1/2) V_n*.
    """
    U = mc.as_cmatrix(boundary_u)
    if mc.unitary_defect(U) > 1e-9:
        raise ValidationError("boundary U must be unitary")
    if U.shape[0] != mu.L:
        raise ValidationError("boundary U size must match the measure")
    L = mu.L
    one = mc.eye(L)

    phis = [MatrixLaurentPoly.monomial(0, one, L)]
    psis = [MatrixLaurentPoly.monomial(0, U, L)]
    stop_step = None
    stop_reason = None
    for n in range(2, n_max + 1):
        phi_n = _orthonormal_step(mu, phis, _phi_exponent(n))
        psi_n = _orthonormal_step(mu, psis, _psi_exponent(n))
        if phi_n is None or psi_n is None:
            stop_step = n
            stop_reason = "degenerate Gram normalizer (measure support exhausted)"
            break
        phis.append(phi_n)
        psis.append(psi_n)

    kappas = {n + 1: p.coeff(_phi_exponent(n + 1)) for n, p in enumerate(phis)}
    kappas_tilde = {n + 1: p.coeff(_psi_exponent(n + 1)) for n, p in enumerate(psis)}

    entries = {}
    for n in range(2, len(phis) + 1):
        phi_prev, psi_prev = phis[n - 2], psis[n - 2]
        if n % 2 == 0:
            # z^(-1) psi_{n-1} - rho_n phi_n is a left multiple of phi_{n-1}
            alpha = inner_product(phi_prev, psi_prev.shifted(-1), mu)
        else:
            alpha = inner_product(phi_prev, psi_prev, mu)
        rho = kappas_tilde[n - 1] @ np.linalg.inv(kappas[n])
        rho_tilde = kappas[n - 1] @ np.linalg.inv(kappas_tilde[n])
        try:
            u_rec = mc.hermitian_inv_sqrt(one - alpha @ mc.adj(alpha), tol=1e-12) @ rho
            v_rec = mc.adj(mc.hermitian_inv_sqrt(one - mc.adj(alpha) @ alpha, tol=1e-12) @ rho_tilde)
        except NotPSDError:
            stop_step = n
            stop_reason = "recovered alpha reached the contraction boundary"
            break
        if n % 2 == 0:
            entries[n] = SzegoEntry(n, mc.adj(alpha), mc.adj(v_rec), mc.adj(u_rec),
                                    alpha, rho, rho_tilde)
        else:
            entries[n] = SzegoEntry(n, alpha, u_rec, v_rec, alpha, rho, rho_tilde)

    return GramSchmidtResult(phis, psis, entries, kappas, kappas_tilde, stop_step, stop_reason)


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
    blocks = {}
    for n, entry in sorted(gram.entries.items()):
        if float(np.linalg.norm(entry.alpha, 2)) >= 1.0 - 1e-12:
            gram.stop_step = n
            gram.stop_reason = "recovered alpha reached the contraction boundary"
            break
        blocks[n] = ScatteringBlock(entry.alpha, entry.u_gauge, entry.v_gauge)

    block_fn = stored_block_fn(blocks, lambda n: ValidationError(f"block S_{n} is beyond the available data"))
    zipper = SemiInfiniteZipper(mu.L, boundary_u, block_fn)
    n_available = max(blocks) if blocks else 1
    return MeasureZipper(zipper, n_available, gram)
