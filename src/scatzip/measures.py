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

The Gram-Schmidt run holds each polynomial as two tables, its coefficients
over the exponents -K..K and its values at the M atoms, and advances both
families (phi, psi) in one pass.  Their finished polynomials sit in
preallocated stacks with a leading family axis, stored as (2, rows, L, X, L)
with the coefficient of z^e at x = e + K (X = 2K+1) or the value at atom x
(X = M), so the first n rows of a family reshape for free into one
(n L, X L) matrix.  Each finished polynomial p also keeps W_j p(xi_j)*, in a
(2, rows, M, L, L) stack.  One pass then projects both families' f onto all
their n finished polynomials in one (2, 1, L, M L) @ (2, n, M L, L) product
and updates f's coefficients and values in one (2, L, n L) @ (2, n L, X L)
product each; no polynomial is evaluated twice.  The coefficient stacks
become the documented (n, 2K+1, L, L) tables once, at the end, and
``inner_product`` evaluates those afresh at the atoms as the independent
check.

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


def _check_integer(name: str, value) -> None:
    if not isinstance(value, (int, np.integer)):  # also rejects NaN and 4.0
        raise ValidationError(f"{name} must be an integer, got {value!r}")


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
    _check_integer("L", L)
    _check_integer("the atom count m", m)
    if L < 1:
        raise ValidationError(f"L must be >= 1, got {L}")
    if m < 1:
        raise ValidationError(f"the uniform grid needs m >= 1 atoms, got {m}")
    atoms = np.exp(2j * np.pi * np.arange(m) / m)
    weights = np.broadcast_to(mc.eye(L) / m, (m, L, L)).copy()
    return MatrixMeasure(atoms, weights)


def caratheodory(mu: MatrixMeasure, z: complex) -> np.ndarray:
    """F(z) = i sum_j W_j (xi_j + z)/(xi_j - z), the Caratheodory transform."""
    z = mc.as_point(z)
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


# -- Laurent polynomials as coefficient tables ------------------------------------

def _evaluate(table, points: np.ndarray) -> np.ndarray:
    """Values at the points of the coefficient table (2K+1, L, L) of a Laurent
    polynomial, its nonzero rows summed in increasing exponent."""
    table = mc.as_cstack(table)
    K = (table.shape[0] - 1) // 2
    out = np.zeros((len(points),) + table.shape[1:], dtype=complex)
    for row in np.flatnonzero(np.any(table != 0, axis=(1, 2))):
        out += np.power(points, row - K)[:, None, None] * table[row]
    return out


def inner_product(f, g, mu: MatrixMeasure) -> np.ndarray:
    """<f, g> = sum_j g(xi_j) W_j f(xi_j)* of two coefficient tables: left matrix-linear in g."""
    return np.einsum("jab,jbc,jdc->ad", _evaluate(g, mu.atoms), mu.weights,
                     _evaluate(f, mu.atoms).conj())


def mu_norm(f, mu: MatrixMeasure) -> float:
    return float(np.sqrt(max(np.linalg.norm(inner_product(f, f, mu), 2), 0.0)))


# -- Gram-Schmidt and the zipper data ------------------------------------------------

def _phi_exponent(n: int) -> int:
    """The exponent phi_n adds to the ladder; psi_n adds its negative."""
    return 0 if n == 1 else (-(n // 2) if n % 2 == 0 else n // 2)


@dataclass
class GramSchmidtResult:
    """The orthonormal families and the zipper data recovered from them.

    ``phis`` and ``psis`` are the coefficient tables of phi_1, phi_2, ... and
    psi_1, psi_2, ..., each an (n, 2K+1, L, L) stack: row e + K of a table
    holds the coefficient of z^e, K = (shape[1] - 1) // 2.  ``sites`` holds
    the operator-aligned blocks S_2, ..., S_n as one (alpha, U, V) triple of
    (n - 1, L, L) stacks, the ``Zipper.sites`` format; ``recursion_alpha``,
    ``rho`` and ``rho_tilde`` are the raw recursion data of the same sites,
    and ``kappas``, ``kappas_tilde`` the leading coefficients of ``phis`` and
    ``psis``, each an (n, L, L) stack.
    """

    phis: np.ndarray
    psis: np.ndarray
    sites: tuple
    recursion_alpha: np.ndarray
    rho: np.ndarray
    rho_tilde: np.ndarray
    kappas: np.ndarray
    kappas_tilde: np.ndarray
    stop_step: Optional[int]
    stop_reason: Optional[str]


def _weighted(values: np.ndarray, mu: MatrixMeasure) -> np.ndarray:
    """W_j P_j* from the value table (..., L, M, L) of P: shape (..., M, L, L),
    the right factor of every projection onto P."""
    return mu.weights @ values.swapaxes(-3, -1).swapaxes(-3, -2).conj()


def _pair(values: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    """<p, f> = sum_j F_j W_j P_j* from the value table F (..., L, M, L) of f
    and the weighted table (..., M, L, L) of p.

    One (L, M L) @ (M L, L) matmul on free reshapes; stacks broadcast, so both
    families' f against the n finished rows of each is one
    (2, 1, L, M L) @ (2, n, M L, L) product.
    """
    L, M = values.shape[-3:-1]
    return (values.reshape(*values.shape[:-3], L, M * L)
            @ weighted.reshape(*weighted.shape[:-3], M * L, L))


def _orthonormal_step(mu, stacks, n, exponent):
    """Orthonormalize z^exponent (phi) and z^-exponent (psi) against the n
    finished rows of their families into row n, with Hermitian positive
    normalizers.  Returns the smallest eigenvalue of each family's Gram
    matrix; row n is written only if both reach GRAM_DEGENERACY_TOL.

    ``stacks`` holds the (coefficients, values, weighted) stacks of both
    families, the layouts of the module docstring.  Classical Gram-Schmidt run
    twice is as orthogonal as the modified version ("twice is enough"), and
    each pass is three batched products over both families: all n projections
    c_k = <p_k, f>, then sum_k c_k P_k on coefficients and on values.  One
    ``eigh`` over the (2, L, L) Gram stack gives both normalizers.
    """
    coeffs, values, weighted = stacks
    L, X, M = coeffs.shape[2], coeffs.shape[3], values.shape[3]
    f_coeffs = np.zeros((2, L, X, L), dtype=complex)
    f_coeffs[0, :, X // 2 + exponent] = f_coeffs[1, :, X // 2 - exponent] = mc.eye(L)
    powers = np.power(mu.atoms, np.array([[exponent], [-exponent]]))
    f_values = powers[:, None, :, None] * mc.eye(L)[:, None, :]
    for _ in range(2):
        c = np.swapaxes(_pair(f_values[:, None], weighted[:, :n]), 1, 2).reshape(2, L, n * L)
        f_coeffs -= (c @ coeffs[:, :n].reshape(2, n * L, X * L)).reshape(f_coeffs.shape)
        f_values -= (c @ values[:, :n].reshape(2, n * L, M * L)).reshape(f_values.shape)
    w, V = np.linalg.eigh(mc.hermitize(_pair(f_values, _weighted(f_values, mu))))
    smallest = w[:, 0]
    if smallest.min() < GRAM_DEGENERACY_TOL:
        return smallest
    R = mc.hermitize((V / np.sqrt(w)[:, None]) @ mc.adj(V))  # H^(-1/2) from the same decomposition
    coeffs[:, n] = (R @ f_coeffs.reshape(2, L, X * L)).reshape(f_coeffs.shape)
    values[:, n] = (R @ f_values.reshape(2, L, M * L)).reshape(f_values.shape)
    weighted[:, n] = _weighted(values[:, n], mu)
    return smallest


def _degeneracy_reason(mu: MatrixMeasure, n: int, smallest: np.ndarray) -> str:
    """Why step n stopped: the support is exhausted once n L exceeds the total
    rank D of the weights, since D dimensions hold at most D // L orthonormal
    L x L polynomials; short of that, the ladder ran out of numerical rank."""
    reason = f"degenerate Gram normalizer at step {n}"
    rank = int(np.linalg.matrix_rank(mu.weights).sum())
    if n * mu.L > rank:
        return f"{reason}: measure support exhausted ({len(mu.atoms)} atoms of total rank {rank})"
    k = int(np.argmax(smallest < GRAM_DEGENERACY_TOL))  # phi's if both are degenerate
    return (f"{reason} of {len(mu.atoms)} atoms: smallest {('phi', 'psi')[k]} normalizer "
            f"eigenvalue {smallest[k]:.1e} < GRAM_DEGENERACY_TOL = {GRAM_DEGENERACY_TOL:g}")


def gram_schmidt(mu: MatrixMeasure, boundary_u, n_max: int) -> GramSchmidtResult:
    """Orthonormalize the interleaved Laurent ladders and extract the zipper data.

    phi_1 = 1 and psi_1 = U; both families advance together and the run stops
    at the first degenerate Gram normalizer (a measure with finite support
    carries only finitely many steps); ``stop_reason`` tells an exhausted
    support from a ladder that ran out of numerical rank before it, and then
    names the family and its smallest normalizer eigenvalue.  For every fully
    available index n >= 2 the result holds alpha_n (a strict contraction),
    the leading-coefficient ratios rho_n, rho~_n, and the gauges U_n, V_n with
    rho_n = (1 - alpha alpha*)^(1/2) U_n and rho~_n = (1 - alpha* alpha)^(1/2) V_n*.
    The recovered sites end before the first n whose alpha reaches the
    contraction boundary, ||alpha_n|| >= 1 - 1e-12; this is the one place
    that decides where the recovery stops.

    The run works on coefficient and atom-value tables, and ``phis`` and
    ``psis`` are its coefficient tables.  The sites are recovered in one
    batched pass over all n.
    """
    U = mc.as_cmatrix(boundary_u)
    if mc.unitary_defect(U) > 1e-9:
        raise ValidationError("boundary U must be unitary")
    if U.shape[0] != mu.L:
        raise ValidationError("boundary U size must match the measure")
    _check_integer("n_max", n_max)
    L, M = mu.L, len(mu.atoms)
    one = mc.eye(L)
    K = max(n_max, 0) // 2 + 1  # ladder exponents lie in -K + 1..K - 1: a margin row for z^(+-1)

    # M atoms carry at most M orthonormal polynomials, so step M + 1 is degenerate
    rows = max(1, min(n_max, M + 1))
    coeffs = np.zeros((2, rows, L, 2 * K + 1, L), dtype=complex)
    values = np.zeros((2, rows, L, M, L), dtype=complex)
    weighted = np.zeros((2, rows, M, L, L), dtype=complex)
    firsts = np.stack([one, U])  # phi_1 = 1, psi_1 = U
    coeffs[:, 0, :, K], values[:, 0] = firsts, firsts[:, :, None]
    weighted[:, 0] = _weighted(values[:, 0], mu)
    count, stop_step, stop_reason = rows, None, None
    for n in range(2, rows + 1):
        smallest = _orthonormal_step(mu, (coeffs, values, weighted), n - 1, _phi_exponent(n))
        if smallest.min() < GRAM_DEGENERACY_TOL:
            count, stop_step, stop_reason = n - 1, n, _degeneracy_reason(mu, n, smallest)
            break
    # the documented (n, 2K+1, L, L) coefficient tables, in one copy each
    phi_coeffs, psi_coeffs = np.ascontiguousarray(np.swapaxes(coeffs[:, :count], 2, 3))
    phi_weighted, psi_values = weighted[0, :count], values[1, :count]
    top = np.array([_phi_exponent(n + 1) for n in range(count)])
    kappas, kappas_tilde = phi_coeffs[range(count), K + top], psi_coeffs[range(count), K - top]

    # site n = 2, 3, ... is row n - 2; for even n, z^(-1) psi_{n-1} - rho_n phi_n
    # is a left multiple of phi_{n-1}; the value stack is the run's own, divided in place
    psi_values = psi_values[:-1]
    psi_values[0::2] /= mu.atoms[:, None]
    alpha = _pair(psi_values, phi_weighted[:-1])
    boundary = np.flatnonzero(np.linalg.norm(alpha, 2, axis=(-2, -1)) >= 1.0 - 1e-12)
    if len(boundary):
        # short of it, 1 - alpha alpha* keeps its eigenvalues above 2e-12 - 1e-24,
        # so the inverse square roots below never meet their tolerance
        stop_step = int(boundary[0]) + 2
        stop_reason = "recovered alpha reached the contraction boundary"
        alpha = alpha[:boundary[0]]
    S = len(alpha)
    rho = kappas_tilde[:S] @ np.linalg.inv(kappas[1:S + 1])
    rho_tilde = kappas[:S] @ np.linalg.inv(kappas_tilde[1:S + 1])
    u_rec = mc.hermitian_inv_sqrt(one - alpha @ mc.adj(alpha), tol=1e-12) @ rho
    v_rec = mc.adj(mc.hermitian_inv_sqrt(one - mc.adj(alpha) @ alpha, tol=1e-12) @ rho_tilde)
    # the even-layer equation of the operator runs through the inverse block
    # (V psi = z phi versus psi = z S phi), so at even n the operator's block is
    # the adjoint S(a, U, V)* = S(a*, V*, U*) of the recursion data
    sites = alpha.copy(), u_rec.copy(), v_rec.copy()
    for site, even in zip(sites, (alpha, v_rec, u_rec)):
        site[0::2] = mc.adj(even[0::2])
    return GramSchmidtResult(phi_coeffs, psi_coeffs, sites, alpha, rho, rho_tilde,
                             kappas, kappas_tilde, stop_step, stop_reason)


def recursion_residual(gram: GramSchmidtResult, mu: MatrixMeasure) -> float:
    """The largest mu-norm of the four recursion relations over the recovered sites.

    For odd n, psi_{n-1} = rho_n phi_n + alpha_n phi_{n-1} and
    phi_{n-1} = rho~_n psi_n + alpha_n* psi_{n-1}; for even n the left sides
    are z^(-1) psi_{n-1} and z phi_{n-1}.  Multiplying by z^k shifts a table
    k rows along the exponent axis; the ladder's margin row keeps every
    coefficient in the table.
    """
    S = len(gram.recursion_alpha)
    phis, psis = gram.phis, gram.psis
    a, rho, rho_t = (x[:, None] for x in (gram.recursion_alpha, gram.rho, gram.rho_tilde))
    psi_left, phi_left = psis[:S].copy(), phis[:S].copy()
    psi_left[0::2] = np.roll(psis[:S:2], -1, axis=1)
    phi_left[0::2] = np.roll(phis[:S:2], 1, axis=1)
    r1 = psi_left - rho @ phis[1:S + 1] - a @ phis[:S]
    r2 = phi_left - rho_t @ psis[1:S + 1] - mc.adj(a) @ psis[:S]
    return max((mu_norm(r, mu) for r in (*r1, *r2)), default=0.0)


@dataclass
class MeasureZipper:
    """Zipper rebuilt from a measure, truncated at the available length."""

    zipper: SemiInfiniteZipper
    n_available: int
    gram: GramSchmidtResult


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
