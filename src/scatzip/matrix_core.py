"""Dense complex small-matrix utilities.

Fixed quadratic forms of signature (L, L), the Cayley transform between the
Siegel disc and the matrix upper half-plane, Hermitian square roots, polar
factors, and the matrix Moebius calculus (left action and its right inverse
action) used throughout the transfer-matrix machinery.

All matrices here are small (a few dozen rows at most) and dense; numpy's
LAPACK-backed eigh/svd/solve are used throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    NotHermitianError,
    NotPSDError,
    SingularDenominatorError,
    SingularMatrixError,
)

DEFAULT_TOL = 1e-10


def as_cstack(m) -> np.ndarray:
    """Coerce to a complex ndarray with finite entries: one matrix or a stack of them."""
    a = np.asarray(m, dtype=complex)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def as_cmatrix(m) -> np.ndarray:
    """Coerce to a 2-d complex ndarray with finite entries."""
    a = as_cstack(m)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return a


def eye(L: int) -> np.ndarray:
    return np.eye(L, dtype=complex)


def adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix of a stack)."""
    return np.swapaxes(a.conj(), -1, -2)


def lform(L: int) -> np.ndarray:
    """Signature-(L, L) form: diag(1, -1) in L x L blocks."""
    return np.diag(np.concatenate([np.ones(L), -np.ones(L)])).astype(complex)


def jform(L: int) -> np.ndarray:
    """The symplectic-style form [[0, -1], [1, 0]]; equals cayley* lform cayley / i."""
    J = np.zeros((2 * L, 2 * L), dtype=complex)
    J[:L, L:] = -eye(L)
    J[L:, :L] = eye(L)
    return J


def cayley(L: int) -> np.ndarray:
    """Unitary Cayley matrix (1/sqrt2) [[1, -i], [1, i]] mapping half-plane to disc."""
    C = np.zeros((2 * L, 2 * L), dtype=complex)
    C[:L, :L] = eye(L)
    C[:L, L:] = -1j * eye(L)
    C[L:, :L] = eye(L)
    C[L:, L:] = 1j * eye(L)
    return C / np.sqrt(2.0)


def split_blocks(T: np.ndarray):
    """Split a 2L x 2L matrix (or each of a stack) into its four L x L blocks (A, B, C, D)."""
    n = T.shape[-1]
    if T.shape[-2] != n or n % 2:
        raise ValueError(f"expected an even square matrix, got shape {T.shape}")
    L = n // 2
    return T[..., :L, :L], T[..., :L, L:], T[..., L:, :L], T[..., L:, L:]


def join_blocks(A, B, C, D) -> np.ndarray:
    """[[A, B], [C, D]] from four L x L blocks, or from four stacks of them."""
    return np.block([[as_cstack(A), as_cstack(B)], [as_cstack(C), as_cstack(D)]])


def unitary_defect(U: np.ndarray) -> float:
    """Operator-norm distance of U*U from the identity."""
    U = as_cmatrix(U)
    return float(np.linalg.norm(adj(U) @ U - eye(U.shape[0]), 2))


def hermitian_defect(M: np.ndarray) -> float:
    """Operator-norm distance of M from M* (the largest over a stack)."""
    M = as_cstack(M)
    return float(np.linalg.norm(M - adj(M), 2, axis=(-2, -1)).max())


def hermitize(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + adj(M))


def hermitian_sqrt(M, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root of a PSD matrix, or of each matrix of a stack.

    Eigenvalues in [-tol, 0) are clamped to zero; an eigenvalue below -tol
    raises NotPSDError, a Hermiticity defect above tol raises
    NotHermitianError.
    """
    M = as_cstack(M)
    if hermitian_defect(M) > tol:
        raise NotHermitianError(f"Hermiticity defect {hermitian_defect(M):.3e} > {tol:.1e}")
    w, V = np.linalg.eigh(hermitize(M))
    if w.min() < -tol:
        raise NotPSDError(f"eigenvalue {w.min():.3e} < -{tol:.1e}")
    w = np.clip(w, 0.0, None)
    R = (V * np.sqrt(w)[..., None, :]) @ adj(V)
    return hermitize(R)


def hermitian_inv_sqrt(M, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Inverse Hermitian square root of a positive-definite matrix."""
    M = as_cmatrix(M)
    if hermitian_defect(M) > tol:
        raise NotHermitianError(f"Hermiticity defect {hermitian_defect(M):.3e} > {tol:.1e}")
    w, V = np.linalg.eigh(hermitize(M))
    if w.min() <= tol:
        raise NotPSDError(f"eigenvalue {w.min():.3e} <= {tol:.1e}, not safely positive")
    R = (V / np.sqrt(w)) @ adj(V)
    return hermitize(R)


def polar_unitary(A, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unitary polar factor U = (A A*)^(-1/2) A of an invertible matrix.

    Computed from the SVD, so A = (A A*)^(1/2) U holds to roundoff.
    """
    A = as_cmatrix(A)
    u, s, vh = np.linalg.svd(A)
    if s.min() <= tol:
        raise SingularMatrixError(f"smallest singular value {s.min():.3e} <= {tol:.1e}")
    return u @ vh


def smallest_singular_value(A) -> float:
    """Smallest singular value of a matrix (the smallest over a stack)."""
    return float(np.linalg.svd(as_cstack(A), compute_uv=False).min())


def mobius(T, Z, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Left Moebius action (A Z + B)(C Z + D)^(-1) of a 2L x 2L matrix on Z."""
    T = as_cmatrix(T)
    Z = as_cmatrix(Z)
    A, B, C, D = split_blocks(T)
    den = C @ Z + D
    if smallest_singular_value(den) <= tol:
        raise SingularDenominatorError("C Z + D is numerically singular")
    num = A @ Z + B
    return np.linalg.solve(den.T, num.T).T


def mobius_inverse(W, T, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Right inverse action (W C - A)^(-1)(B - W D); undoes mobius(T, .)."""
    T = as_cmatrix(T)
    W = as_cmatrix(W)
    A, B, C, D = split_blocks(T)
    den = W @ C - A
    if smallest_singular_value(den) <= tol:
        raise SingularDenominatorError("W C - A is numerically singular")
    return np.linalg.solve(den, B - W @ D)


def in_siegel_disc(Z, strict: bool = True, tol: float = DEFAULT_TOL) -> bool:
    """Membership of Z in the Siegel disc {Z : Z*Z < 1} (or its closure)."""
    Z = as_cmatrix(Z)
    smax = float(np.linalg.svd(Z, compute_uv=False).max())
    if strict:
        return smax * smax < 1.0 - tol
    return smax * smax <= 1.0 + tol


def in_upper_half_plane(Z, tol: float = DEFAULT_TOL) -> bool:
    """True iff the matrix imaginary part i(Z* - Z) is positive definite."""
    Z = as_cmatrix(Z)
    im = hermitize(1j * (adj(Z) - Z))
    return bool(np.linalg.eigvalsh(im).min() > tol)


def principal_cosines(A, B) -> np.ndarray:
    """Cosines of the principal angles between the column spans of A and B."""
    qa, _ = np.linalg.qr(as_cmatrix(A))
    qb, _ = np.linalg.qr(as_cmatrix(B))
    s = np.linalg.svd(adj(qa) @ qb, compute_uv=False)
    return np.clip(s, 0.0, 1.0)


def principal_sines(A, B) -> np.ndarray:
    """Sines of the principal angles between the column spans of A and B.

    Accurate for small angles, where the cosine route loses half the digits.
    """
    qa, _ = np.linalg.qr(as_cmatrix(A))
    qb, _ = np.linalg.qr(as_cmatrix(B))
    resid = qb - qa @ (adj(qa) @ qb)
    s = np.linalg.svd(resid, compute_uv=False)
    return np.clip(np.sort(s), 0.0, 1.0)


def subspace_intersection_dim(A, B, tol: float = 1e-7) -> int:
    """Dimension of span(A) intersected with span(B), via principal angles."""
    return int(np.sum(principal_cosines(A, B) > 1.0 - tol))
