"""Transfer matrices, solution frames, and the associated quadratic forms.

The eigenvalue equation of a zipper is propagated site to site by the
transfer matrices

    T_n(z) = [[A/z, B], [C, z D]]   (even n, (A,B,C,D) the blocks of phi(S_n))
    T_n(z) = phi(S_n)               (odd n, independent of z)

acting on 2L x L solution frames started from (1; 1).  For |z| = 1 every
transfer conserves the signature-(L, L) form, so frames stay Lagrangian; for
|z| < 1 a single even step satisfies T* L T = L + P with P >= (1-|z|^2)/2,
which drives all the Weyl-disc estimates.  The left boundary U enters as the
z-independent first step T_1 = diag(U, 1).

``propagate`` is the one loop that carries a solution frame forward: the
Pruefer phases of finite and periodic zippers (``oscillation``) and the
Weyl discs and log-scaled radius norms (``weyl``) all run through it.  It
takes one z or a 1-D array of them; an array carries a (B, rows, k) stack
of frames through a single site loop, with the even steps applied as
diag(1, z) phi(S_n) diag(1/z, 1) across the stack and one stacked QR per
step, so the oscillation sweep evaluates a whole theta grid in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import matrix_core as mc
from .errors import (
    DegenerateFrameError,
    ImpossibleByTheoryError,
    ValidationError,
    ZeroZError,
)
from .scattering import ScatteringBlock, phi
from .zipper import Zipper


def _check_z(z: complex) -> complex:
    z = complex(z)
    if z == 0:
        raise ZeroZError("transfer matrices are undefined at z = 0")
    return z


def _even_transfer(M: np.ndarray, z: complex) -> np.ndarray:
    A, B, C, D = mc.split_blocks(M)
    return mc.join_blocks(A / z, B, C, z * D)


def _even_transfer_inverse(M: np.ndarray, z: complex) -> np.ndarray:
    # (T^z)^(-1) = L (T^{1/conj(z)})* L = [[z A*, -C*], [-B*, D*/z]]
    A, B, C, D = mc.split_blocks(M)
    return mc.join_blocks(z * mc.adj(A), -mc.adj(C), -mc.adj(B), mc.adj(D) / z)


def _odd_transfer_inverse(M: np.ndarray) -> np.ndarray:
    A, B, C, D = mc.split_blocks(M)
    return mc.join_blocks(mc.adj(A), -mc.adj(C), -mc.adj(B), mc.adj(D))


def transfer_at(block: ScatteringBlock, n: int, z: complex) -> np.ndarray:
    """Transfer matrix of the block sitting at index n: phi(S/z) for even n, phi(S) for odd."""
    z = _check_z(z)
    M = phi(block)
    return _even_transfer(M, z) if n % 2 == 0 else M


def transfer_inverse_at(block: ScatteringBlock, n: int, z: complex) -> np.ndarray:
    """Exact inverse of transfer_at, via the form identity T^(-1) = L (T^{1/conj z})* L."""
    z = _check_z(z)
    M = phi(block)
    return _even_transfer_inverse(M, z) if n % 2 == 0 else _odd_transfer_inverse(M)


class TransferFactory:
    """Serves T_n(z) off the phi table of a zipper.

    The z-independent parts phi(S_n) are the rows of ``zipper.phi_table``,
    which the zipper object builds once (a semi-infinite zipper extends it
    when its stored prefix grows), so every factory, frame propagation and
    E-chain on one zipper shares one table.  ``product`` is the exception:
    it is a reference and multiplies per-block transfers.  For finite and
    semi-infinite zippers T_1 = diag(U, 1) carries the left boundary; for
    periodic zippers T_1 = phi(S_1) is a genuine block.
    """

    def __init__(self, zipper):
        self.zipper = zipper
        self.L = zipper.L

    def phi_table(self, upto: int) -> np.ndarray:
        """Rows phi_1, ..., phi_upto as one (upto, 2L, 2L) stack."""
        return self.zipper.phi_table(upto)

    def phi_at(self, n: int) -> np.ndarray:
        return self.zipper.phi_table(n)[n - 1]

    def transfer(self, n: int, z: complex) -> np.ndarray:
        M = self.phi_at(n)
        return _even_transfer(M, z) if n % 2 == 0 else M

    def product(self, n: int, z: complex) -> np.ndarray:
        """Ordered product T_n(z) ... T_1(z), built block by block as a reference.

        Every factor comes from ``transfer_at(zipper.block(m), ...)`` and the
        left boundary from diag(U, 1), never from the phi table, so the
        cross-check routes built on this product (``e_matrix_closed``, the
        radius form ``_q_tilde``, the ``verify`` suite) stay independent of
        the stacked ``phi`` that ``propagate`` and ``e_matrix`` run on.
        """
        z = _check_z(z)
        T = mc.eye(2 * self.L)
        for m in range(1, n + 1):
            if m == 1 and self.zipper.flavor != "periodic":
                u = self.zipper.boundary_u
                step = mc.join_blocks(u, np.zeros_like(u), np.zeros_like(u), mc.eye(self.L))
            else:
                step = transfer_at(self.zipper.block(m), m, z)
            T = step @ T
        return T


@dataclass
class SolutionFrame:
    """A full-rank frame at a given site (2L x L, or taller with carried rows).

    When propagated with renormalization, ``matrix`` has orthonormal columns
    and the removed right factor is exp(log_scale) * normalizer with
    ||normalizer||_F = 1; the raw frame is matrix @ normalizer * exp(log_scale).
    Propagated from an array of B points, ``z`` is that array and every other
    field gains a leading axis of length B.
    """

    matrix: np.ndarray
    site: int
    z: complex
    normalizer: Optional[np.ndarray] = None
    log_scale: float = 0.0

    @property
    def renormalized(self) -> bool:
        return self.normalizer is not None

    def raw(self) -> np.ndarray:
        """Reconstruct the unrenormalized frame (overflows for long hyperbolic runs)."""
        if self.normalizer is None:
            return self.matrix
        return self.matrix @ self.normalizer * np.exp(self.log_scale)[..., None, None]

    def upper(self) -> np.ndarray:
        return self.matrix[..., : self.matrix.shape[-1], :]

    def lower(self) -> np.ndarray:
        return self.matrix[..., self.matrix.shape[-1]:, :]

    def lform_value(self) -> np.ndarray:
        """The frame's value of the (L, L) form, Phi* L Phi (for the stored matrix)."""
        L = self.matrix.shape[-1]
        return np.swapaxes(self.matrix.conj(), -1, -2) @ mc.lform(L) @ self.matrix


def _qr_positive(A: np.ndarray):
    """Reduced QR with positive-real R diagonal, for deterministic frames (stacks too)."""
    Q, R = np.linalg.qr(A)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    size = np.abs(d)
    phase = np.divide(d, size, out=np.ones_like(d), where=size > 0)
    return Q * phase[..., None, :], R / phase[..., :, None]


def initial_frame(L: int) -> np.ndarray:
    return np.vstack([mc.eye(L), mc.eye(L)])


def propagate(zipper, z, upto: int, renormalize: bool = True,
              factory: Optional[TransferFactory] = None,
              start: Optional[np.ndarray] = None) -> SolutionFrame:
    """Propagate a frame through T_1, ..., T_upto, from (1; 1) unless ``start`` is given.

    T_n acts on the last 2L rows of the frame; any rows above them are
    carried along unchanged (the doubled periodic frame carries the identity
    factor of 1 (+) T_n this way).  With renormalization the frame is
    column-orthonormalized after every step (QR), which only removes a right
    factor and therefore leaves the spanned plane unchanged; the factor is
    accumulated as a Frobenius-normalized matrix and a log scale.

    ``z`` is one point or a 1-D array of B points; for an array all B frames
    run through the same site loop as one stack, with the normalizer and the
    log scale kept per point, and the result carries a leading axis of B.
    """
    zs = np.asarray(z, dtype=complex)
    if zs.ndim > 1:
        raise ValidationError(f"z must be a point or a 1-D array, got ndim={zs.ndim}")
    if np.any(zs == 0):
        raise ZeroZError("transfer matrices are undefined at z = 0")
    points = zs.reshape(-1, 1, 1)
    fac = factory or TransferFactory(zipper)
    L = fac.L
    phis = fac.phi_table(upto)
    first = initial_frame(L) if start is None else np.asarray(start, dtype=complex)
    frame = np.repeat(first[None], len(points), axis=0)
    carried = frame.shape[1] - 2 * L
    tau = np.repeat(mc.eye(frame.shape[2])[None], len(points), axis=0) if renormalize else None
    log_scale = np.zeros(len(points))
    for n in range(1, upto + 1):
        even = n % 2 == 0  # even T_n(z) = diag(1, z) phi(S_n) diag(1/z, 1)
        if even:
            frame[:, carried:carried + L] /= points
        frame[:, carried:] = phis[n - 1] @ frame[:, carried:]
        if even:
            frame[:, carried + L:] *= points
        if not renormalize:
            continue
        frame, R = _qr_positive(frame)
        M = R @ tau
        nu = np.linalg.norm(M, axis=(-2, -1))
        if not np.all(np.isfinite(nu) & (nu > 0.0)):
            raise DegenerateFrameError(f"renormalization factor degenerated at site {n}")
        tau = M / nu[:, None, None]
        log_scale += np.log(nu)
    if zs.ndim == 0:
        return SolutionFrame(frame[0], upto, complex(zs), normalizer=None if tau is None else tau[0],
                             log_scale=float(log_scale[0]))
    return SolutionFrame(frame, upto, zs, normalizer=tau, log_scale=log_scale)


# -- quadratic forms ----------------------------------------------------------

@dataclass
class QuadraticForm:
    """Hermitian form attached to a transfer product (or a single even step)."""

    matrix: np.ndarray
    z: complex
    n: Optional[int] = None
    product_defect: Optional[float] = None

    def signature(self, tol: float = 1e-9):
        w = np.linalg.eigvalsh(mc.hermitize(self.matrix))
        return int(np.sum(w > tol)), int(np.sum(w < -tol))


def p_matrix(block: ScatteringBlock, z: complex) -> QuadraticForm:
    """Positivity defect P of one even transfer step: T* L T = L + P.

    P = [[(|z|^-2 - 1) A*A, (1/conj(z) - z) A*B],
         [(1/z - conj(z)) B*A, (1 - |z|^2)(B*B + 1)]],  P >= (1 - |z|^2)/2.
    """
    z = _check_z(z)
    A, B, _, _ = mc.split_blocks(phi(block))
    az2 = abs(z) ** 2
    AA = mc.adj(A) @ A
    AB = mc.adj(A) @ B
    BB = mc.adj(B) @ B
    L = A.shape[0]
    P = mc.join_blocks(
        (1.0 / az2 - 1.0) * AA,
        (1.0 / np.conj(z) - z) * AB,
        (1.0 / z - np.conj(z)) * mc.adj(AB),
        (1.0 - az2) * (BB + mc.eye(L)),
    )
    return QuadraticForm(mc.hermitize(P), z)


def q_form(zipper, z: complex, upto: Optional[int] = None,
           factory: Optional[TransferFactory] = None) -> QuadraticForm:
    """Accumulated form Q_n = (T_n ... T_1)* L (T_n ... T_1).

    Computed both as the direct product and as the telescoped sum
    L + sum_k (T_1 ... T_{2k-1})* P_{2k} (T_{2k-1} ... T_1); the two must
    agree, and their distance is reported in ``product_defect``.
    """
    z = _check_z(z)
    fac = factory or TransferFactory(zipper)
    L = fac.L
    n = upto if upto is not None else zipper.N
    Lf = mc.lform(L)
    T = mc.eye(2 * L)
    Q_sum = Lf.copy()
    for m in range(1, n + 1):
        if m % 2 == 0:
            P = p_matrix(zipper.block(m), z).matrix
            Q_sum = Q_sum + mc.adj(T) @ P @ T
        T = fac.transfer(m, z) @ T
    Q_prod = mc.hermitize(mc.adj(T) @ Lf @ T)
    defect = float(np.linalg.norm(Q_prod - Q_sum, 2))
    return QuadraticForm(mc.hermitize(Q_sum), z, n=n, product_defect=defect)


# -- inhomogeneous solve --------------------------------------------------------

def solve_inhomogeneous(zipper: Zipper, z: complex, xi) -> list:
    """Solve the boundary-value problem (X - z) phi = xi for a finite zipper.

    ``xi`` is a length-N sequence of L x m right-hand blocks.  The forward
    recursion carries the homogeneous frame and a particular accumulation
    through the transfers; the free left datum phi_1 is then pinned by the
    right boundary condition V phi_N = psi_N.  Returns [phi_1, ..., phi_N].
    """
    z = _check_z(z)
    if abs(z) >= 1.0:
        raise ValidationError("inhomogeneous solve expects |z| < 1")
    if zipper.flavor != "finite":
        raise ValidationError("solve_inhomogeneous needs a finite zipper")
    L, N = zipper.L, zipper.N
    xi = [mc.as_cmatrix(x) for x in xi]
    if len(xi) != N or any(x.shape[0] != L for x in xi):
        raise ValidationError(f"xi must be {N} blocks with {L} rows")
    m = xi[0].shape[1]

    fac = TransferFactory(zipper)
    H = initial_frame(L)                     # homogeneous frame T_n...T_1 (1;1)
    P = np.zeros((2 * L, m), dtype=complex)  # particular accumulation
    homogeneous = [None]
    particular = [None]
    for n in range(1, N + 1):
        T = fac.transfer(n, z)
        H = T @ H
        P = T @ P
        if n % 2 == 0:
            # transfer form of V psi = z phi + xi on the site pair: the
            # inhomogeneity enters with the opposite sign to the frame term
            S = zipper.blocks[n]
            binv = np.linalg.inv(S.beta)
            J = mc.join_blocks(-S.delta @ binv / z, mc.eye(L) / z, -binv, np.zeros((L, L)))
            P = P - J @ np.vstack([xi[n - 2], xi[n - 1]])
        homogeneous.append(H.copy())
        particular.append(P.copy())

    V = zipper.boundary_v
    pivot = H[L:] - V @ H[:L]
    if mc.smallest_singular_value(pivot) <= 1e-12 * max(1.0, float(np.linalg.norm(H, 2))):
        raise ImpossibleByTheoryError(
            "right-boundary pivot is singular although the form positivity forbids it")
    phi1 = np.linalg.solve(pivot, V @ P[:L] - P[L:])

    out = []
    for n in range(1, N + 1):
        frame = homogeneous[n] @ phi1 + particular[n]
        out.append(frame[L:] if n % 2 else frame[:L])
    return out
