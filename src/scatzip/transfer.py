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

Two loops run over the sites, both on a 1-D array of z at once, and both
read the phi table of the zipper (or of a ``factory`` standing in for it).
``chart_chain`` carries the charts W = b a^(-1) of frames (a; b) by Moebius
steps, one batched solve per site pair: only even sites depend on z, so
T_2k(z) T_(2k-1) = diag(1, z) (X_k / z + Y_k) with X_k and Y_k free of z
(``pair_table``).  Its rows serve the Pruefer phases (``oscillation``) as
they stand and the boundary value E (``weyl.e_matrix``) as their inverses,
walked backwards.  ``propagate`` carries the frames, with the even steps
diag(1, z) phi(S_n) diag(1/z, 1) and one stacked QR per site with the
removed right factor kept: the Weyl discs and radius norms (``weyl``), and
the independent check of the Pruefer charts in the tests and ``verify``.

The references never read that table: ``site_transfer`` builds T_n(z) from
the block of site n alone, and ``transfer_product``, ``q_form`` and
``solve_inhomogeneous`` (and ``weyl.e_matrix_closed``, ``weyl._q_tilde``
and the ``verify`` transfer checks) multiply its steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import matrix_core as mc
from .errors import NumericalBreakdownError, ValidationError
from .scattering import ScatteringBlock, phi
from .zipper import Zipper, _boundary_transfer


# Most multiply-adds of one shared-row product in ``chart_chain``: OpenBLAS
# runs larger products on several threads, and waking them costs more than
# a product of this size.
CHAIN_PRODUCT_SIZE = 2 ** 15


def _check_z(z):
    """z, one point or an array of them, checked finite and nonzero (NaN fails both)."""
    zs = np.asarray(z, dtype=complex)
    if np.any(zs == 0):
        raise ValidationError("transfer matrices are undefined at z = 0")
    if not np.all(np.isfinite(zs)):
        raise ValidationError(f"transfer matrices need a finite z, got {zs[~np.isfinite(zs)][0]}")
    return complex(zs) if zs.ndim == 0 else zs


def _even_transfer(M: np.ndarray, z: complex) -> np.ndarray:
    A, B, C, D = mc.split_blocks(M)
    return mc.join_blocks(A / z, B, C, z * D)


def transfer_at(block: ScatteringBlock, n: int, z: complex) -> np.ndarray:
    """Transfer matrix of the block sitting at index n: phi(S/z) for even n, phi(S) for odd."""
    z = _check_z(z)
    M = phi(block)
    return _even_transfer(M, z) if n % 2 == 0 else M


def site_transfer(zipper, n: int, z) -> np.ndarray:
    """T_n(z) built from the block of site n alone, never from the phi table.

    For finite and semi-infinite zippers T_1 = diag(U, 1) carries the left
    boundary; every other site (and site 1 of a periodic zipper) is
    ``transfer_at(zipper.block(n), n, z)``.
    """
    if n == 1 and zipper.flavor != "periodic":
        return _boundary_transfer(zipper.boundary_u)
    return transfer_at(zipper.block(n), n, z)


def transfer_product(zipper, n: int, z: complex) -> np.ndarray:
    """Ordered product T_n(z) ... T_1(z) of ``site_transfer`` steps, a reference
    independent of the phi table that ``propagate`` and ``e_matrix`` run on."""
    z = _check_z(z)
    T = mc.eye(2 * zipper.L)
    for m in range(1, n + 1):
        T = site_transfer(zipper, m, z) @ T
    return T


class TransferFactory:
    """The table seam: serves the phi table of a zipper.

    The routes that read the table (``propagate``, the Pruefer phases and
    the ``weyl`` E-chain and frames) take as ``factory=`` any object with
    ``phi_table(upto)`` in place of the zipper's own table, and read
    ``zipper.phi_table`` without one; perfbench passes this class there,
    the tests pass hand-built tables.
    """

    def __init__(self, zipper):
        self.zipper = zipper

    def phi_table(self, upto: int) -> np.ndarray:
        """Rows phi_1, ..., phi_upto as one (upto, 2L, 2L) stack."""
        return self.zipper.phi_table(upto)


def _times(row: np.ndarray, W: np.ndarray) -> np.ndarray:
    """row @ W for one row shared by a (B, m, k) stack: the charts side by side, as
    products with m x (b k) columns of at most CHAIN_PRODUCT_SIZE multiply-adds."""
    B, m, k = W.shape
    cols = max(k, CHAIN_PRODUCT_SIZE // row.size // k * k)
    side = W.transpose(1, 0, 2).reshape(m, B * k)
    out = np.empty((len(row), B * k), dtype=complex)
    for i in range(0, B * k, cols):
        np.matmul(row, side[:, i:i + cols], out=out[:, i:i + cols])
    return out.reshape(len(row), B, k).transpose(1, 0, 2)


def pair_table(phis: np.ndarray) -> np.ndarray:
    """[X_k; Y_k] of the site pairs (2k - 1, 2k) of a phi table, two stacked products:
    T_2k(z) T_(2k-1) = diag(1, z) (X_k / z + Y_k) with X_k = phi_2k diag(1, 0) phi_(2k-1)
    and Y_k = phi_2k diag(0, 1) phi_(2k-1)."""
    L = phis.shape[-1] // 2
    odd, even = phis[0::2], phis[1::2]
    return np.concatenate([even[..., :L] @ odd[:, :L], even[..., L:] @ odd[:, L:]], axis=1)


def chart_chain(table: np.ndarray, points: np.ndarray, start: np.ndarray, acted: slice, keep: bool = False):
    """Carry a (B, m, m) stack of charts W from ``start`` through the site-pair rows of ``table``.

    A row T = [[A, B], [C, D]] moves the chart W = b a^(-1) of frames (a; b)
    to M_T(W) = (C + D W)(A + B W)^(-1).  Each row of ``table`` is a site
    pair stacked as [X; Y], 4m x 2m, with X and Y free of z, and acts as
    diag(1, E) (X / z + Y), E = z on the ``acted`` rows of the chart and 1
    elsewhere: Q = [X; Y] (1; W) for all B ``points`` at once, one batched
    solve on Q_X / z + Q_Y, then W <- E W.  ``start`` is one m x m chart for
    every point or a (B, m, m) stack of them.  Returns the final stack and,
    with ``keep``, the (rows, B, m, m) denominators of the rows walked; an
    exactly singular one ends the walk with NaN.
    """
    m = start.shape[-1]
    left, right = table[..., :m], table[..., m:]
    z = points[:, None, None]
    inverse = 1.0 / z
    W = np.array(np.broadcast_to(np.asarray(start, dtype=complex), (len(points), m, m)))
    dens = np.empty((len(table),) + W.shape, dtype=complex) if keep else None
    for i in range(len(table)):
        P = _times(right[i], W) + left[i]
        P = P[:, :2 * m] * inverse + P[:, 2 * m:]
        if keep:
            dens[i] = P[:, :m]
        try:
            W = np.linalg.solve(P[:, :m].transpose(0, 2, 1), P[:, m:].transpose(0, 2, 1)).transpose(0, 2, 1)
        except np.linalg.LinAlgError:  # exactly singular: NaN marks it whatever the scale
            if keep:
                dens[i] = np.nan
            return np.full_like(W, np.nan), dens[:i + 1] if keep else None
        W[:, acted] *= z
    return W, dens


@dataclass
class SolutionFrame:
    """A full-rank frame (2L x L, or taller with carried rows) after ``propagate``.

    ``matrix`` has orthonormal columns, and the right factor that the
    renormalization removed is exp(log_scale) * normalizer with
    ||normalizer||_F = 1; the raw frame is matrix @ normalizer * exp(log_scale).
    The split is fixed only up to unit phases on the columns (matrix D,
    D* normalizer for a diagonal unitary D), which leave the spanned plane,
    the raw frame and every quantity read off them unchanged.  Propagated
    from an array of B points, ``z`` is that array and every other field
    gains a leading axis of length B.
    """

    matrix: np.ndarray
    z: complex
    normalizer: np.ndarray
    log_scale: float = 0.0

    def raw(self) -> np.ndarray:
        """Reconstruct the unrenormalized frame (overflows for long hyperbolic runs)."""
        return self.matrix @ self.normalizer * np.exp(self.log_scale)[..., None, None]

    def lform_value(self) -> np.ndarray:
        """The frame's value of the (L, L) form, Phi* L Phi (for the stored matrix)."""
        L = self.matrix.shape[-1]
        return np.swapaxes(self.matrix.conj(), -1, -2) @ mc.lform(L) @ self.matrix


def propagate(zipper, z, upto: int, factory: Optional[TransferFactory] = None,
              start: Optional[np.ndarray] = None) -> SolutionFrame:
    """Propagate a frame through T_1, ..., T_upto, from (1; 1) unless ``start`` is given.

    T_n acts on the last 2L rows of the frame; any rows above them are
    carried along unchanged (the doubled periodic frame carries the identity
    factor of 1 (+) T_n this way).  The frame is column-orthonormalized
    after every step by one QR, as LAPACK returns it, which only removes a
    right factor and therefore leaves the spanned plane unchanged; the
    factor is accumulated as a Frobenius-normalized matrix and a log scale.
    ``transfer_product`` gives the raw frame T_upto ... T_1 (1; 1) as the
    reference.

    ``z`` is one point or a 1-D array of B points; for an array all B frames
    run through the same site loop as one stack, with the normalizer and the
    log scale kept per point, and the result carries a leading axis of B.
    """
    zs = np.asarray(_check_z(z))
    if zs.ndim > 1:
        raise ValidationError(f"z must be a point or a 1-D array, got ndim={zs.ndim}")
    points = zs.reshape(-1, 1, 1)
    L = zipper.L
    phis = (factory or zipper).phi_table(upto)
    first = np.vstack([mc.eye(L)] * 2) if start is None else np.asarray(start, dtype=complex)
    frame = np.repeat(first[None], len(points), axis=0)
    carried = frame.shape[1] - 2 * L
    tau = np.repeat(mc.eye(frame.shape[2])[None], len(points), axis=0)
    log_scale = np.zeros(len(points))
    for n in range(1, upto + 1):
        even = n % 2 == 0  # even T_n(z) = diag(1, z) phi(S_n) diag(1/z, 1)
        if even:
            frame[:, carried:carried + L] /= points
        frame[:, carried:] = phis[n - 1] @ frame[:, carried:]
        if even:
            frame[:, carried + L:] *= points
        frame, R = np.linalg.qr(frame)
        M = R @ tau
        nu = np.linalg.norm(M, axis=(-2, -1))
        if not np.all(np.isfinite(nu) & (nu > 0.0)):
            raise NumericalBreakdownError(f"renormalization factor degenerated at site {n}")
        tau = M / nu[:, None, None]
        log_scale += np.log(nu)
    if zs.ndim == 0:
        return SolutionFrame(frame[0], complex(zs), tau[0], float(log_scale[0]))
    return SolutionFrame(frame, zs, tau, log_scale)


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


def q_form(zipper, z: complex, upto: Optional[int] = None) -> QuadraticForm:
    """Accumulated form Q_n = (T_n ... T_1)* L (T_n ... T_1), on ``site_transfer`` steps.

    Computed both as the direct product and as the telescoped sum
    L + sum_k (T_1 ... T_{2k-1})* P_{2k} (T_{2k-1} ... T_1); the two must
    agree, and their distance is reported in ``product_defect``.
    """
    z = _check_z(z)
    L = zipper.L
    n = upto if upto is not None else zipper.N
    Lf = mc.lform(L)
    T = mc.eye(2 * L)
    Q_sum = Lf.copy()
    for m in range(1, n + 1):
        if m % 2 == 0:
            P = p_matrix(zipper.block(m), z).matrix
            Q_sum = Q_sum + mc.adj(T) @ P @ T
        T = site_transfer(zipper, m, z) @ T
    Q_prod = mc.hermitize(mc.adj(T) @ Lf @ T)
    defect = float(np.linalg.norm(Q_prod - Q_sum, 2))
    return QuadraticForm(mc.hermitize(Q_sum), z, n=n, product_defect=defect)


# -- inhomogeneous solve --------------------------------------------------------

def solve_inhomogeneous(zipper: Zipper, z: complex, xi) -> list:
    """Solve the boundary-value problem (X - z) phi = xi for a finite zipper.

    ``xi`` is a length-N sequence of L x m right-hand blocks.  The forward
    recursion carries the homogeneous frame and a particular accumulation
    through the transfers; the free left datum phi_1 is then pinned by the
    right boundary condition V phi_N = psi_N.  Every transfer is built from
    its site's block (``site_transfer``).  Returns [phi_1, ..., phi_N].
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

    H = np.vstack([mc.eye(L)] * 2)           # homogeneous frame T_n...T_1 (1;1)
    P = np.zeros((2 * L, m), dtype=complex)  # particular accumulation
    homogeneous = [None]
    particular = [None]
    for n in range(1, N + 1):
        S = zipper.block(n) if n % 2 == 0 else None
        T = site_transfer(zipper, n, z) if S is None else transfer_at(S, n, z)
        H = T @ H
        P = T @ P
        if S is not None:
            # transfer form of V psi = z phi + xi on the site pair: the
            # inhomogeneity enters with the opposite sign to the frame term
            binv = np.linalg.inv(S.beta)
            J = mc.join_blocks(-S.delta @ binv / z, mc.eye(L) / z, -binv, np.zeros((L, L)))
            P = P - J @ np.vstack([xi[n - 2], xi[n - 1]])
        homogeneous.append(H.copy())
        particular.append(P.copy())

    V = zipper.boundary_v
    pivot = H[L:] - V @ H[:L]
    if mc.smallest_singular_value(pivot) <= 1e-12 * max(1.0, float(np.linalg.norm(H, 2))):
        raise NumericalBreakdownError(
            "right-boundary pivot is singular although the form positivity forbids it")
    phi1 = np.linalg.solve(pivot, V @ P[:L] - P[L:])

    out = []
    for n in range(1, N + 1):
        frame = homogeneous[n] @ phi1 + particular[n]
        out.append(frame[L:] if n % 2 else frame[:L])
    return out
