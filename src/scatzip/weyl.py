"""Resolvent boundary data and Weyl discs.

For a finite zipper with right boundary V and |z| < 1, the boundary value

    E(z, V) = T(N,0)^(-1) . V*

(iterated inverse Moebius action of the transfer matrices on V*) lies in the
Siegel disc; the Caratheodory-type resolvent matrix and Green matrix follow as

    F = (E + 1)(E - 1)^(-1) / i,      G = E (1 - E)^(-1) / z .

As V runs over the unitary group, F sweeps a matrix ball (the Weyl surface)
with center and radius operators read off the Cayley transform of the
accumulated quadratic form; the radius shrinks at least like 8/(N (1-|z|^2)^2),
which is the limit-point mechanism making the semi-infinite F independent of
the far boundary condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import matrix_core as mc
from .errors import (
    DegenerateFrameError,
    DiscBreakdownError,
    NotOnSurfaceError,
    SingularBlockError,
    SingularDenominatorError,
    ValidationError,
    ZeroZError,
)
from .transfer import TransferFactory, propagate
from .zipper import BlockBandedUnitary, SemiInfiniteZipper, Zipper

# Largest relative center-reflection defect ||S(1/conj z) - S(z)*|| / ||S||
# a Weyl disc may carry.
DISC_DEFECT_TOL = 1e-8
# Radius norms below the smallest normal double are reported as breakdowns.
LOG_TINY = float(np.log(np.finfo(float).tiny))


def _check_disc_z(z: complex, allow_zero: bool = False) -> complex:
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValidationError(f"|z| = {abs(z):.6f} must be < 1")
    if z == 0 and not allow_zero:
        raise ZeroZError("z = 0 is handled by the exact value F(0) = i")
    return z


def _resolve_v(zipper, v_boundary):
    if v_boundary is not None:
        v = mc.as_cmatrix(v_boundary)
    elif isinstance(zipper, Zipper) and zipper.boundary_v is not None:
        v = zipper.boundary_v
    else:
        raise ValidationError("a right boundary unitary V is required")
    if mc.unitary_defect(v) > 1e-9:
        raise ValidationError("V must be unitary")
    return v


def _resolve_n(zipper, upto):
    if upto is not None:
        if upto % 2:
            raise ValidationError("the site count must be even")
        return upto
    if isinstance(zipper, SemiInfiniteZipper):
        raise ValidationError("a truncation length is required for semi-infinite zippers")
    return zipper.N


def e_matrix(zipper, z: complex, v_boundary=None, upto: Optional[int] = None,
             factory: Optional[TransferFactory] = None) -> np.ndarray:
    """Boundary value E in the Siegel disc, by the stepwise inverse-Moebius chain.

    Each factor maps the closed disc into itself (strictly inside for even
    steps), so the chain is unconditionally stable in N; a singular
    denominator here would contradict the contraction property and is
    surfaced as a numerical breakdown naming the site.

    The chain steps on the blocks of T_n^(-1) = [[z A*, -C*], [-B*, D*/z]]
    ((A, B, C, D) the blocks of phi_n, z -> 1 on odd sites), taken for all
    sites at once off the zipper's phi table:  den = C' Z + D' and
    Z = (A' Z + B') den^(-1).  The denominators are kept and checked by one
    batched SVD after the loop.
    """
    z = _check_disc_z(z)
    N = _resolve_n(zipper, upto)
    V = _resolve_v(zipper, v_boundary)
    A, B, C, D = mc.split_blocks((factory or TransferFactory(zipper)).phi_table(N))
    A, B, C, D = mc.adj(A), -mc.adj(C), -mc.adj(B), mc.adj(D)
    A[1::2] = z * A[1::2]   # even sites n = 2, 4, ... are rows 1, 3, ...
    D[1::2] = D[1::2] / z
    Z = mc.adj(V)
    dens = np.zeros((N,) + Z.shape, dtype=complex)
    last = 0  # the last row the chain reached
    with np.errstate(all="ignore"):  # a singular step is reported below, by its site
        for last in range(N - 1, -1, -1):
            dens[last] = C[last] @ Z + D[last]
            try:
                Z = np.linalg.solve(dens[last].T, (A[last] @ Z + B[last]).T).T
            except np.linalg.LinAlgError:
                dens[last] = np.nan  # exactly singular
                break
    _check_denominators(dens[last:], last, tol=1e-13)
    return Z


def _check_denominators(dens: np.ndarray, first: int, tol: float):
    """SingularDenominatorError at the first site, in chain order, whose C Z + D is not
    finite or has a singular value <= tol; row i of ``dens`` is site first + i + 1."""
    finite = np.all(np.isfinite(dens), axis=(-2, -1))
    smallest = np.zeros(len(dens))
    smallest[finite] = np.linalg.svd(dens[finite], compute_uv=False)[:, -1]
    bad = np.flatnonzero(~(smallest > tol))
    if len(bad):
        raise SingularDenominatorError(f"C Z + D is numerically singular at site {first + bad[-1] + 1}")


def e_matrix_closed(zipper, z: complex, v_boundary=None, upto: Optional[int] = None) -> np.ndarray:
    """E from the closed form (C - V A)^(-1)(V B - D) of the full transfer product.

    Cross-check route only: the raw product overflows for long hyperbolic runs.
    """
    z = _check_disc_z(z)
    N = _resolve_n(zipper, upto)
    V = _resolve_v(zipper, v_boundary)
    A, B, C, D = mc.split_blocks(TransferFactory(zipper).product(N, z))
    return np.linalg.solve(C - V @ A, V @ B - D)


def _f_from_e(E: np.ndarray) -> np.ndarray:
    one = mc.eye(E.shape[0])
    return -1j * np.linalg.solve((E - one).T, (E + one).T).T


def _g_from_e(E: np.ndarray, z: complex) -> np.ndarray:
    one = mc.eye(E.shape[0])
    return np.linalg.solve((one - E).T, E.T).T / z


def f_matrix(zipper, z: complex, v_boundary=None, upto: Optional[int] = None,
             factory: Optional[TransferFactory] = None) -> np.ndarray:
    """Resolvent matrix F = (E + 1)(E - 1)^(-1) / i; F(0) = i 1 exactly."""
    z = complex(z)
    if z == 0:
        return 1j * mc.eye(zipper.L)
    return _f_from_e(e_matrix(zipper, z, v_boundary, upto, factory))


def g_matrix(zipper, z: complex, v_boundary=None, upto: Optional[int] = None,
             factory: Optional[TransferFactory] = None) -> np.ndarray:
    """Green matrix G = E (1 - E)^(-1) / z (the site-1 block of the resolvent)."""
    z = _check_disc_z(z)
    return _g_from_e(e_matrix(zipper, z, v_boundary, upto, factory), z)


@dataclass
class ResolventPoint:
    """The triple (E, F, G) of boundary resolvent data at one disc point.

    E lies in the Siegel disc, F has positive imaginary part, and the two are
    linked by F = (E + 1)(E - 1)^(-1) / i and G = E (1 - E)^(-1) / z.
    """

    z: complex
    e_value: np.ndarray
    f_value: np.ndarray
    g_value: np.ndarray


def resolvent_point(zipper, z: complex, v_boundary=None, upto: Optional[int] = None) -> ResolventPoint:
    """E, F, G at one point, from a single inverse-Moebius chain."""
    z = _check_disc_z(z)
    E = e_matrix(zipper, z, v_boundary, upto)
    return ResolventPoint(z, E, _f_from_e(E), _g_from_e(E, z))


def dense_f(op: BlockBandedUnitary, z: complex) -> np.ndarray:
    """Dense oracle for F: i pi_1* (X + z)(X - z)^(-1) pi_1 by direct solve."""
    X = op.to_dense()
    L = op.L
    pi1 = np.zeros((op.dim, L), dtype=complex)
    pi1[:L] = mc.eye(L)
    sol = np.linalg.solve(X - z * np.eye(op.dim), (X + z * np.eye(op.dim)) @ pi1)
    return 1j * (mc.adj(pi1) @ sol)


def dense_g(op: BlockBandedUnitary, z: complex) -> np.ndarray:
    """Dense oracle for G: pi_1* (X - z)^(-1) pi_1 by direct solve."""
    X = op.to_dense()
    L = op.L
    pi1 = np.zeros((op.dim, L), dtype=complex)
    pi1[:L] = mc.eye(L)
    return mc.adj(pi1) @ np.linalg.solve(X - z * np.eye(op.dim), pi1)


# -- Weyl discs ----------------------------------------------------------------

@dataclass
class WeylDisc:
    """Center and radius operators of the disc swept by F as V varies.

    radius_left is the positive R at z, radius_right the positive -R at the
    reflected point 1/conj(z); the surface is
    center + radius_left^(1/2) W radius_right^(1/2) over unitary W.
    identity_defect is the relative reflection defect
    ||S(1/conj z) - S(z)*|| / ||S(z)|| of the center.
    """

    z: complex
    n: int
    center: np.ndarray
    radius_left: np.ndarray
    radius_right: np.ndarray
    identity_defect: float

    def radius_norms(self):
        return (float(np.linalg.norm(self.radius_left, 2)),
                float(np.linalg.norm(self.radius_right, 2)))

    def radius_bound(self) -> float:
        """The universal bound 8 / (N (1 - |z|^2)^2) on both radius norms."""
        return 8.0 / (self.n * (1.0 - abs(self.z) ** 2) ** 2)


def _q_tilde(factory: TransferFactory, z: complex, n: int) -> np.ndarray:
    """Cayley transform C* T* L T C of the form of the direct product (test reference)."""
    T = factory.product(n, z)
    L = factory.L
    C = mc.cayley(L)
    return mc.hermitize(mc.adj(C) @ mc.adj(T) @ mc.lform(L) @ T @ C)


def _frame_discs(zipper, points: np.ndarray, upto: int,
                 factory: Optional[TransferFactory] = None):
    """Centers S, unit-norm radius factors G and log ||R|| at an array of |z| != 1.

    One propagation from the Cayley frame C stores T C = Q tau exp(s) per
    point, so Q~ = C* T* L T C = exp(2s) tau* M tau with M = Q* L Q.  Since
    tau is upper triangular, Q~11 = exp(2s) tau11* M11 tau11, and with
    sign = +1 inside the disc and -1 at reflected points
        S = -tau11^(-1) (tau12 + M11^(-1) M12 tau22),
        sign R = exp(-2s) G G*,   G = tau11^(-1) (sign M11)^(-1/2).
    The definiteness of R is certified on M11, a compression of the unitary
    Hermitian M, and never on the assembled R, whose eigenvalues can spread
    past floating resolution near the circle.  G comes back scaled to unit
    2-norm, so sign R = exp(log_norm) G G*.
    """
    L = zipper.L
    frame = propagate(zipper, points, upto, factory=factory, start=mc.cayley(L))
    Q, tau = frame.matrix, frame.normalizer
    M = mc.hermitize(mc.adj(Q) @ mc.lform(L) @ Q)
    sign = np.where(np.abs(points) < 1.0, 1.0, -1.0)[:, None, None]
    w, V = np.linalg.eigh(sign * M[:, :L, :L])
    if not np.all(w > 0.0):
        bad = points[np.argmin(w.min(axis=-1))]
        raise SingularBlockError(f"radius at z = {bad:.6g} is not definite with the sign of 1 - |z|")
    t11 = tau[:, :L, :L]
    try:
        G = np.linalg.solve(t11, (V / np.sqrt(w)[:, None, :]) @ mc.adj(V))
        S = -np.linalg.solve(t11, tau[:, :L, L:] + np.linalg.solve(M[:, :L, :L], M[:, :L, L:] @ tau[:, L:, L:]))
    except np.linalg.LinAlgError:
        raise SingularBlockError("the frame normalizer lost rank") from None
    top = np.linalg.norm(G, 2, axis=(-2, -1))
    return S, G / top[:, None, None], 2.0 * (np.log(top) - frame.log_scale)


def radial_central(zipper, z, upto: Optional[int] = None):
    """Weyl discs at one z or a 1-D array of them, read off one frame propagation.

    The frames run from the Cayley frame through the points z and their
    reflections 1/conj(z) in one batch (see ``_frame_discs``); a scalar z
    gives one WeylDisc, an array a list.  A radius whose norm underflows
    and a center whose reflection defect exceeds DISC_DEFECT_TOL are
    numerical breakdowns, and so is a radius that fails to be definite.
    """
    zs = np.asarray(z, dtype=complex)
    if zs.ndim > 1:
        raise ValidationError(f"z must be a point or a 1-D array, got ndim={zs.ndim}")
    points = np.array([_check_disc_z(w) for w in zs.reshape(-1)], dtype=complex)
    N = _resolve_n(zipper, upto)
    S, G, log_norm = _frame_discs(zipper, np.concatenate([points, 1.0 / points.conj()]), N)
    B = len(points)
    normal = np.isfinite(log_norm) & (log_norm >= LOG_TINY)
    if not np.all(normal):
        bad = int(np.argmin(normal))
        raise DiscBreakdownError(
            f"radius norm at z = {points[bad % B]:.6g} is not a normal float: log ||R|| = {log_norm[bad]:.2f}")
    R = mc.hermitize(np.exp(log_norm)[:, None, None] * (G @ mc.adj(G)))
    center, reflected = S[:B], S[B:]
    defect = (np.linalg.norm(reflected - mc.adj(center), 2, axis=(-2, -1))
              / np.linalg.norm(center, 2, axis=(-2, -1)))
    if not np.all(defect <= DISC_DEFECT_TOL):
        bad = int(np.argmin(defect <= DISC_DEFECT_TOL))
        raise DiscBreakdownError(
            f"center reflection defect {defect[bad]:.3e} at z = {points[bad]:.6g} exceeds {DISC_DEFECT_TOL:.0e}")
    discs = [WeylDisc(complex(w), N, center[i], R[i], R[B + i], float(defect[i])) for i, w in enumerate(points)]
    return discs[0] if zs.ndim == 0 else discs


def disc_chart(f_value, disc: WeylDisc):
    """Chart coordinates W = R^(-1/2) (F - S) (-R')^(-1/2) and their unitarity defect.

    W is unitary exactly when F lies on the Weyl surface; strictly
    contractive W means F is inside the open disc.

    The chart resolves F only while the disc is wider than the rounding of
    F.  F is known to about eps ||F||, and an error e in F - S moves W by up
    to ||e|| / r with r = sqrt(lambda_min(R) lambda_min(R')), while ||W|| <= 1
    on the closed disc.  So W carries no correct digit once
    r <= eps ||F||, and DiscBreakdownError is raised there; r is read off
    the computed smallest eigenvalues, so a radius that rounds to zero or
    below counts as r = 0.
    """
    F = mc.as_cmatrix(f_value)
    smallest = [float(np.linalg.eigvalsh(R)[0]) for R in (disc.radius_left, disc.radius_right)]
    r = float(np.sqrt(max(smallest[0], 0.0) * max(smallest[1], 0.0)))
    resolution = np.finfo(float).eps * float(np.linalg.norm(F, 2))
    if not r > resolution:
        raise DiscBreakdownError(
            f"disc radius {r:.3e} at z = {disc.z:.6g} is below the resolution {resolution:.3e} of F")
    left = mc.hermitian_inv_sqrt(disc.radius_left, tol=1e-300)
    right = mc.hermitian_inv_sqrt(disc.radius_right, tol=1e-300)
    W = left @ (F - disc.center) @ right
    return W, mc.unitary_defect(W)


def disc_membership(f_value, disc: WeylDisc, defect_threshold: float = 1e-6) -> np.ndarray:
    """The unitary W parametrizing a surface point; NotOnSurfaceError off-surface."""
    W, defect = disc_chart(f_value, disc)
    if defect > defect_threshold:
        raise NotOnSurfaceError(f"chart unitarity defect {defect:.3e} > {defect_threshold:.1e}")
    return W


# -- semi-infinite limit ---------------------------------------------------------

def log_radius_norm(zipper, z: complex, upto: int,
                    factory: Optional[TransferFactory] = None) -> Optional[float]:
    """log ||R|| at z (|z| != 1) via the renormalized frame propagation.

    Works far beyond the direct-product overflow threshold: the norm is read
    as 2 (log sigma_max(G) - s) off the frame read of ``_frame_discs``, so it
    stays finite where R itself underflows.  Returns None if the frame or
    the form degenerates below floating resolution.
    """
    z = complex(z)
    if z == 0 or abs(abs(z) - 1.0) < 1e-14:
        raise ValidationError("radius norms need 0 < |z| != 1")
    try:
        log_norm = float(_frame_discs(zipper, np.array([z]), upto, factory)[2][0])
    except (DegenerateFrameError, SingularBlockError):
        return None
    return log_norm if np.isfinite(log_norm) else None


@dataclass
class LimitF:
    """Semi-infinite resolvent boundary value with a certified error radius."""

    f_value: np.ndarray
    certified_error: float
    n_used: int
    slack: float
    posterior_error: Optional[float]
    log_posterior_error: Optional[float]


def limit_f(zipper: SemiInfiniteZipper, z: complex, tol: float, slack: float = 2.0) -> LimitF:
    """Evaluate the limit-point boundary value F to within a certified radius.

    The truncation length is chosen from the universal radius bound,
    N >= 8 / (tol (1 - |z|^2)^2), and F is evaluated there with V = 1.  The
    certified error is the slacked diameter bound slack * 8/(N (1-|z|^2)^2),
    which dominates ||F_N(V) - F_N(V')|| for every pair of boundary
    conditions.  The a-posteriori radius sqrt(||R|| ||R'||) is reported
    alongside: log_posterior_error = (log ||R|| + log ||R'||) / 2 is finite
    at any N, and posterior_error is its exponential floored at eps ||F||
    (the radius itself underflows once the transfer cocycle is strongly
    hyperbolic, and roundoff bounds any certificate from below).  It
    bounds the distance ||F_N(V) - S|| from the disc center, while the
    spread between two boundary conditions can reach twice that value.
    Both radii come from one frame propagation over z and 1/conj(z); if
    it breaks down, the a-posteriori fields stay None.
    """
    z = _check_disc_z(z, allow_zero=True)
    if tol <= 0:
        raise ValidationError("tol must be positive")
    gap = (1.0 - abs(z) ** 2) ** 2
    n_used = int(np.ceil(8.0 / (tol * gap)))
    n_used += n_used % 2
    fac = TransferFactory(zipper)
    F = f_matrix(zipper, z, v_boundary=mc.eye(zipper.L), upto=n_used, factory=fac)
    certified = slack * 8.0 / (n_used * gap)
    posterior = log_posterior = None
    if z != 0:
        try:
            lr, lr_refl = _frame_discs(zipper, np.array([z, 1.0 / np.conj(z)]), n_used, fac)[2]
        except (DegenerateFrameError, SingularBlockError):
            lr = lr_refl = np.nan
        if np.isfinite(lr) and np.isfinite(lr_refl):
            log_posterior = 0.5 * float(lr + lr_refl)
            floor = np.finfo(float).eps * float(np.linalg.norm(F, 2))
            posterior = max(float(np.exp(log_posterior)), floor)
    return LimitF(F, certified, n_used, slack, posterior, log_posterior)
