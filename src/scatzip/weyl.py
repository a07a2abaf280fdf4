"""Resolvent boundary data and Weyl discs.

For a finite zipper with right boundary V and |z| < 1, the boundary value

    E(z, V) = T(N,0)^(-1) . V*

(the Moebius chart chain of the Pruefer phases, ``transfer.chart_chain``, run
backwards from V* on the inverses of the same site-pair rows, for one z or
an array) lies in the Siegel disc; the Caratheodory-type resolvent matrix
and Green matrix follow as

    F = (E + 1)(E - 1)^(-1) / i,      G = E (1 - E)^(-1) / z .

As V runs over the unitary group, F sweeps a matrix ball (the Weyl surface)
with center and radius operators read off the Cayley transform of the
accumulated quadratic form, read off the frames of ``transfer.propagate``; the
radius shrinks at least like 8/(N (1-|z|^2)^2), which is the limit-point
mechanism making the semi-infinite F independent of the far boundary condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import matrix_core as mc
from .errors import NumericalBreakdownError, ValidationError
from .transfer import TransferFactory, chart_chain, pair_table, propagate, transfer_product
from .zipper import BlockBandedUnitary, SemiInfiniteZipper, Zipper, _boundary_unitary

# Largest relative center-reflection defect ||S(1/conj z) - S(z)*|| / ||S||
# a Weyl disc may carry.
DISC_DEFECT_TOL = 1e-8
# Radius norms below the smallest normal double are reported as breakdowns.
LOG_TINY = float(np.log(np.finfo(float).tiny))
# Factor on the diameter bound 8/(N (1-|z|^2)^2) that limit_f certifies.
LIMIT_SLACK = 2.0
# Most sites limit_f truncates at: its phi table holds 64 L^2 B a site, and
# criterion 4 (tol 1e-4 at |z|^2 = 0.13) takes 105 700.
LIMIT_MAX_SITES = 500_000


def _check_disc_z(z: complex, allow_zero: bool = False) -> complex:
    z = mc.as_point(z)
    if not abs(z) < 1.0:  # also rejects NaN
        raise ValidationError(f"|z| = {abs(z):.6f} must be < 1")
    if z == 0 and not allow_zero:
        raise ValidationError("z = 0 is handled by the exact value F(0) = i")
    return z


def _resolve_v(zipper, v_boundary):
    if v_boundary is None and isinstance(zipper, Zipper) and zipper.flavor == "finite":
        return zipper.boundary_v  # the constructor checked it unitary to the same 1e-9
    if v_boundary is None:
        raise ValidationError("a right boundary unitary V is required")
    return _boundary_unitary("v_boundary", v_boundary, zipper.L)


def _resolve_n(zipper, upto):
    if upto is not None:
        if upto % 2 or upto < 2:
            raise ValidationError(f"the site count must be even and >= 2, got {upto}")
        return upto
    if isinstance(zipper, SemiInfiniteZipper):
        raise ValidationError("a truncation length is required for semi-infinite zippers")
    return zipper.N


def _disc_points(z, allow_zero: bool = False):
    """The checked points of one z or a 1-D array of them, and whether z was one point."""
    zs = np.asarray(z, dtype=complex)
    if zs.ndim > 1:
        raise ValidationError(f"z must be a point or a 1-D array, got ndim={zs.ndim}")
    for w in zs.reshape(-1):
        _check_disc_z(w, allow_zero)
    return zs.reshape(-1), zs.ndim == 0


def e_matrix(zipper, z, v_boundary=None, upto: Optional[int] = None,
             factory: Optional[TransferFactory] = None) -> np.ndarray:
    """Boundary value E in the Siegel disc at one z or a 1-D array, by the inverse-Moebius chain.

    Each inverse site pair maps the closed disc strictly inside itself, so
    the chain is unconditionally stable in N; a singular denominator here
    would contradict the contraction property and is surfaced as a
    numerical breakdown naming the site pair.

    The chain is ``transfer.chart_chain`` on the site pairs k = N/2, ..., 1
    of ``transfer.pair_table``, in the swapped orientation, where the
    inverse of M = [[A, B], [C, D]] in U(L, L) is R(M) = [[D*, -B*], [-C*, A*]]
    and R(M N) = R(N) R(M).  The inverse of the pair at z is then
    (z R(X_k) + R(Y_k)) diag(1/z, 1), a multiple of
    (R(Y_k) / z + R(X_k)) diag(1/z, 1): the rows are [R(Y_k); R(X_k)], acting
    on every row of the chart, and E = chart_chain(rows, z, z V*) / z.  One
    batched SVD checks the denominators after it.
    """
    points, scalar = _disc_points(z)
    N = _resolve_n(zipper, upto)
    V = _resolve_v(zipper, v_boundary)
    L = zipper.L
    pairs = pair_table((factory or zipper).phi_table(N)).reshape(N // 2, 2, 2 * L, 2 * L)
    A, B, C, D = mc.split_blocks(pairs[::-1, ::-1])  # (Y_k, X_k) for k = N/2, ..., 1
    table = np.empty((N // 2, 2, 2 * L, 2 * L), dtype=complex)  # [R(Y_k); R(X_k)]
    table[..., :L, :L], table[..., :L, L:], table[..., L:, :L], table[..., L:, L:] = (
        mc.adj(D), -mc.adj(B), -mc.adj(C), mc.adj(A))
    w = points[:, None, None]
    with np.errstate(all="ignore"):  # a singular step is reported below, by its site pair
        E, dens = chart_chain(table.reshape(N // 2, 4 * L, 2 * L), points, w * mc.adj(V), slice(None), keep=True)
    dens[~np.all(np.isfinite(dens), axis=(-2, -1))] = 0.0  # a non-finite denominator counts as singular
    smallest = np.linalg.svd(dens, compute_uv=False)[..., -1]
    bad = np.flatnonzero(~np.all(smallest > 1e-13, axis=1))
    if len(bad):
        k = N // 2 - bad[0]
        raise NumericalBreakdownError(
            f"C Z + D is numerically singular at site pair {k} (sites {2 * k - 1} and {2 * k})")
    E /= w
    return E[0].copy() if scalar else E


def e_matrix_closed(zipper, z: complex, v_boundary=None, upto: Optional[int] = None) -> np.ndarray:
    """E from the closed form (C - V A)^(-1)(V B - D) of the full transfer product.

    Cross-check route only, on ``transfer_product``, which never reads the phi
    table: the raw product overflows for long hyperbolic runs.
    """
    z = _check_disc_z(z)
    N = _resolve_n(zipper, upto)
    V = _resolve_v(zipper, v_boundary)
    A, B, C, D = mc.split_blocks(transfer_product(zipper, N, z))
    return np.linalg.solve(C - V @ A, V @ B - D)


def f_matrix(zipper, z, v_boundary=None, upto: Optional[int] = None,
             factory: Optional[TransferFactory] = None) -> np.ndarray:
    """Resolvent matrix F = (E + 1)(E - 1)^(-1) / i at one z or a 1-D array; F(0) = i 1 exactly."""
    points, scalar = _disc_points(z, allow_zero=True)
    one = mc.eye(zipper.L)
    F = np.repeat((1j * one)[None], len(points), axis=0)
    inner = points != 0
    if np.any(inner):
        E = e_matrix(zipper, points[inner], v_boundary, upto, factory)
        F[inner] = -1j * np.linalg.solve((E - one).transpose(0, 2, 1), (E + one).transpose(0, 2, 1)).transpose(0, 2, 1)
    return F[0].copy() if scalar else F


def g_matrix(zipper, z, v_boundary=None, upto: Optional[int] = None,
             factory: Optional[TransferFactory] = None) -> np.ndarray:
    """Green matrix G = E (1 - E)^(-1) / z (the site-1 block of the resolvent), at one z or a 1-D array."""
    points, scalar = _disc_points(z)
    E = e_matrix(zipper, points, v_boundary, upto, factory)
    G = np.linalg.solve((mc.eye(zipper.L) - E).transpose(0, 2, 1), E.transpose(0, 2, 1)).transpose(0, 2, 1)
    G /= points[:, None, None]
    return G[0].copy() if scalar else G


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


def _q_tilde(zipper, z: complex, n: int) -> np.ndarray:
    """Cayley transform C* T* L T C of the form of the direct product (test reference)."""
    T = transfer_product(zipper, n, z)
    L = zipper.L
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
        raise NumericalBreakdownError(f"radius at z = {bad:.6g} is not definite with the sign of 1 - |z|")
    t11 = tau[:, :L, :L]
    try:
        G = np.linalg.solve(t11, (V / np.sqrt(w)[:, None, :]) @ mc.adj(V))
        S = -np.linalg.solve(t11, tau[:, :L, L:] + np.linalg.solve(M[:, :L, :L], M[:, :L, L:] @ tau[:, L:, L:]))
    except np.linalg.LinAlgError:
        raise NumericalBreakdownError("the frame normalizer lost rank") from None
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
    points, scalar = _disc_points(z)
    N = _resolve_n(zipper, upto)
    S, G, log_norm = _frame_discs(zipper, np.concatenate([points, 1.0 / points.conj()]), N)
    B = len(points)
    normal = np.isfinite(log_norm) & (log_norm >= LOG_TINY)
    if not np.all(normal):
        bad = int(np.argmin(normal))
        raise NumericalBreakdownError(
            f"radius norm at z = {points[bad % B]:.6g} is not a normal float: log ||R|| = {log_norm[bad]:.2f}")
    R = mc.hermitize(np.exp(log_norm)[:, None, None] * (G @ mc.adj(G)))
    center, reflected = S[:B], S[B:]
    defect = (np.linalg.norm(reflected - mc.adj(center), 2, axis=(-2, -1))
              / np.linalg.norm(center, 2, axis=(-2, -1)))
    if not np.all(defect <= DISC_DEFECT_TOL):
        bad = int(np.argmin(defect <= DISC_DEFECT_TOL))
        raise NumericalBreakdownError(
            f"center reflection defect {defect[bad]:.3e} at z = {points[bad]:.6g} exceeds {DISC_DEFECT_TOL:.0e}")
    discs = [WeylDisc(complex(w), N, center[i], R[i], R[B + i], float(defect[i])) for i, w in enumerate(points)]
    return discs[0] if scalar else discs


def disc_chart(f_value, disc: WeylDisc):
    """Chart coordinates W = R^(-1/2) (F - S) (-R')^(-1/2) and their unitarity defect.

    W is unitary exactly when F lies on the Weyl surface; strictly
    contractive W means F is inside the open disc.

    The chart resolves F only while the disc is wider than the rounding of
    F.  F is known to about eps ||F||, and an error e in F - S moves W by up
    to ||e|| / r with r = sqrt(lambda_min(R) lambda_min(R')), while ||W|| <= 1
    on the closed disc.  So W carries no correct digit once
    r <= eps ||F||, and a numerical breakdown is raised there; r is read off
    the computed smallest eigenvalues, so a radius that rounds to zero or
    below counts as r = 0.
    """
    F = mc.as_cmatrix(f_value)
    smallest = [float(np.linalg.eigvalsh(R)[0]) for R in (disc.radius_left, disc.radius_right)]
    r = float(np.sqrt(max(smallest[0], 0.0) * max(smallest[1], 0.0)))
    resolution = np.finfo(float).eps * float(np.linalg.norm(F, 2))
    if not r > resolution:
        raise NumericalBreakdownError(
            f"disc radius {r:.3e} at z = {disc.z:.6g} is below the resolution {resolution:.3e} of F")
    left = mc.hermitian_inv_sqrt(disc.radius_left, tol=1e-300)
    right = mc.hermitian_inv_sqrt(disc.radius_right, tol=1e-300)
    W = left @ (F - disc.center) @ right
    return W, mc.unitary_defect(W)


def disc_membership(f_value, disc: WeylDisc, defect_threshold: float = 1e-6) -> np.ndarray:
    """The unitary W parametrizing a surface point; a ValidationError off-surface."""
    W, defect = disc_chart(f_value, disc)
    if defect > defect_threshold:
        raise ValidationError(f"chart unitarity defect {defect:.3e} > {defect_threshold:.1e}")
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
    z = mc.as_point(z)
    if not (0 < abs(z) < np.inf and abs(abs(z) - 1.0) >= 1e-14):  # also rejects NaN
        raise ValidationError(f"radius norms need 0 < |z| != 1 and finite, got z = {z}")
    try:
        log_norm = float(_frame_discs(zipper, np.array([z]), upto, factory)[2][0])
    except NumericalBreakdownError:
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


def limit_f(zipper: SemiInfiniteZipper, z: complex, tol: float) -> LimitF:
    """Evaluate the limit-point boundary value F to within a certified radius.

    The truncation length is chosen from the universal radius bound,
    N >= 8 / (tol (1 - |z|^2)^2), and F is evaluated there with V = 1; an N
    over LIMIT_MAX_SITES is refused before any site is drawn.  The
    certified error is the slacked diameter bound LIMIT_SLACK * 8/(N (1-|z|^2)^2),
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
    if not 0 < tol < np.inf:  # also rejects NaN
        raise ValidationError(f"tol must lie in (0, inf), got {tol}")
    gap = float(1.0 - abs(z) ** 2) ** 2
    n_wanted = 8.0 / float(tol) / gap  # each float division overflows to inf, never divides by 0
    if not n_wanted <= LIMIT_MAX_SITES:
        raise ValidationError(f"tol {tol:g} at |z| = {abs(z):.10g} needs N = {n_wanted:.4g} sites, "
                              f"over the cap of {LIMIT_MAX_SITES}")
    n_used = int(np.ceil(n_wanted))
    n_used += n_used % 2
    F = f_matrix(zipper, z, v_boundary=mc.eye(zipper.L), upto=n_used)
    certified = LIMIT_SLACK * 8.0 / (n_used * gap)
    posterior = log_posterior = None
    if z != 0:
        try:
            lr, lr_refl = _frame_discs(zipper, np.array([z, 1.0 / np.conj(z)]), n_used)[2]
        except NumericalBreakdownError:
            lr = lr_refl = np.nan
        if np.isfinite(lr) and np.isfinite(lr_refl):
            log_posterior = 0.5 * float(lr + lr_refl)
            floor = np.finfo(float).eps * float(np.linalg.norm(F, 2))
            posterior = max(float(np.exp(log_posterior)), floor)
    return LimitF(F, certified, n_used, LIMIT_SLACK, posterior, log_posterior)
