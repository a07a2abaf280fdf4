"""Scattering blocks and their transfer-matrix image.

A scattering block is a 2L x 2L unitary whose upper-right L x L block is
invertible, i.e. an effective scattering event on 2L channels.  Every such
unitary has the unique normal form

    S(alpha, U, V) = [[ alpha,                 (1 - alpha alpha*)^(1/2) U ],
                      [ V (1 - alpha* alpha)^(1/2),      -V alpha* U      ]]

with ||alpha|| < 1 and U, V unitary gauges.  The map ``phi`` sends these
blocks bijectively onto the Lorentz group U(L, L), converting the scattering
relation into a site-to-site propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matrix_core as mc
from .errors import ValidationError

# Smallest singular value of beta below which an event counts as ineffective.
BETA_THRESHOLD = 1e-8


def _check_unitary(U, tol, what="matrix"):
    U = mc.as_cmatrix(U)
    defect = mc.unitary_defect(U)
    if defect > tol:
        raise ValidationError(f"{what} has unitarity defect {defect:.3e} > {tol:.1e}")
    return U


def normal_form(alpha, u_gauge, v_gauge):
    """The blocks (beta, gamma, delta) of S(alpha, U, V).

    Takes three L x L matrices or three (n, L, L) stacks; a stack runs
    through one batched eigh per square root and gives each block exactly
    what it gives alone.
    """
    one = mc.eye(alpha.shape[-1])
    beta = mc.hermitian_sqrt(one - alpha @ mc.adj(alpha)) @ u_gauge
    gamma = v_gauge @ mc.hermitian_sqrt(one - mc.adj(alpha) @ alpha)
    delta = -v_gauge @ mc.adj(alpha) @ u_gauge
    return beta, gamma, delta


@dataclass(frozen=True)
class ScatteringBlock:
    """One effective scattering event, stored in (alpha, U, V) normal form.

    The assembled 2L x 2L matrix and the four blocks are cached at
    construction (two eigh calls, see ``normal_form``).  Instances are
    immutable and safe to share between threads.  Zippers do not hold
    blocks: they keep one (alpha, U, V) stack and one stack of block
    matrices per zipper (``normal_form`` and ``phi`` of a stack), and
    ``block(n)`` builds a ScatteringBlock from one row on request, for the
    per-block reference routes.
    """

    alpha: np.ndarray
    u_gauge: np.ndarray
    v_gauge: np.ndarray
    beta: np.ndarray = field(init=False, repr=False)
    gamma: np.ndarray = field(init=False, repr=False)
    delta: np.ndarray = field(init=False, repr=False)
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        alpha = mc.as_cmatrix(self.alpha)
        u = mc.as_cmatrix(self.u_gauge)
        v = mc.as_cmatrix(self.v_gauge)
        if not alpha.shape == u.shape == v.shape == alpha.shape[::-1]:
            raise ValidationError("alpha, u_gauge, v_gauge must share the same L x L shape")
        beta, gamma, delta = normal_form(alpha, u, v)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "u_gauge", u)
        object.__setattr__(self, "v_gauge", v)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "matrix", mc.join_blocks(alpha, beta, gamma, delta))

    @property
    def L(self) -> int:
        return self.alpha.shape[0]


def build_block(alpha, u_gauge, v_gauge, tol: float = mc.DEFAULT_TOL) -> ScatteringBlock:
    """Assemble S(alpha, U, V) from a strict contraction and two unitary gauges."""
    alpha = mc.as_cmatrix(alpha)
    norm = float(np.linalg.norm(alpha, 2))
    if norm >= 1.0 - tol:
        raise ValidationError(f"||alpha|| = {norm:.6f} is not < 1")
    u = _check_unitary(u_gauge, tol, "u_gauge")
    v = _check_unitary(v_gauge, tol, "v_gauge")
    return ScatteringBlock(alpha, u, v)


def decompose_block(S, tol: float = mc.DEFAULT_TOL):
    """Recover the unique (alpha, U, V) with S = S(alpha, U, V).

    Raises ValidationError when the upper-right block is numerically singular,
    which signals an ineffective (decoupling) scattering event.
    """
    S = _check_unitary(S, tol, "scattering matrix")
    alpha, beta, gamma, _ = mc.split_blocks(S)
    if mc.smallest_singular_value(beta) <= BETA_THRESHOLD:
        raise ValidationError("upper-right block is singular: event is not effective")
    # beta = (1 - alpha alpha*)^(1/2) U and gamma = V (1 - alpha* alpha)^(1/2),
    # so U and V are the polar factors of beta and gamma.
    u = mc.polar_unitary(beta, tol=BETA_THRESHOLD)
    v = mc.polar_unitary(gamma, tol=BETA_THRESHOLD)
    return alpha.copy(), u, v


def _matrix_of(S) -> np.ndarray:
    if isinstance(S, ScatteringBlock):
        return S.matrix
    return mc.as_cstack(S)


def phi(S, tol: float = 1e-12) -> np.ndarray:
    """Map a scattering block to its transfer matrix in U(L, L).

    phi([[a, b], [c, d]]) = [[c - d b^(-1) a, d b^(-1)], [-b^(-1) a, b^(-1)]].
    Unitarity is not checked, only an invertible b.  Also accepts a
    (n, 2L, 2L) stack of matrices, mapped in one batched call with the same
    result per matrix as one call each.
    """
    a, b, c, d = mc.split_blocks(_matrix_of(S))
    if mc.smallest_singular_value(b) <= tol:
        raise ValidationError("upper-right block is singular")
    binv_a = np.linalg.solve(b, a)
    binv = np.linalg.inv(b)
    d_binv = d @ binv
    return mc.join_blocks(c - d_binv @ a, d_binv, -binv_a, binv)


def phi_inverse(T, tol: float = mc.DEFAULT_TOL) -> ScatteringBlock:
    """Inverse of phi: rebuild the scattering block of a U(L, L) matrix.

    phi^(-1)([[A, B], [C, D]]) = [[-D^(-1) C, D^(-1)], [A - B D^(-1) C, B D^(-1)]].
    """
    T = mc.as_cmatrix(T)
    L = T.shape[0] // 2
    defect = float(np.linalg.norm(mc.adj(T) @ mc.lform(L) @ T - mc.lform(L), 2))
    if defect > max(tol, 1e-9 * np.linalg.norm(T, 2) ** 2):
        raise ValidationError(f"T does not conserve the (L, L) form, defect {defect:.3e}")
    A, B, C, D = mc.split_blocks(T)
    if mc.smallest_singular_value(D) <= tol:
        raise ValidationError("lower-right block is singular")
    dinv_c = np.linalg.solve(D, C)
    dinv = np.linalg.inv(D)
    S = mc.join_blocks(-dinv_c, dinv, A - B @ dinv_c, B @ dinv)
    return ScatteringBlock(*decompose_block(S, tol=1e-8))


def boundary_block(u, v, tol: float = mc.DEFAULT_TOL) -> np.ndarray:
    """Antidiagonal unitary [[0, U], [V, 0]] of a degenerate boundary scatterer."""
    u = _check_unitary(u, tol, "u")
    v = _check_unitary(v, tol, "v")
    L = u.shape[0]
    S = np.zeros((2 * L, 2 * L), dtype=complex)
    S[:L, L:] = u
    S[L:, :L] = v
    return S
