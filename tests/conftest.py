import numpy as np
import pytest

from scatzip import ensembles, matrix_core as mc, measures as ms
from scatzip.errors import ValidationError
from scatzip.scattering import phi


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unitary(rng, L):
    return ensembles.random_unitary(rng, L)


def random_disc_point(rng, rmax=0.9):
    return rmax * np.sqrt(rng.uniform(0.01, 1.0)) * np.exp(2j * np.pi * rng.uniform())


def transfer_inverse_at(block, n, z):
    """Reference inverse of ``transfer.transfer_at``, by the form identity T^(-1) = L (T^{1/conj z})* L:
    [[z A*, -C*], [-B*, D*/z]] for even n and [[A*, -C*], [-B*, D*]] for odd n,
    with (A, B, C, D) the blocks of phi(S)."""
    A, B, C, D = mc.split_blocks(phi(block))
    if n % 2:
        return mc.join_blocks(mc.adj(A), -mc.adj(C), -mc.adj(B), mc.adj(D))
    return mc.join_blocks(z * mc.adj(A), -mc.adj(C), -mc.adj(B), mc.adj(D) / z)


def sequential_orthonormal_step(mu, stacks, n, exponent):
    """Reference for ``measures._orthonormal_step``, with the same arguments and
    effect: each family on its own runs modified Gram-Schmidt, two passes that
    each project out one finished polynomial at a time, then the same Hermitian
    positive normalizer; row n is written only if both families reach the
    tolerance."""
    coeffs, values, weighted = stacks
    L, X = coeffs.shape[2:4]
    smallest, finished = [], []
    for family, e in enumerate((exponent, -exponent)):
        f_coeffs = np.zeros((L, X, L), dtype=complex)
        f_coeffs[:, X // 2 + e] = mc.eye(L)
        f_values = mc.eye(L)[:, None, :] * np.power(mu.atoms, e)[:, None]
        for _ in range(2):
            for k in range(n):
                c = ms._pair(f_values, weighted[family, k])
                f_coeffs -= np.einsum("ab,bxc->axc", c, coeffs[family, k])
                f_values -= np.einsum("ab,bxc->axc", c, values[family, k])
        w_f = np.einsum("jab,cjb->jac", mu.weights, f_values.conj())  # W_j F_j*
        w, V = np.linalg.eigh(mc.hermitize(ms._pair(f_values, w_f)))
        smallest.append(w[0])
        if w[0] >= ms.GRAM_DEGENERACY_TOL:
            R = mc.hermitize((V / np.sqrt(w)) @ mc.adj(V))
            finished.append((np.einsum("ab,bxc->axc", R, f_coeffs), np.einsum("ab,bxc->axc", R, f_values)))
    if len(finished) == 2:
        for family, (c_row, v_row) in enumerate(finished):
            coeffs[family, n], values[family, n] = c_row, v_row
            weighted[family, n] = np.einsum("jab,cjb->jac", mu.weights, v_row.conj())
    return np.array(smallest)


def per_site_prufer(zipper, z):
    """Reference for ``oscillation.prufer`` and ``prufer_periodic``: the chart chain
    with one Moebius step per site.  Odd sites move W to M_phi(W), even sites act
    as diag(1, E) phi diag(E^(-1), 1), W <- E M_phi(W E), with E = z on the acted
    chart coordinates (all of them for a finite zipper, the acted lower block of
    the doubled periodic chart) and 1 elsewhere."""
    points = np.atleast_1d(np.asarray(z, dtype=complex))
    L = zipper.L
    phis = zipper.phi_table(zipper.N)
    if zipper.flavor == "finite":
        table, start, right, acted = phis, mc.eye(L), mc.adj(zipper.boundary_v), slice(None)
    else:
        table = np.zeros((len(phis), 4 * L, 4 * L), dtype=complex)
        table[:, :L, :L] = table[:, 2 * L:3 * L, 2 * L:3 * L] = mc.eye(L)
        rows = np.r_[L:2 * L, 3 * L:4 * L]
        table[:, rows[:, None], rows] = phis
        start = right = np.block([[np.zeros((L, L)), mc.eye(L)], [mc.eye(L), np.zeros((L, L))]])
        acted = slice(L, 2 * L)
    m = start.shape[-1]
    e = np.ones((len(points), 1, m), dtype=complex)
    e[:, 0, acted] = points[:, None]
    W = np.repeat(start[None].astype(complex), len(points), axis=0)
    for i, T in enumerate(table):
        P = T[:, m:] @ (W * e if i % 2 else W) + T[:, :m]
        W = np.linalg.solve(P[:, :m].transpose(0, 2, 1), P[:, m:].transpose(0, 2, 1)).transpose(0, 2, 1)
        if i % 2:
            W *= e.transpose(0, 2, 1)
    W = W @ right
    return W[0] if np.ndim(z) == 0 else W


class HandBuiltTable:
    """Stands in for a TransferFactory: serves a given phi table."""

    def __init__(self, table):
        self.table = table

    def phi_table(self, upto):
        return self.table[:upto]


def checkerboard_sum(T1, T2) -> np.ndarray:
    """Block interleaving [[A,0,B,0],[0,A',0,B'],[C,0,D,0],[0,C',0,D']].

    Multiplicative: (T (+) T')(S (+) S') = (TS) (+) (T'S'), and it sends the
    pair of signature forms to the doubled signature form.
    """
    T1, T2 = mc.as_cmatrix(T1), mc.as_cmatrix(T2)
    if T1.shape != T2.shape:
        raise ValidationError(f"shapes {T1.shape} and {T2.shape} differ")
    A, B, C, D = mc.split_blocks(T1)
    A2, B2, C2, D2 = mc.split_blocks(T2)
    Z = np.zeros_like(A)
    return np.block([[A, Z, B, Z], [Z, A2, Z, B2], [C, Z, D, Z], [Z, C2, Z, D2]])


def doubled_initial_frame(L):
    """The doubled Lagrangian start frame [[0,1],[1,0],[1,0],[0,1]] in L x L blocks."""
    one, zero = mc.eye(L), np.zeros((L, L), dtype=complex)
    return np.block([[zero, one], [one, zero], [one, zero], [zero, one]])


def in_upper_half_plane(Z, tol=mc.DEFAULT_TOL) -> bool:
    """True iff the matrix imaginary part i(Z* - Z) is positive definite."""
    Z = mc.as_cmatrix(Z)
    im = mc.hermitize(1j * (mc.adj(Z) - Z))
    return bool(np.linalg.eigvalsh(im).min() > tol)
