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


def sequential_orthonormal_step(mu, family, n, exponent):
    """Reference for ``measures._orthonormal_step``, with the same arguments and
    effect: modified Gram-Schmidt, two passes that each project out one finished
    polynomial at a time, then the same Hermitian positive normalizer."""
    coeffs, values, weighted = family
    f_coeffs = np.zeros(coeffs.shape[1:], dtype=complex)
    f_coeffs[exponent + coeffs.shape[1] // 2] = mc.eye(mu.L)
    f_values = np.power(mu.atoms, exponent)[:, None, None] * mc.eye(mu.L)
    for _ in range(2):
        for k in range(n):
            c = ms._pair(f_values, weighted[k])
            f_coeffs -= c @ coeffs[k]
            f_values -= c @ values[k]
    w, V = np.linalg.eigh(mc.hermitize(ms._pair(f_values, mu.weights @ mc.adj(f_values))))
    if w.min() < ms.GRAM_DEGENERACY_TOL:
        return False
    R = mc.hermitize((V / np.sqrt(w)) @ mc.adj(V))
    coeffs[n], values[n] = R @ f_coeffs, R @ f_values
    weighted[n] = mu.weights @ mc.adj(values[n])
    return True


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
