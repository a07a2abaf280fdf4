import numpy as np
import pytest

from scatzip import ensembles, matrix_core as mc
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


class HandBuiltTable:
    """Stands in for a TransferFactory: serves a given phi table."""

    def __init__(self, table):
        self.table = table

    def phi_table(self, upto):
        return self.table[:upto]
