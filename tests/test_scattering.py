"""Scattering blocks: normal form, unitarity relations, the phi bijection."""

import re

import numpy as np
import pytest

from scatzip import ensembles, matrix_core as mc, scattering as sc
from scatzip import zipper as zp
from scatzip.errors import ValidationError

from conftest import random_unitary


def test_build_block_trivial_swap():
    b = sc.build_block(np.zeros((1, 1)), np.eye(1), np.eye(1))
    assert np.allclose(b.matrix, np.array([[0, 1], [1, 0]]))


def test_build_block_scalar_half():
    # alpha = 0.5 with trivial gauges: the classical scalar block
    b = sc.build_block(np.array([[0.5]]), np.eye(1), np.eye(1))
    r = np.sqrt(0.75)
    assert np.allclose(b.matrix, np.array([[0.5, r], [r, -0.5]]))


def test_build_block_random_unitary(rng):
    for L in (1, 2, 3):
        b = ensembles.random_block(rng, L, "haar-gauge")
        assert mc.unitary_defect(b.matrix) < 1e-10


def test_build_block_rejects_non_contraction():
    with pytest.raises(ValidationError, match=r"\|\|alpha\|\| = 1.000000 is not < 1"):
        sc.build_block(np.eye(2), np.eye(2), np.eye(2))


def test_unitarity_relations(rng):
    b = ensembles.random_block(rng, 3, "haar-gauge")
    a, bb, g, d = b.alpha, b.beta, b.gamma, b.delta
    one = np.eye(3)
    for rel in [mc.adj(a) @ a + mc.adj(g) @ g - one,
                mc.adj(d) @ d + mc.adj(bb) @ bb - one,
                mc.adj(d) @ g + mc.adj(bb) @ a,
                a @ mc.adj(a) + bb @ mc.adj(bb) - one,
                d @ mc.adj(d) + g @ mc.adj(g) - one,
                g @ mc.adj(a) + d @ mc.adj(bb)]:
        assert np.linalg.norm(rel, 2) < 1e-10


def test_decompose_antidiagonal():
    S = np.array([[0, 1], [1, 0]], dtype=complex)
    alpha, u, v = sc.decompose_block(S)
    assert np.allclose(alpha, 0) and np.allclose(u, 1) and np.allclose(v, 1)


def test_decompose_roundtrip(rng):
    b = ensembles.random_block(rng, 3, "haar-gauge")
    alpha, u, v = sc.decompose_block(b.matrix)
    assert np.linalg.norm(alpha - b.alpha, 2) < 1e-10
    assert np.linalg.norm(u - b.u_gauge, 2) < 1e-10
    assert np.linalg.norm(v - b.v_gauge, 2) < 1e-10


def test_decompose_rejects_ineffective(rng):
    S = np.zeros((4, 4), dtype=complex)
    S[:2, :2] = random_unitary(rng, 2)
    S[2:, 2:] = random_unitary(rng, 2)  # beta block is zero
    with pytest.raises(ValidationError, match="event is not effective"):
        sc.decompose_block(S)


def test_phi_of_degenerate_block(rng):
    U = random_unitary(rng, 2)
    V = random_unitary(rng, 2)
    S = sc.boundary_block(U, V)
    expected = mc.join_blocks(V, np.zeros((2, 2)), np.zeros((2, 2)), mc.adj(U))
    assert np.allclose(sc.phi(S), expected)


def test_phi_scalar_closed_form():
    # alpha = 0.6, trivial gauges, from the defining formula
    # [[c - d b^-1 a, d b^-1], [-b^-1 a, b^-1]] with (a,b,c,d) = (.6,.8,.8,-.6):
    # diagonal 1/0.8, off-diagonals -0.6/0.8 (the sign the propagation
    # equivalence requires); the result is self-adjoint as a scalar CMV
    # transfer matrix must be
    b = sc.build_block(np.array([[0.6]]), np.eye(1), np.eye(1))
    T = sc.phi(b)
    assert np.allclose(T, np.array([[1.25, -0.75], [-0.75, 1.25]]))
    assert np.allclose(T, mc.adj(T))


def test_phi_lands_in_lorentz_group(rng):
    for L in (1, 2, 3):
        T = sc.phi(ensembles.random_block(rng, L, "haar-gauge"))
        Lf = mc.lform(L)
        assert np.linalg.norm(mc.adj(T) @ Lf @ T - Lf, 2) < 1e-10


def test_phi_inverse_block_diagonal(rng):
    U = random_unitary(rng, 2)
    V = random_unitary(rng, 2)
    T = mc.join_blocks(V, np.zeros((2, 2)), np.zeros((2, 2)), mc.adj(U))
    S = sc.phi_inverse(T)
    assert np.linalg.norm(S.matrix - sc.boundary_block(U, V), 2) < 1e-10


def test_phi_inverse_identity():
    S = sc.phi_inverse(np.eye(2))
    assert np.allclose(S.matrix, np.array([[0, 1], [1, 0]]))


def test_phi_bijection_roundtrips(rng):
    for _ in range(5):
        b = ensembles.random_block(rng, 2, "haar-gauge")
        T = sc.phi(b)
        assert np.linalg.norm(sc.phi_inverse(T).matrix - b.matrix, 2) < 1e-9
        assert np.linalg.norm(sc.phi(sc.phi_inverse(T)) - T, 2) < 1e-9


def test_phi_inverse_rejects_non_lorentz(rng):
    with pytest.raises(ValidationError, match=r"does not conserve the \(L, L\) form"):
        sc.phi_inverse(2.0 * np.eye(4))


def test_boundary_block_decomposes(rng):
    U = random_unitary(rng, 2)
    V = random_unitary(rng, 2)
    alpha, u, v = sc.decompose_block(sc.boundary_block(U, V))
    assert np.allclose(alpha, 0)
    assert np.linalg.norm(u - U, 2) < 1e-10
    assert np.linalg.norm(v - V, 2) < 1e-10


def test_left_boundary_transfer_form(rng):
    # the first-step block [[0, 1], [U, 0]] has phi = diag(U, 1)
    U = random_unitary(rng, 2)
    T = sc.phi(sc.boundary_block(np.eye(2), U))
    assert np.allclose(T, mc.join_blocks(U, np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)))


def test_effectiveness_predicates_agree(rng):
    for member in (True, False):
        if member:
            S = ensembles.random_block(rng, 2, "haar-gauge").matrix
        else:
            S = np.zeros((4, 4), dtype=complex)
            S[:2, :2] = random_unitary(rng, 2)
            S[2:, 2:] = random_unitary(rng, 2)
        a, bb, g, d = mc.split_blocks(S)
        preds = [mc.smallest_singular_value(bb) > 1e-8,
                 mc.smallest_singular_value(g) > 1e-8,
                 np.linalg.norm(a, 2) < 1 - 1e-8,
                 np.linalg.norm(d, 2) < 1 - 1e-8]
        assert all(p == member for p in preds)


def test_gauge_twist_matches_fiber_scaling():
    z = ensembles.periodic_zipper(5, 2, 6)
    k = 0.37
    alpha, beta, gamma, delta = mc.split_blocks(z.matrices)
    t_alpha, t_beta, t_gamma, t_delta = mc.split_blocks(zp.fiber_zipper(z, k).matrices)
    assert np.allclose(t_alpha, alpha)
    assert np.allclose(t_beta, np.exp(-1j * k) * beta)
    assert np.allclose(t_gamma, np.exp(1j * k) * gamma)
    assert np.allclose(t_delta, delta)


@pytest.mark.parametrize("call, message", [
    (lambda: sc.build_block(0.1 * np.eye(1), 2 * np.eye(1), np.eye(1)),
     "u_gauge has unitarity defect 3.000e+00 > 1.0e-10"),
    (lambda: sc.ScatteringBlock(np.zeros((1, 1)), np.eye(2), np.eye(1)),
     "alpha, u_gauge, v_gauge must share the same L x L shape"),
    (lambda: sc.phi(np.eye(2)), "upper-right block is singular"),
    (lambda: sc.phi_inverse(np.eye(2), tol=2.0), "lower-right block is singular"),
], ids=["gauge-not-unitary", "gauge-shape", "phi-singular-beta", "phi-inverse-singular-d"])
def test_scattering_input_gates(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()
