"""Dense matrix utilities: square roots, polar factors, Moebius calculus."""

import numpy as np
import pytest

from scatzip import ensembles, matrix_core as mc
from scatzip.errors import NumericalBreakdownError, ValidationError

from conftest import in_upper_half_plane, random_unitary


def test_hermitian_sqrt_identity_fixed_point():
    assert np.allclose(mc.hermitian_sqrt(np.eye(3)), np.eye(3))


def test_hermitian_sqrt_scalar_roots():
    assert np.allclose(mc.hermitian_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_hermitian_sqrt_random_psd(rng):
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    M = A @ mc.adj(A)
    R = mc.hermitian_sqrt(M)
    assert np.linalg.norm(R @ R - M, 2) < 1e-10
    assert np.linalg.norm(R @ M - M @ R, 2) < 1e-10  # sqrt commutes with M
    assert mc.hermitian_defect(R) < 1e-12


def test_hermitian_sqrt_rejects_bad_input(rng):
    A = rng.standard_normal((3, 3))
    with pytest.raises(ValidationError, match="Hermiticity defect"):
        mc.hermitian_sqrt(A + np.triu(np.ones((3, 3)), 1))
    with pytest.raises(ValidationError, match="eigenvalue"):
        mc.hermitian_sqrt(np.diag([1.0, -0.5]))


def test_hermitian_sqrt_clamps_tiny_negative():
    M = np.diag([1.0, -1e-14])
    R = mc.hermitian_sqrt(M, tol=1e-10)
    assert np.linalg.eigvalsh(R).min() >= 0


def test_polar_unitary_fixed_points(rng):
    U0 = random_unitary(rng, 3)
    assert np.linalg.norm(mc.polar_unitary(U0) - U0, 2) < 1e-12
    A = rng.standard_normal((3, 3))
    P = A @ A.T + 3 * np.eye(3)  # positive definite
    assert np.linalg.norm(mc.polar_unitary(P) - np.eye(3), 2) < 1e-12


def test_polar_unitary_reconstruction(rng):
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 2 * np.eye(2)
    U = mc.polar_unitary(A)
    H = mc.hermitian_sqrt(A @ mc.adj(A))
    assert np.linalg.norm(H @ U - A, 2) < 1e-10
    assert mc.unitary_defect(U) < 1e-12


def test_polar_unitary_rejects_singular():
    with pytest.raises(ValidationError, match="smallest singular value"):
        mc.polar_unitary(np.diag([1.0, 0.0]))


def test_mobius_identity_action(rng):
    Z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(mc.mobius(np.eye(4), Z), Z)


def test_mobius_block_diagonal_action(rng):
    V = random_unitary(rng, 2)
    U = random_unitary(rng, 2)
    T = mc.join_blocks(V, np.zeros((2, 2)), np.zeros((2, 2)), mc.adj(U))
    Z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(mc.mobius(T, Z), V @ Z @ U)


def test_mobius_j_unitary_preserves_half_plane(rng):
    # conjugating a Lorentz-form matrix by the Cayley transform gives a
    # J-unitary; its action must preserve positive imaginary part
    from scatzip.scattering import phi

    C = mc.cayley(2)
    for _ in range(10):
        TJ = mc.adj(C) @ phi(ensembles.random_block(rng, 2, "haar-gauge")) @ C
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 2))
        Z = A + mc.adj(A) + 1j * (B @ B.T + np.eye(2))
        assert in_upper_half_plane(mc.mobius(TJ, Z))


def test_mobius_inverse_roundtrip(rng):
    from scatzip.scattering import phi

    for _ in range(10):
        T = phi(ensembles.random_block(rng, 2, "haar-gauge"))
        Z = ensembles.random_contraction(rng, 2, 0.8)
        W = mc.mobius(T, Z)
        assert np.linalg.norm(mc.mobius_inverse(W, T) - Z, 2) < 1e-9


def test_mobius_inverse_identity(rng):
    W = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    # (W 0 - 1)^(-1) (0 - W 1) = W
    assert np.allclose(mc.mobius_inverse(W, np.eye(4)), W)


def test_mobius_inverse_right_action(rng):
    from scatzip.scattering import phi

    for _ in range(10):
        T1 = phi(ensembles.random_block(rng, 2, "haar-gauge"))
        T2 = phi(ensembles.random_block(rng, 2, "haar-gauge"))
        Z = ensembles.random_contraction(rng, 2, 0.8)
        W = mc.mobius(T1 @ T2, Z)
        lhs = mc.mobius_inverse(W, T1 @ T2)
        rhs = mc.mobius_inverse(mc.mobius_inverse(W, T1), T2)
        assert np.linalg.norm(lhs - rhs, 2) < 1e-9
        # W : T = T^(-1) . W
        assert np.linalg.norm(mc.mobius_inverse(W, T1) - mc.mobius(np.linalg.inv(T1), W), 2) < 1e-9


def test_mobius_singular_denominator():
    T = mc.join_blocks(np.eye(1), np.zeros((1, 1)), np.eye(1), np.zeros((1, 1)))
    with pytest.raises(NumericalBreakdownError, match=r"^C Z \+ D is numerically singular$"):
        mc.mobius(T, np.zeros((1, 1)))


def test_siegel_disc_membership(rng):
    assert mc.in_siegel_disc(np.zeros((3, 3)))
    U = random_unitary(rng, 3)
    assert not mc.in_siegel_disc(U, strict=True)
    assert mc.in_siegel_disc(U, strict=False)
    assert mc.in_siegel_disc(0.5 * U)


def test_forms_and_cayley():
    for L in (1, 2, 3):
        C = mc.cayley(L)
        assert mc.unitary_defect(C) < 1e-14
        assert np.allclose(mc.jform(L), mc.adj(C) @ mc.lform(L) @ C / 1j)
        assert np.allclose(mc.lform(L) @ mc.lform(L), np.eye(2 * L))


def test_principal_sines_detect_common_direction(rng):
    A = rng.standard_normal((4, 2))
    B = np.column_stack([A[:, 0], rng.standard_normal(4)])
    s = mc.principal_sines(A, B)
    assert s[0] < 1e-12  # shared direction
    assert mc.subspace_intersection_dim(A, B) == 1
