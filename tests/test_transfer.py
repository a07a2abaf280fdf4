"""Transfer matrices, solution frames, quadratic forms, inhomogeneous solve."""

import re

import numpy as np
import pytest

from scatzip import ensembles, matrix_core as mc, transfer as tr
from scatzip import zipper as zp
from scatzip.errors import NumericalBreakdownError, ValidationError
from scatzip.scattering import phi
from scatzip.weyl import g_matrix

from conftest import HandBuiltTable, doubled_initial_frame, transfer_inverse_at

def test_transfer_odd_is_z_independent(rng):
    b = ensembles.random_block(rng, 2, "haar-gauge")
    T1 = tr.transfer_at(b, 3, 0.3 + 0.1j)
    T2 = tr.transfer_at(b, 3, np.exp(0.7j))
    assert np.allclose(T1, T2)
    assert np.allclose(T1, phi(b))


def test_transfer_even_at_one_is_phi(rng):
    b = ensembles.random_block(rng, 2, "haar-gauge")
    assert np.allclose(tr.transfer_at(b, 2, 1.0), phi(b))


def test_transfer_conserves_form_on_circle(rng):
    b = ensembles.random_block(rng, 2, "haar-gauge")
    for theta in rng.uniform(0, 2 * np.pi, 5):
        T = tr.transfer_at(b, 2, np.exp(1j * theta))
        Lf = mc.lform(2)
        assert np.linalg.norm(mc.adj(T) @ Lf @ T - Lf, 2) < 1e-10


def test_transfer_inverse(rng):
    b = ensembles.random_block(rng, 2, "haar-gauge")
    for n in (2, 3):
        for z in (0.4 - 0.2j, np.exp(1.1j)):
            T = tr.transfer_at(b, n, z)
            Ti = transfer_inverse_at(b, n, z)
            assert np.linalg.norm(Ti @ T - np.eye(4), 2) < 1e-10
    # on the circle the inverse is the form conjugate of the adjoint
    z = np.exp(0.3j)
    T = tr.transfer_at(b, 2, z)
    Lf = mc.lform(2)
    assert np.linalg.norm(transfer_inverse_at(b, 2, z) - Lf @ mc.adj(T) @ Lf, 2) < 1e-10


def test_transfer_rejects_zero_z(rng):
    b = ensembles.random_block(rng, 1, "cmv")
    with pytest.raises(ValidationError, match="transfer matrices are undefined at z = 0"):
        tr.transfer_at(b, 2, 0.0)


def test_propagate_first_step_is_boundary_plane(rng):
    z = ensembles.finite_zipper(3, 2, 6)
    fr = tr.propagate(z, 0.5 + 0.1j, 1)
    target = np.vstack([z.boundary_u, np.eye(2)])
    assert mc.principal_sines(fr.matrix, target).max() < 1e-12


def test_propagate_lagrangian_on_circle(rng):
    z = ensembles.finite_zipper(3, 2, 8)
    for theta in rng.uniform(0, 2 * np.pi, 3):
        fr = tr.propagate(z, np.exp(1j * theta), 8)
        assert np.linalg.norm(fr.lform_value(), 2) < 1e-9


def test_propagate_renormalized_vs_raw(rng):
    # the raw frame is the direct product of site_transfer steps on (1; 1),
    # which never reads the phi table that propagate reads
    z = ensembles.finite_zipper(3, 2, 8)
    w = np.exp(0.9j)
    fr = tr.propagate(z, w, 8)
    raw = tr.transfer_product(z, 8, w) @ np.vstack([np.eye(2)] * 2)
    assert mc.principal_sines(fr.matrix, raw).max() < 1e-8
    assert np.linalg.norm(fr.raw() - raw) < 1e-10 * np.linalg.norm(raw)


def test_propagate_array_equals_pointwise_calls():
    # one stacked site loop over an array of z gives, point by point, what
    # the scalar calls give: frame, normalizer and log scale
    points = np.array([np.exp(0.9j), 0.5 + 0.1j, np.exp(4.2j), -0.3j, 1.7 - 0.4j])
    for L in (1, 2, 3):
        cases = [(ensembles.finite_zipper(40 + L, L, 8, "cmv"), None),
                 (ensembles.periodic_zipper(50 + L, L, 6), doubled_initial_frame(L))]
        for z, start in cases:
            batch = tr.propagate(z, points, z.N, start=start)
            assert batch.matrix.shape[0] == len(points)
            assert np.array_equal(batch.z, points)
            for i, w in enumerate(points):
                one = tr.propagate(z, w, z.N, start=start)
                assert one.z == w and batch.matrix[i].shape == one.matrix.shape
                scale = max(1.0, np.abs(one.matrix).max())
                assert np.abs(batch.matrix[i] - one.matrix).max() < 1e-13 * scale
                assert np.abs(batch.normalizer[i] - one.normalizer).max() < 1e-13
                assert abs(batch.log_scale[i] - one.log_scale) < 1e-13


def test_propagate_array_rejects_zero_and_matrix_z():
    z = ensembles.finite_zipper(3, 1, 4)
    with pytest.raises(ValidationError, match="transfer matrices are undefined at z = 0"):
        tr.propagate(z, np.array([0.5, 0.0]), 4)
    with pytest.raises(ValidationError):
        tr.propagate(z, np.full((2, 2), 0.5), 4)


def test_p_matrix_vanishes_on_circle(rng):
    b = ensembles.random_block(rng, 2, "haar-gauge")
    P = tr.p_matrix(b, np.exp(0.4j))
    assert np.linalg.norm(P.matrix, 2) < 1e-12


def test_p_matrix_free_scalar_explicit():
    # alpha = 0, z = 0.5: transfer = diag(2, 0.5) and the defect identity
    # gives P = diag(3, 0.75) directly
    b = ensembles.random_block(np.random.default_rng(0), 1, "free")
    P = tr.p_matrix(b, 0.5)
    T = tr.transfer_at(b, 2, 0.5)
    lhs = mc.adj(T) @ mc.lform(1) @ T - mc.lform(1)
    assert np.allclose(P.matrix, lhs)
    assert np.allclose(P.matrix, np.diag([3.0, 0.75]))


def test_p_matrix_identity_and_bound(rng):
    z = 0.3 + 0.4j  # |z|^2 = 0.25
    for _ in range(20):
        b = ensembles.random_block(rng, 2, "haar-gauge")
        P = tr.p_matrix(b, z)
        T = tr.transfer_at(b, 2, z)
        assert np.linalg.norm(mc.adj(T) @ mc.lform(2) @ T - mc.lform(2) - P.matrix, 2) < 1e-10
        assert np.linalg.eigvalsh(P.matrix).min() >= 0.375 - 1e-12


def test_q_form_is_lform_on_circle(rng):
    z = ensembles.finite_zipper(9, 2, 6)
    qf = tr.q_form(z, np.exp(0.3j))
    assert np.linalg.norm(qf.matrix - mc.lform(2), 2) < 1e-10
    assert qf.product_defect < 1e-10


def test_q_form_inverse_identity_and_signature(rng):
    z = ensembles.finite_zipper(9, 2, 6)
    w = 0.4 + 0.1j
    qf = tr.q_form(z, w)
    qr = tr.q_form(z, 1 / np.conj(w))
    Lf = mc.lform(2)
    Qinv = np.linalg.inv(qf.matrix)
    rel = np.linalg.norm(Qinv - Lf @ qr.matrix @ Lf, 2) / np.linalg.norm(Qinv, 2)
    assert rel < 1e-8
    assert qf.signature() == (2, 2)
    assert qf.product_defect < 1e-8 * np.linalg.norm(qf.matrix, 2)


def test_q_form_monotone_even_steps(rng):
    z = ensembles.finite_zipper(9, 2, 6)
    w = 0.4 + 0.1j
    q4 = tr.q_form(z, w, upto=4)
    q5 = tr.q_form(z, w, upto=5)
    q6 = tr.q_form(z, w, upto=6)
    assert np.linalg.norm(q5.matrix - q4.matrix, 2) < 1e-12  # odd step leaves Q unchanged
    assert np.linalg.eigvalsh(q6.matrix - q5.matrix).min() > 0


def test_solve_inhomogeneous_consistency(rng):
    z = ensembles.finite_zipper(31, 2, 6)
    X = zp.assemble_finite(z).to_dense()
    w = 0.35 - 0.2j
    target = rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))
    xi = np.split((X - w * np.eye(12)) @ target, 6)
    phis = tr.solve_inhomogeneous(z, w, xi)
    assert np.linalg.norm(np.vstack(phis) - target) < 1e-8


def test_solve_inhomogeneous_residual(rng):
    z = ensembles.finite_zipper(31, 2, 6)
    X = zp.assemble_finite(z).to_dense()
    w = 0.35 - 0.2j
    xi = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(6)]
    phis = tr.solve_inhomogeneous(z, w, xi)
    res = (X - w * np.eye(12)) @ np.vstack(phis) - np.vstack(xi)
    assert np.linalg.norm(res) < 1e-8


def test_solve_inhomogeneous_green_column(rng):
    z = ensembles.finite_zipper(31, 2, 6)
    w = 0.35 - 0.2j
    xi = [np.eye(2) if k == 0 else np.zeros((2, 2)) for k in range(6)]
    phis = tr.solve_inhomogeneous(z, w, xi)
    assert np.linalg.norm(phis[0] - g_matrix(z, w), 2) < 1e-8


def test_solve_inhomogeneous_requires_disc(rng):
    z = ensembles.finite_zipper(31, 2, 6)
    with pytest.raises(ValidationError):
        tr.solve_inhomogeneous(z, 1.5, [np.zeros((2, 2))] * 6)


def test_scattering_transfer_equivalence(rng):
    b = ensembles.random_block(rng, 2, "haar-gauge")
    psi = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    psi2 = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    out = b.matrix @ np.vstack([psi, psi2])
    ph, ph2 = out[:2], out[2:]
    lhs = phi(b) @ np.vstack([psi, ph])
    assert np.linalg.norm(lhs - np.vstack([ph2, psi2])) < 1e-10


@pytest.mark.parametrize("z", [float("nan"), complex(0.5, float("nan")), np.array([0.5, np.inf])])
def test_transfer_rejects_non_finite_z(rng, z):
    zipper = ensembles.finite_zipper(0, 1, 4)
    with pytest.raises(ValidationError, match="transfer matrices need a finite z, got"):
        tr.propagate(zipper, z, 4)
    if np.ndim(z) == 0:
        with pytest.raises(ValidationError, match="transfer matrices need a finite z, got"):
            tr.transfer_product(zipper, 4, z)


def _zero_row_table(n):
    """The phi table of ``finite_zipper(0, 1, 6)`` with row n - 1 (site n) set to zero."""
    table = ensembles.finite_zipper(0, 1, 6).phi_table(6).copy()
    table[n - 1] = 0.0
    return HandBuiltTable(table)


@pytest.mark.parametrize("call, error, message", [
    (lambda: tr.propagate(ensembles.finite_zipper(0, 1, 6), 0.5, 6, factory=_zero_row_table(3)),
     NumericalBreakdownError, "renormalization factor degenerated at site 3"),
    (lambda: tr.solve_inhomogeneous(ensembles.periodic_zipper(0, 1, 4), 0.5, [np.eye(1)] * 4),
     ValidationError, "solve_inhomogeneous needs a finite zipper"),
    (lambda: tr.solve_inhomogeneous(ensembles.finite_zipper(0, 1, 4), 0.5, [np.eye(1)] * 3),
     ValidationError, "xi must be 4 blocks with 1 rows"),
], ids=["zero-table-row", "inhomogeneous-periodic", "inhomogeneous-short-xi"])
def test_transfer_input_gates(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
