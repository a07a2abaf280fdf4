"""Operator assembly, banded application, and the dense spectral oracle."""

import numpy as np
import pytest

from scatzip import ensembles, matrix_core as mc
from scatzip import zipper as zp
from scatzip.errors import CapExceededError, DimensionMismatchError, MissingS1Error, OddNError

def _free_finite(L, N):
    return ensembles.finite_zipper(0, L, N, ensemble="free")


def test_assemble_finite_trivial_swap():
    op = zp.assemble_finite(_free_finite(1, 2))
    assert np.allclose(op.to_dense(), np.array([[0, 1], [1, 0]]))


def test_assemble_finite_unitary_and_banded(rng):
    z = ensembles.finite_zipper(11, 2, 6)
    op = zp.assemble_finite(z)
    assert mc.unitary_defect(op.to_dense()) < 1e-10
    assert op.block_bandwidth() <= 2


def test_assemble_finite_free_fourth_roots():
    # all-swap N=4 case: eigenvalues are the 4th roots of unity; cross-check
    # the Hermitian-pair oracle against numpy's general eigensolver
    op = zp.assemble_finite(_free_finite(1, 4))
    spec = zp.dense_spectrum(op)
    ref = np.sort(np.mod(np.angle(np.linalg.eigvals(op.to_dense())), 2 * np.pi))
    assert np.allclose(spec.expanded_thetas(), ref, atol=1e-9)
    assert np.allclose(np.sort(spec.thetas), [0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-9)


def test_assemble_rejects_odd_n():
    blocks = {2: ensembles.random_block(np.random.default_rng(0), 1, "free")}
    with pytest.raises(OddNError):
        zp.Zipper(1, 3, "finite", blocks, np.eye(1), np.eye(1))


@pytest.mark.parametrize("N", [0, -2])
def test_seeded_constructors_reject_n_below_two(N):
    for make in (ensembles.finite_zipper, ensembles.periodic_zipper):
        with pytest.raises(OddNError):
            make(0, 1, N)


def test_assemble_periodic_free_is_identity():
    # explicit 2x2 product: S_2 swap times the wrapped S_1 layer equals 1, so
    # the spectrum is the doubled eigenvalue 1
    z = ensembles.periodic_zipper(0, 1, 2, ensemble="free")
    op = zp.assemble_periodic(z)
    S2 = z.blocks[2].matrix
    S1 = z.blocks[1]
    wrapped = np.array([[S1.delta[0, 0], S1.gamma[0, 0]], [S1.beta[0, 0], S1.alpha[0, 0]]])
    assert np.allclose(op.to_dense(), S2 @ wrapped)
    spec = zp.dense_spectrum(op)
    assert np.allclose(spec.thetas, [0.0], atol=1e-12) and spec.multiplicities.tolist() == [2]


def test_assemble_periodic_corner_placement(rng):
    z = ensembles.periodic_zipper(5, 2, 6)
    S1 = z.blocks[1]
    # inspect the odd layer through the product with the inverted even layer
    op = zp.assemble_periodic(z)
    even = np.zeros((12, 12), dtype=complex)
    for n in (2, 4, 6):
        i = (n - 2) * 2
        even[i:i + 4, i:i + 4] = z.blocks[n].matrix
    odd = mc.adj(even) @ op.to_dense()
    assert np.allclose(odd[:2, :2], S1.delta, atol=1e-12)
    assert np.allclose(odd[:2, 10:], S1.gamma, atol=1e-12)
    assert np.allclose(odd[10:, :2], S1.beta, atol=1e-12)
    assert np.allclose(odd[10:, 10:], S1.alpha, atol=1e-12)


def test_assemble_periodic_unitarity(rng):
    for seed, L, N in [(1, 1, 4), (2, 2, 6)]:
        op = zp.assemble_periodic(ensembles.periodic_zipper(seed, L, N))
        assert mc.unitary_defect(op.to_dense()) < 1e-10


def test_periodic_requires_s1():
    z = ensembles.periodic_zipper(3, 1, 4)
    blocks = dict(z.blocks)
    del blocks[1]
    with pytest.raises(MissingS1Error):
        zp.Zipper(1, 4, "periodic", blocks)


def test_fiber_matches_periodic_at_zero(rng):
    z = ensembles.periodic_zipper(7, 2, 4)
    assert np.allclose(zp.fiber(z, 0.0).to_dense(), zp.assemble_periodic(z).to_dense())


def test_fiber_unitary_and_free_eigenvalues():
    from scatzip.oscillation import momentum_grid

    z = ensembles.periodic_zipper(0, 1, 2, ensemble="free")
    ks = momentum_grid(2, 16)
    phases = []
    for k in ks:
        M = zp.fiber(z, k).to_dense()
        assert mc.unitary_defect(M) < 1e-12
        # explicit 2x2 eigensolve: diag(exp(-2ik), exp(2ik))
        lam = np.linalg.eigvals(M)
        assert np.allclose(np.sort_complex(lam), np.sort_complex(
            np.array([np.exp(-2j * k), np.exp(2j * k)])), atol=1e-12)
        phases.extend(np.mod(np.angle(lam), 2 * np.pi))
    # the union over k sweeps out the whole circle
    phases = np.sort(phases)
    gaps = np.diff(np.concatenate([phases, [phases[0] + 2 * np.pi]]))
    assert gaps.max() < 2 * np.pi / len(ks)


def test_apply_swap_exchanges_components():
    op = zp.assemble_finite(_free_finite(1, 2))
    out = zp.apply(op, np.array([1.0, 2.0]))
    assert np.allclose(out, [2.0, 1.0])


def test_apply_extracts_block_column(rng):
    z = ensembles.finite_zipper(13, 2, 6)
    op = zp.assemble_finite(z)
    e1 = np.zeros(op.dim)
    e1[0] = 1.0
    assert np.allclose(zp.apply(op, e1), op.to_dense()[:, 0])


def test_apply_matches_dense(rng):
    z = ensembles.finite_zipper(13, 2, 6)
    op = zp.assemble_finite(z)
    v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    assert np.linalg.norm(zp.apply(op, v) - op.to_dense() @ v) < 1e-12 * np.linalg.norm(v)
    with pytest.raises(DimensionMismatchError):
        zp.apply(op, v[:-1])


def test_dense_spectrum_swap_case():
    spec = zp.dense_spectrum(zp.assemble_finite(_free_finite(1, 2)))
    assert np.allclose(np.sort(spec.thetas), [0.0, np.pi], atol=1e-12)
    assert spec.multiplicities.tolist() == [1, 1]


def test_dense_spectrum_residuals(rng):
    z = ensembles.finite_zipper(17, 2, 6)
    op = zp.assemble_finite(z)
    lam, vec = zp.eig_unitary(op.to_dense())
    X = op.to_dense()
    for i in range(len(lam)):
        assert np.linalg.norm(X @ vec[:, i] - lam[i] * vec[:, i]) < 1e-8
    assert np.abs(np.abs(lam) - 1).sum() < 1e-8
    spec = zp.dense_spectrum(op)
    assert spec.total_multiplicity == z.N * z.L


def test_dense_spectrum_cap():
    z = ensembles.finite_zipper(1, 2, 6)
    with pytest.raises(CapExceededError):
        zp.dense_spectrum(zp.assemble_finite(z), cap=4)


def test_direct_sum_doubles_multiplicities():
    z1 = ensembles.finite_zipper(23, 1, 4, ensemble="cmv")
    zd = zp.direct_sum(z1, z1)
    s1 = zp.dense_spectrum(zp.assemble_finite(z1))
    sd = zp.dense_spectrum(zp.assemble_finite(zd))
    assert np.allclose(s1.thetas, sd.thetas, atol=1e-9)
    assert np.array_equal(2 * s1.multiplicities, sd.multiplicities)


def test_semi_infinite_truncation_replayable():
    sem = ensembles.semi_infinite_zipper(5, 2, "cmv")
    z1 = sem.truncate(6, np.eye(2))
    sem2 = ensembles.semi_infinite_zipper(5, 2, "cmv")
    z2 = sem2.truncate(6, np.eye(2))
    for n in range(2, 7):
        assert np.array_equal(z1.blocks[n].matrix, z2.blocks[n].matrix)
    # block access order must not matter
    sem3 = ensembles.semi_infinite_zipper(5, 2, "cmv")
    b6 = sem3.block(6)
    assert np.array_equal(b6.matrix, z1.blocks[6].matrix)
