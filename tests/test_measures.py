"""Matrix measures, Caratheodory transform, Gram-Schmidt, and the bijection."""

import numpy as np
import pytest

from scatzip import ensembles, matrix_core as mc, measures as ms, weyl
from scatzip import zipper as zp
from scatzip.errors import ValidationError

from conftest import random_disc_point, sequential_orthonormal_step


def test_caratheodory_at_zero_is_i(rng):
    z = ensembles.finite_zipper(2, 2, 4)
    mu = ms.spectral_measure_finite(z)
    assert np.linalg.norm(ms.caratheodory(mu, 0.0) - 1j * np.eye(2), 2) < 1e-12


def test_caratheodory_single_atom():
    mu = ms.MatrixMeasure(np.array([1.0]), np.array([[[1.0]]]))
    assert abs(ms.caratheodory(mu, 0.5)[0, 0] - 3j) < 1e-14


@pytest.mark.parametrize("z", [float("nan"), complex(0.2, float("nan")), 1.0])
def test_caratheodory_refuses_points_off_the_open_disc(z):
    with pytest.raises(ValidationError, match="inside the disc"):
        ms.caratheodory(ms.uniform_grid_measure(1, 8), z)


def test_caratheodory_matches_resolvent(rng):
    z = ensembles.finite_zipper(2, 2, 6)
    mu = ms.spectral_measure_finite(z)
    for _ in range(10):
        w = random_disc_point(rng)
        assert np.linalg.norm(ms.caratheodory(mu, w) - weyl.f_matrix(z, w), 2) < 1e-8


def test_spectral_measure_swap_case():
    z = ensembles.finite_zipper(0, 1, 2, ensemble="free")
    mu = ms.spectral_measure_finite(z)
    order = np.argsort(mu.atoms.real)
    assert np.allclose(mu.atoms[order], [-1.0, 1.0], atol=1e-12)
    assert np.allclose(mu.weights[order].ravel(), [0.5, 0.5], atol=1e-12)


def test_spectral_measure_total_mass(rng):
    z = ensembles.finite_zipper(5, 3, 4)
    mu = ms.spectral_measure_finite(z)
    assert np.linalg.norm(mu.weights.sum(axis=0) - np.eye(3), 2) < 1e-9


@pytest.mark.parametrize("L, m, message", [(1, 0, "needs m >= 1 atoms, got 0"),
                                            (1, -3, "needs m >= 1 atoms, got -3"),
                                            (0, 4, "L must be >= 1, got 0"),
                                            (1, 2.5, r"m must be an integer, got 2\.5$"),
                                            (1, float("nan"), "m must be an integer, got nan$"),
                                            (1, "3", "m must be an integer, got '3'$"),
                                            (1.0, 4, r"L must be an integer, got 1\.0$")])
def test_uniform_grid_measure_rejects_bad_sizes(L, m, message):
    with pytest.raises(ValidationError, match=message):
        ms.uniform_grid_measure(L, m)


@pytest.mark.parametrize("entry", [ms.gram_schmidt, ms.zipper_from_measure])
@pytest.mark.parametrize("n_max, shown", [(2.5, r"2\.5"), (float("nan"), "nan"), ("3", "'3'"), (4.0, r"4\.0")])
def test_measure_entries_reject_non_integer_depths(entry, n_max, shown):
    with pytest.raises(ValidationError, match=f"^n_max must be an integer, got {shown}$"):
        entry(ms.uniform_grid_measure(1, 8), np.eye(1), n_max)


def test_measure_validation():
    with pytest.raises(ValidationError):
        ms.MatrixMeasure(np.array([0.5]), np.array([[[1.0]]]))  # off the circle
    with pytest.raises(ValidationError):
        ms.MatrixMeasure(np.array([1.0]), np.array([[[0.5]]]))  # mass not 1
    atoms = np.array([1.0, -1.0, 1j])
    half = np.eye(2) / 2
    for bad in (np.array([[0.5, 0.1], [0.0, 0.5]]),    # not Hermitian
                np.array([[0.5, 0.0], [0.0, -0.1]])):  # Hermitian, not PSD
        weights = np.array([half, bad, half - bad])     # still sums to the identity
        with pytest.raises(ValidationError, match="weights must be Hermitian PSD"):
            ms.MatrixMeasure(atoms, weights)


def test_inner_product_total_mass(rng):
    z = ensembles.finite_zipper(5, 2, 4)
    mu = ms.spectral_measure_finite(z)
    one = np.array([np.zeros((2, 2)), np.eye(2), np.zeros((2, 2))])  # the constant 1, K = 1
    assert np.linalg.norm(ms.inner_product(one, one, mu) - np.eye(2), 2) < 1e-10


def test_inner_product_left_linearity(rng):
    z = ensembles.finite_zipper(5, 2, 4)
    mu = ms.spectral_measure_finite(z)
    f = np.array([rng.standard_normal((2, 2)), rng.standard_normal((2, 2)), np.zeros((2, 2))])
    g = np.array([np.zeros((2, 2)), np.zeros((2, 2)), rng.standard_normal((2, 2))])
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lhs = ms.inner_product(f, a @ g, mu)
    assert np.linalg.norm(lhs - a @ ms.inner_product(f, g, mu), 2) < 1e-12
    # adjoint-linearity in the first slot
    lhs2 = ms.inner_product(a @ f, g, mu)
    assert np.linalg.norm(lhs2 - ms.inner_product(f, g, mu) @ mc.adj(a), 2) < 1e-12


def test_inner_product_psd(rng):
    z = ensembles.finite_zipper(5, 2, 4)
    mu = ms.spectral_measure_finite(z)
    f = np.array([np.zeros((2, 2)), rng.standard_normal((2, 2)), rng.standard_normal((2, 2))])
    G = ms.inner_product(f, f, mu)
    assert np.linalg.eigvalsh(mc.hermitize(G)).min() > -1e-12


def test_gram_schmidt_orthonormality_and_boundary(rng):
    z = ensembles.finite_zipper(6, 2, 6)
    mu = ms.spectral_measure_finite(z)
    g = ms.gram_schmidt(mu, z.boundary_u, 8)
    K = (g.phis.shape[1] - 1) // 2
    assert np.allclose(g.phis[0][K], np.eye(2))
    assert np.allclose(g.psis[0][K], z.boundary_u)
    for fam in (g.phis, g.psis):
        for i, f in enumerate(fam):
            for j, h in enumerate(fam):
                expect = np.eye(2) if i == j else np.zeros((2, 2))
                assert np.linalg.norm(ms.inner_product(f, h, mu) - expect, 2) < 1e-8


def _orthonormality_defect(g, mu):
    """The largest ||<p_j, p_i> - delta_ij|| over both families; ``inner_product``
    evaluates the returned coefficients afresh, independently of the atom-value
    tables the run projected with."""
    eye = np.eye(mu.L)
    return max(np.linalg.norm(ms.inner_product(h, f, mu) - (eye if i == j else 0 * eye), 2)
               for fam in (g.phis, g.psis) for i, f in enumerate(fam) for j, h in enumerate(fam[:i + 1]))


def test_gram_schmidt_orthonormal_at_l2_n16():
    z = ensembles.finite_zipper(3, 2, 16, ensemble="haar-gauge")
    mu = ms.spectral_measure_finite(z)
    g = ms.gram_schmidt(mu, z.boundary_u, 16)
    assert len(g.phis) == len(g.psis) == 16
    assert _orthonormality_defect(g, mu) < 1e-8


@pytest.mark.parametrize("L, N, ensemble, seed",
                         [(2, 32, "haar-gauge", seed) for seed in range(6)] + [(1, 64, "cmv", 0)])
def test_gram_schmidt_orthonormal_at_the_heaviest_shapes(L, N, ensemble, seed):
    # the heaviest roundtrip measures; the worst defects measured here are 2.2e-8
    # (orthonormality) and 2.0e-8 (recursion), against 4.9e-8 and 3.3e-8 for
    # the sequential reference
    z = ensembles.finite_zipper(seed, L, N, ensemble)
    mu = ms.spectral_measure_finite(z)
    g = ms.gram_schmidt(mu, z.boundary_u, N + 2)
    assert _orthonormality_defect(g, mu) < 1e-7
    assert ms.recursion_residual(g, mu) < 1e-7


@pytest.mark.parametrize("L, N, ensemble, seed, sites_agree", [
    *((L, N, ensemble, seed, True) for L, N, ensemble in
      [(1, 16, "cmv"), (1, 32, "cmv"), (2, 16, "haar-gauge"), (3, 8, "haar-gauge")] for seed in range(3)),
    *((L, N, ensemble, seed, False) for L, N, ensemble in
      [(1, 64, "cmv"), (2, 32, "haar-gauge")] for seed in range(6)),
])
def test_batched_gram_schmidt_matches_the_sequential_reference(monkeypatch, L, N, ensemble, seed,
                                                              sites_agree):
    # the late blocks at L1N64 and L2N32 are too ill-conditioned to compare
    # (two orderings move them by up to 1e-8); there only the stop must agree
    z = ensembles.finite_zipper(seed, L, N, ensemble)
    mu = ms.spectral_measure_finite(z)
    batched = ms.gram_schmidt(mu, z.boundary_u, N + 2)
    monkeypatch.setattr(ms, "_orthonormal_step", sequential_orthonormal_step)
    reference = ms.gram_schmidt(mu, z.boundary_u, N + 2)
    assert (batched.stop_step, batched.stop_reason) == (reference.stop_step, reference.stop_reason)
    assert batched.sites[0].shape == reference.sites[0].shape
    if sites_agree:
        for b, r in zip(batched.sites, reference.sites):
            assert np.abs(b - r).max(initial=0.0) < 1e-11
        # the leading coefficients grow like 1 / prod rho, to ~1e4 at N = 32
        for b, r in ((batched.kappas, reference.kappas), (batched.kappas_tilde, reference.kappas_tilde)):
            size = np.linalg.norm(r, 2, axis=(1, 2))
            assert np.all(np.linalg.norm(b - r, 2, axis=(1, 2)) < 1e-11 * size)


@pytest.mark.parametrize("n_max", [-5, 0, 1])
def test_gram_schmidt_n_max_below_two_gives_the_constants(n_max):
    mu = ms.uniform_grid_measure(2, 8)
    g = ms.gram_schmidt(mu, np.eye(2), n_max)
    assert len(g.phis) == len(g.psis) == 1 and len(g.sites[0]) == 0 and g.stop_step is None
    assert np.allclose(g.phis[0][(g.phis.shape[1] - 1) // 2], np.eye(2))


def test_gram_schmidt_leading_structure(rng):
    z = ensembles.finite_zipper(6, 1, 8, ensemble="cmv")
    mu = ms.spectral_measure_finite(z)
    g = ms.gram_schmidt(mu, z.boundary_u, 8)
    K = (g.phis.shape[1] - 1) // 2
    for n, p in enumerate(g.phis, start=1):
        exponents = np.flatnonzero(np.any(p != 0, axis=(1, 2))) - K
        if n % 2 == 0:
            assert exponents.min() == -(n // 2)
        else:
            assert exponents.max() == n // 2
        kappa = g.kappas[n - 1]
        assert np.linalg.eigvalsh(mc.hermitize(kappa)).min() > 0 or n == 1


def test_gram_schmidt_recursion_residuals(rng):
    z = ensembles.finite_zipper(6, 2, 6)
    mu = ms.spectral_measure_finite(z)
    g = ms.gram_schmidt(mu, z.boundary_u, 8)
    assert ms.recursion_residual(g, mu) < 1e-7


def test_gram_schmidt_gauge_unitarity_and_normalization(rng):
    z = ensembles.finite_zipper(6, 2, 6)
    mu = ms.spectral_measure_finite(z)
    g = ms.gram_schmidt(mu, z.boundary_u, 8)
    one = np.eye(2)
    _, u_gauge, v_gauge = g.sites
    for u, v, a, rho, rho_t in zip(u_gauge, v_gauge, g.recursion_alpha, g.rho, g.rho_tilde):
        assert mc.unitary_defect(u) < 1e-7
        assert mc.unitary_defect(v) < 1e-7
        assert np.linalg.norm(rho @ mc.adj(rho) + a @ mc.adj(a) - one, 2) < 1e-8
        assert np.linalg.norm(rho_t @ mc.adj(rho_t) + mc.adj(a) @ a - one, 2) < 1e-8


def test_scalar_cmv_roundtrip(rng):
    for N in (4, 6, 8):
        z = ensembles.finite_zipper(60 + N, 1, N, ensemble="cmv")
        mu = ms.spectral_measure_finite(z)
        res = ms.zipper_from_measure(mu, z.boundary_u, N + 4)
        assert res.n_available >= N
        for n in range(2, N + 1):
            alpha, u_gauge, v_gauge = (x[n - 2] for x in res.gram.sites)
            assert np.abs(alpha - z.block(n).alpha).max() < 1e-6
            assert np.abs(u_gauge - 1.0).max() < 1e-7
            assert np.abs(v_gauge - 1.0).max() < 1e-7


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_scalar_cmv_roundtrip_n32(seed):
    z = ensembles.finite_zipper(seed, 1, 32, ensemble="cmv")
    mu = ms.spectral_measure_finite(z)
    res = ms.zipper_from_measure(mu, z.boundary_u, 34)
    assert res.n_available == 32
    for n in range(2, 33):
        alpha, u_gauge, v_gauge = (x[n - 2] for x in res.gram.sites)
        assert np.abs(alpha - z.block(n).alpha).max() < 1e-9
        assert np.abs(u_gauge - 1.0).max() < 1e-9
        assert np.abs(v_gauge - 1.0).max() < 1e-9


def test_scalar_cmv_rebuilt_resolvent(rng):
    z = ensembles.finite_zipper(61, 1, 6, ensemble="cmv")
    mu = ms.spectral_measure_finite(z)
    res = ms.zipper_from_measure(mu, z.boundary_u, 10)
    rebuilt = res.zipper.truncate(6, z.boundary_v)
    for _ in range(5):
        w = random_disc_point(rng)
        assert np.linalg.norm(weyl.f_matrix(rebuilt, w) - ms.caratheodory(mu, w), 2) < 1e-6


@pytest.mark.parametrize("L, N, ensemble", [(1, 8, "cmv"), (2, 6, "haar-gauge")])
def test_rebuilt_zipper_serves_the_gram_site_table(L, N, ensemble):
    z = ensembles.finite_zipper(7, L, N, ensemble=ensemble)
    res = ms.zipper_from_measure(ms.spectral_measure_finite(z), z.boundary_u, N + 2)
    assert res.n_available == len(res.gram.sites[0]) + 1
    res.zipper.extend(res.n_available)
    for rebuilt, recovered in zip(res.zipper.sites, res.gram.sites):
        assert np.array_equal(rebuilt, recovered)


@pytest.mark.parametrize("L, M", [(1, 12), (2, 8)])
def test_recovery_stops_at_the_contraction_boundary(monkeypatch, L, M):
    # with no degeneracy tolerance the ladder runs past the M atoms of the grid,
    # and the recovered alpha of site M + 1 reaches the unit sphere
    monkeypatch.setattr(ms, "GRAM_DEGENERACY_TOL", 0.0)
    mu = ms.uniform_grid_measure(L, M)
    g = ms.gram_schmidt(mu, np.eye(L), M + 2)
    assert g.stop_step == M + 1
    assert g.stop_reason == "recovered alpha reached the contraction boundary"
    assert len(g.sites[0]) == len(g.recursion_alpha) == M - 1
    assert np.linalg.norm(g.recursion_alpha, 2, axis=(-2, -1)).max() < 1.0 - 1e-12
    res = ms.zipper_from_measure(mu, np.eye(L), M + 2)
    res.zipper.extend(res.n_available)
    for rebuilt, recovered in zip(res.zipper.sites, g.sites):
        assert np.array_equal(rebuilt, recovered)


def test_two_atom_measure_finite_recursion():
    mu = ms.MatrixMeasure(np.array([1.0, -1.0]), np.array([[[0.5]], [[0.5]]]))
    res = ms.zipper_from_measure(mu, np.eye(1), 8)
    assert res.gram.stop_step == 3
    assert res.n_available == 2
    assert np.abs(res.gram.sites[0][0]).max() < 1e-12
    # closed form: F(z) = i (1 + z^2) / (1 - z^2)
    w = 0.3
    assert abs(ms.caratheodory(mu, w)[0, 0] - 1j * (1 + w ** 2) / (1 - w ** 2)) < 1e-12
    rebuilt = res.zipper.truncate(2, np.eye(1))
    assert abs(weyl.f_matrix(rebuilt, w)[0, 0] - 1j * (1 + w ** 2) / (1 - w ** 2)) < 1e-12


def test_block_diagonal_measure_decouples(rng):
    za = ensembles.finite_zipper(101, 1, 4, ensemble="cmv")
    zb = ensembles.finite_zipper(102, 1, 4, ensemble="cmv")
    zd = zp.direct_sum(za, zb)
    mu = ms.spectral_measure_finite(zd)
    res = ms.zipper_from_measure(mu, zd.boundary_u, 8)
    for n in range(2, 5):
        a = res.gram.sites[0][n - 2]
        assert abs(a[0, 1]) + abs(a[1, 0]) < 1e-7
        assert np.abs(a - zd.block(n).alpha).max() < 1e-7


def test_matrix_gauge_invariant_roundtrip(rng):
    # for L >= 2 the positive-kappa gauge differs from the input gauge, so
    # the comparison is through the gauge-invariant Caratheodory transform
    z = ensembles.finite_zipper(22, 2, 6, ensemble="haar-gauge")
    mu = ms.spectral_measure_finite(z)
    for _ in range(10):
        w = random_disc_point(rng)
        assert np.linalg.norm(ms.caratheodory(mu, w) - weyl.f_matrix(z, w), 2) < 1e-8


def test_uniform_grid_measure_is_free(rng):
    mu = ms.uniform_grid_measure(1, 8)
    res = ms.zipper_from_measure(mu, np.eye(1), 12)
    assert res.gram.stop_step == 9  # support exhausted after 8 steps
    assert res.gram.stop_reason == ("degenerate Gram normalizer at step 9: "
                                    "measure support exhausted (8 atoms of total rank 8)")
    for alpha in res.gram.sites[0]:
        assert np.abs(alpha).max() < 1e-10


def test_stop_reason_names_a_ladder_short_of_the_support():
    # the scalar N = 64 roundtrip stops at step 45 of 64 atoms: the monomial
    # ladder runs out of numerical rank long before the support does
    z = ensembles.finite_zipper(0, 1, 64, "cmv")
    g = ms.gram_schmidt(ms.spectral_measure_finite(z), z.boundary_u, 66)
    assert g.stop_step == 45
    head = "degenerate Gram normalizer at step 45 of 64 atoms: smallest phi normalizer eigenvalue "
    assert g.stop_reason.startswith(head) and "exhausted" not in g.stop_reason
    value, tol = g.stop_reason[len(head):].split(" < GRAM_DEGENERACY_TOL = ")
    assert 0.0 < float(value) < float(tol) == ms.GRAM_DEGENERACY_TOL


@pytest.mark.parametrize("L, N", [(2, 16), (3, 8)])
def test_stop_reason_counts_the_support_by_weight_rank(L, N):
    # N L atoms with rank-one weights hold N polynomials of size L, so step
    # N + 1 exhausts the support although the atoms number N L
    z = ensembles.finite_zipper(0, L, N, "haar-gauge")
    g = ms.gram_schmidt(ms.spectral_measure_finite(z), z.boundary_u, N + 2)
    assert g.stop_step == N + 1
    assert g.stop_reason == (f"degenerate Gram normalizer at step {N + 1}: "
                             f"measure support exhausted ({N * L} atoms of total rank {N * L})")
