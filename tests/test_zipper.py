"""Operator assembly, banded application, and the dense spectral oracle."""

import numpy as np
import pytest

from scatzip import ensembles, fileio, matrix_core as mc, transfer as tr
from scatzip import zipper as zp
from scatzip.errors import NumericalBreakdownError, ValidationError

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
    sites = ensembles.random_blocks([np.random.default_rng(0)], 1, "free")
    with pytest.raises(ValidationError, match="N must be even and >= 2, got 3"):
        zp.Zipper(1, 3, "finite", sites, np.eye(1), np.eye(1))


@pytest.mark.parametrize("N", [0, -2])
def test_seeded_constructors_reject_n_below_two(N):
    for make in (ensembles.finite_zipper, ensembles.periodic_zipper):
        with pytest.raises(ValidationError, match=f"N must be even and >= 2, got {N}"):
            make(0, 1, N)


@pytest.mark.parametrize("L, alpha_max, message", [
    (0, 0.5, "L must be >= 1, got 0"),
    (-1, 0.5, "L must be >= 1, got -1"),
    (1, 1.5, r"alpha_max must lie in \[0, 1\), got 1.5"),
    (2, 1.0, r"alpha_max must lie in \[0, 1\), got 1.0"),
    (1, -0.5, r"alpha_max must lie in \[0, 1\), got -0.5"),
    (1, float("nan"), r"alpha_max must lie in \[0, 1\), got nan"),
])
def test_seeded_constructors_reject_bad_l_and_alpha_max(L, alpha_max, message):
    for ensemble in ensembles.ENSEMBLES:
        for make in (ensembles.finite_zipper, ensembles.periodic_zipper):
            with pytest.raises(ValidationError, match=message):
                make(0, L, 4, ensemble, alpha_max)
        with pytest.raises(ValidationError, match=message):
            ensembles.semi_infinite_zipper(0, L, ensemble, alpha_max)


@pytest.mark.parametrize("seed", [-1, -3])
def test_seeded_constructors_reject_negative_seeds(seed):
    for make in (ensembles.finite_zipper, ensembles.periodic_zipper):
        with pytest.raises(ValidationError, match=f"seed must be >= 0, got {seed}"):
            make(seed, 1, 4)
    with pytest.raises(ValidationError, match=f"seed must be >= 0, got {seed}"):
        ensembles.semi_infinite_zipper(seed, 1)


def test_assemble_periodic_free_is_identity():
    # explicit 2x2 product: S_2 swap times the wrapped S_1 layer equals 1, so
    # the spectrum is the doubled eigenvalue 1
    z = ensembles.periodic_zipper(0, 1, 2, ensemble="free")
    op = zp.assemble_periodic(z)
    S2 = z.block(2).matrix
    S1 = z.block(1)
    wrapped = np.array([[S1.delta[0, 0], S1.gamma[0, 0]], [S1.beta[0, 0], S1.alpha[0, 0]]])
    assert np.allclose(op.to_dense(), S2 @ wrapped)
    spec = zp.dense_spectrum(op)
    assert np.allclose(spec.thetas, [0.0], atol=1e-12) and spec.multiplicities.tolist() == [2]


def test_assemble_periodic_corner_placement(rng):
    z = ensembles.periodic_zipper(5, 2, 6)
    S1 = z.block(1)
    # inspect the odd layer through the product with the inverted even layer
    op = zp.assemble_periodic(z)
    even = np.zeros((12, 12), dtype=complex)
    for n in (2, 4, 6):
        i = (n - 2) * 2
        even[i:i + 4, i:i + 4] = z.block(n).matrix
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
    doc = fileio.zipper_to_dict(ensembles.periodic_zipper(3, 1, 4))
    doc["blocks"] = [b for b in doc["blocks"] if b["n"] != 1]
    with pytest.raises(ValidationError, match="missing block S_1"):
        fileio.zipper_from_dict(doc)


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
    with pytest.raises(ValidationError, match="vector length"):
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


def test_dense_spectrum_cap(monkeypatch):
    z = ensembles.finite_zipper(1, 2, 6)
    monkeypatch.setattr(zp, "DENSE_CAP", 4)
    with pytest.raises(ValidationError, match="exceeds dense cap 4"):
        zp.dense_spectrum(zp.assemble_finite(z))


def test_direct_sum_doubles_multiplicities():
    z1 = ensembles.finite_zipper(23, 1, 4, ensemble="cmv")
    zd = zp.direct_sum(z1, z1)
    s1 = zp.dense_spectrum(zp.assemble_finite(z1))
    sd = zp.dense_spectrum(zp.assemble_finite(zd))
    assert np.allclose(s1.thetas, sd.thetas, atol=1e-9)
    assert np.array_equal(2 * s1.multiplicities, sd.multiplicities)


def _looped_clusters(thetas, window):
    """One group at a time: the sorted phases cut at gaps above ``window``, the last
    group joined in front of the first across the seam, centers by circular mean."""
    t = zp._fold(thetas)
    order = np.argsort(t)
    groups = zp._cluster_sorted(t[order], window)
    if len(groups) > 1 and t[order[0]] + 2 * np.pi - t[order[-1]] <= window:
        groups[0] = groups.pop() + groups[0]
    groups = [order[g] for g in groups]
    centers = zp._fold([np.angle(np.mean(np.exp(1j * t[g]))) for g in groups])
    rank = np.argsort(centers)
    return centers[rank], [len(groups[i]) for i in rank], [groups[i] for i in rank]


def test_circular_clusters_match_the_group_loop(rng):
    for case in range(240):
        centers = rng.uniform(0, 2 * np.pi, rng.integers(3, 30))
        if case % 3 == 0:  # a cluster on the seam
            centers[:3] = rng.uniform(-1e-9, 1e-9, 3)
        if case % 4 == 0:
            centers[0] = 2 * np.pi - 1e-12
        thetas = np.repeat(centers, rng.integers(1, 4, len(centers)))
        thetas = rng.permutation(thetas + rng.uniform(-1e-10, 1e-10, len(thetas)))
        result, groups = zp._circular_clusters(thetas, 1e-9)
        ref_centers, ref_mults, ref_groups = _looped_clusters(thetas, 1e-9)
        assert result.multiplicities.tolist() == ref_mults
        assert len(groups) == len(ref_groups)
        assert all(np.array_equal(g, r) for g, r in zip(groups, ref_groups))
        gap = np.abs(result.thetas - ref_centers)
        assert np.minimum(gap, 2 * np.pi - gap).max() <= 1e-15
    empty, groups = zp._circular_clusters([], 1e-9)
    assert len(empty.thetas) == len(empty.multiplicities) == len(groups) == 0


def test_semi_infinite_truncation_replayable():
    sem = ensembles.semi_infinite_zipper(5, 2, "cmv")
    z1 = sem.truncate(6, np.eye(2))
    sem2 = ensembles.semi_infinite_zipper(5, 2, "cmv")
    z2 = sem2.truncate(6, np.eye(2))
    for n in range(2, 7):
        assert np.array_equal(z1.block(n).matrix, z2.block(n).matrix)
    # block access order must not matter
    sem3 = ensembles.semi_infinite_zipper(5, 2, "cmv")
    b6 = sem3.block(6)
    assert np.array_equal(b6.matrix, z1.block(6).matrix)


def _dense_layers(z):
    """The even and the odd layer as dense matrices, built block by block from ``z.block(n)``."""
    L, N = z.L, z.N
    even = np.zeros((N * L, N * L), dtype=complex)
    odd = np.zeros_like(even)
    for n in range(2, N + 1):
        layer = even if n % 2 == 0 else odd
        layer[(n - 2) * L:n * L, (n - 2) * L:n * L] = z.block(n).matrix
    if z.flavor == "finite":
        odd[:L, :L], odd[-L:, -L:] = z.boundary_u, z.boundary_v
    else:  # S_1 on the site pair (N, 1)
        S1 = z.block(1)
        odd[-L:, -L:], odd[-L:, :L], odd[:L, -L:], odd[:L, :L] = S1.alpha, S1.beta, S1.gamma, S1.delta
    return even, odd


@pytest.mark.parametrize("flavor", ["finite", "periodic"])
@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("N", [2, 4, 8])
def test_band_is_even_layer_times_odd_layer(flavor, L, N):
    z = (ensembles.finite_zipper if flavor == "finite" else ensembles.periodic_zipper)(N + L, L, N)
    op = zp.assemble_finite(z) if flavor == "finite" else zp.assemble_periodic(z)
    even, odd = _dense_layers(z)
    assert op.band.shape == (N // 2, 2 * L, 4 * L)
    assert np.abs(op.to_dense() - even @ odd).max() < 1e-14
    assert op.block_bandwidth() == min(2, N // 2)
    if N > 2:  # row band p is the dense rows of sites 2p+1, 2p+2 at the columns of sites 2p, ..., 2p+3
        cols = ((2 * np.arange(N // 2)[:, None] + np.arange(4) - 1) % N)[..., None] * L + np.arange(L)
        dense = op.to_dense().reshape(N // 2, 2 * L, N * L)
        for p in range(N // 2):
            assert np.array_equal(op.band[p], dense[p][:, cols[p].ravel()])
    if flavor == "finite":  # the wrapped blocks of a finite band are exact zeros
        assert not op.band[0, :, :L].any() and not op.band[-1, :, 3 * L:].any()


def _twisted_dense(op, k):
    """The dense operator with its wrapped blocks scaled by e^(iNk) (row site 1) and e^(-iNk) (row site N)."""
    band = op.band.copy()
    band[0, :, :op.L] *= np.exp(1j * op.N * k)
    band[-1, :, 3 * op.L:] *= np.exp(-1j * op.N * k)
    return zp.BlockBandedUnitary(op.L, op.N, band, op.periodic).to_dense()


@pytest.mark.parametrize("L", [1, 2])
@pytest.mark.parametrize("N", [2, 4, 8])
def test_apply_matches_dense_on_periodic_and_random_bands(rng, L, N):
    # and with momenta: a scalar one for a vector, one per column of a block
    band = rng.standard_normal((N // 2, 2 * L, 4 * L)) + 1j * rng.standard_normal((N // 2, 2 * L, 4 * L))
    ops = [zp.fiber(ensembles.periodic_zipper(N, L, N), 0.4), zp.BlockBandedUnitary(L, N, band, periodic=True)]
    for op in ops:
        X = op.to_dense()
        for v in (rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim),
                  rng.standard_normal((op.dim, 3)) + 1j * rng.standard_normal((op.dim, 3))):
            out = zp.apply(op, v)
            assert out.shape == v.shape
            assert np.linalg.norm(out - X @ v) < 1e-12 * np.linalg.norm(v)
            k = rng.uniform(-np.pi, np.pi, v.shape[1:]) / N
            out = zp.apply(op, v, k)
            columns = zip(np.atleast_1d(k), v.reshape(op.dim, -1).T)
            expected = np.stack([_twisted_dense(op, kj) @ vj for kj, vj in columns], axis=-1).reshape(v.shape)
            assert np.linalg.norm(out - expected) < 1e-12 * np.linalg.norm(v)
            assert np.linalg.norm(out - X @ v) > 1e-3 * np.linalg.norm(v)  # the wrapped blocks were twisted


def _dense_arc_counts(thetas, centers, halfwidths):
    """Eigenphases strictly inside each arc, and the smallest distance of an eigenphase to an edge."""
    gap = np.abs(np.angle(np.exp(1j * (thetas[None, :] - centers[:, None]))))
    return (gap < halfwidths[:, None]).sum(axis=1), np.abs(gap - halfwidths[:, None]).min()


@pytest.mark.parametrize("args, k", [
    ((7, 1, 24, "haar-gauge", 0.85), None), ((124, 1, 24, "cmv", 0.95), None),
    ((5, 1, 16, "haar-gauge", 0.99), None), ((3, 3, 8, "cmv", 0.95), None), ((0, 2, 8, "free"), None),
    # periodic fibers: N = 2 and 4 alias the band columns; the free fiber at k = 0 has
    # its eigenvalue at theta = 0 with multiplicity 2L, at k = 0.3 each has multiplicity L
    ((1, 1, 2, "cmv", 0.95), 0.3), ((2, 2, 2, "haar-gauge", 0.99), -0.55),
    ((3, 1, 4, "haar-gauge", 0.99), 0.0), ((4, 2, 4, "cmv", 0.95), -1.1 / 4),
    ((0, 2, 4, "free"), 0.0), ((0, 2, 4, "free"), 0.3), ((5, 3, 6, "cmv", 0.95), 0.3),
    ((6, 1, 12, "haar-gauge", 0.99), -1.1 / 12), ((0, 1, 100, "haar-gauge", 0.999), 0.0)],
    ids=["L1N24haar085s7", "L1N24cmv095", "L1N16haar099", "L3N8cmv095", "L2N8free",
         "P L1N2cmv095", "P L2N2haar099", "P L1N4haar099 k0", "P L2N4cmv095", "P L2N4free k0",
         "P L2N4free", "P L3N6cmv095", "P L1N12haar099", "P L1N100haar0999 k0"])
def test_arc_counts_match_the_dense_spectrum(args, k):
    if k is None:
        z = ensembles.finite_zipper(*args)
        op = zp.assemble_finite(z)
    else:
        z = ensembles.periodic_zipper(*args)
        op = zp.fiber(z, k)
    thetas = zp.dense_spectrum(op).expanded_thetas()
    assert len(thetas) == z.N * z.L
    rng = np.random.default_rng(sum(args[:3]))
    centers = rng.uniform(0.0, 2 * np.pi, 400)
    halfwidths = np.concatenate([rng.uniform(1e-3, np.pi - 1e-3, 300), rng.uniform(1e-3, 0.05, 100)])
    expected, margin = _dense_arc_counts(thetas, centers, halfwidths)
    assert margin > 1e-9  # no eigenvalue sits on an edge
    counts = zp.arc_counts(op, centers, halfwidths)
    assert np.array_equal(counts, expected)
    assert 0 < counts.max() and counts.min() == 0


@pytest.mark.parametrize("kind", ["finite", "periodic", "fiber", "momenta"])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_arc_counts_match_dense_counts_on_random_arcs(kind, L):
    # every N from the aliased N = 2 and 4 up to 24, every ensemble, the free one
    # included.  A sweep's arcs from pi / 2 below a grid point are a quarter turn
    # wide at the opposite grid point, where the free zipper puts zeros on the
    # diagonal of invertible pivot blocks; the periodic free zipper has no diagonal
    # blocks at all, so there the first pivot block itself is -cos(pi / 2) = 6e-17.
    # "momenta" spreads the arcs of one call on the periodic band over four
    # momenta, each checked against the dense fiber at its momentum
    rng = np.random.default_rng([L, len(kind)])
    arcs = 0
    for N in (2, 4, 6, 24):
        for ensemble in ("cmv", "haar-gauge", "free"):
            momenta = np.zeros(60)
            if kind == "finite":
                op = zp.assemble_finite(ensembles.finite_zipper(N + L, L, N, ensemble, 0.9))
            else:
                z = ensembles.periodic_zipper(N + L, L, N, ensemble, 0.9)
                op = zp.assemble_periodic(z) if kind != "fiber" else zp.fiber(z, rng.uniform(-np.pi, np.pi) / N)
            if kind == "momenta":
                momenta = (rng.uniform(-np.pi, np.pi, 4) / N)[np.arange(60) % 4]
                thetas = np.array([zp.dense_spectrum(zp.fiber(z, k)).expanded_thetas() for k in momenta])
            else:
                thetas = zp.dense_spectrum(op).expanded_thetas()[None, :]
            centers = rng.uniform(0.0, 2 * np.pi, 60)
            quarter = 10 if kind == "finite" else 0
            halfwidths = np.r_[rng.uniform(1e-3, np.pi - 1e-3, 60 - quarter), np.full(quarter, 0.5 * np.pi)]
            gap = np.abs(np.angle(np.exp(1j * (thetas - centers[:, None]))))
            clear = np.abs(gap - halfwidths[:, None]).min(axis=1) > 1e-9  # no eigenvalue on an edge
            if kind == "momenta":
                counts = zp.arc_counts(op, centers[clear], halfwidths[clear], momenta[clear])
            else:
                counts = zp.arc_counts(op, centers[clear], halfwidths[clear])
            assert np.array_equal(counts, (gap[clear] < halfwidths[clear, None]).sum(axis=1)), (N, ensemble)
            arcs += clear.sum()
    assert arcs > 0.9 * 12 * 60


@pytest.mark.parametrize("L", [1, 2])
def test_arc_counts_see_an_eigenvalue_at_zero_with_its_multiplicity(L):
    # the free N = 4 zipper has the eigenvalues 1, i, -1, -i, each of multiplicity L
    op = zp.assemble_finite(_free_finite(L, 4))
    counts = zp.arc_counts(op, np.array([0.0, 2 * np.pi - 0.1, 0.2, np.pi / 2, 0.0]),
                           np.array([0.3, 0.2, 0.1, 3.0, 3.0]))
    assert counts.tolist() == [L, L, 0, 3 * L, 3 * L]


def test_arc_counts_refuse_an_eigenvalue_on_an_edge():
    # the arc (pi / 4 - pi / 4, pi / 4 + pi / 4) ends on the eigenvalues 1 and i
    op = zp.assemble_finite(_free_finite(1, 4))
    with pytest.raises(NumericalBreakdownError, match=r"an eigenvalue lies on its edge"):
        zp.arc_counts(op, np.array([1.0, np.pi / 4]), np.array([0.3, np.pi / 4]))


def test_arc_counts_read_the_band_alone(monkeypatch):
    # and so do the solves and the steps of inverse iteration, with momenta too
    from scatzip import oscillation as osc

    cases = [(ensembles.finite_zipper(7, 2, 8, "haar-gauge", 0.85), zp.assemble_finite),
             (ensembles.periodic_zipper(7, 2, 8, "haar-gauge", 0.85), zp.assemble_periodic)]
    centers, halfwidths = np.linspace(0.1, 6.0, 40), np.linspace(0.05, 3.0, 40)
    momenta = np.linspace(-np.pi, np.pi, 40) / 8
    rhs = np.random.default_rng(3).standard_normal((16, 40)) + 0j

    def read(op):
        return (zp.arc_counts(op, centers, halfwidths), zp.shifted_solve(op, centers, rhs),
                *osc._inverse_step(op, centers, None, np.zeros(40)), zp.arc_counts(op, centers, halfwidths, momenta),
                zp.shifted_solve(op, centers, rhs, momenta), *osc._inverse_step(op, centers, None, momenta))

    before = [read(assemble(z)) for z, assemble in cases]
    for z, _ in cases:
        z.phi_table()[3] = 1e3 * np.eye(4)  # corrupt the cached phi table in place
        assert np.abs(z.phi_table()[3] - 1e3 * np.eye(4)).max() == 0
    for name in ("propagate", "chart_chain"):
        monkeypatch.setattr(tr, name, lambda *a, **k: pytest.fail("the count ran a transfer chain"))
    for (z, assemble), expected in zip(cases, before):
        for out, ref in zip(read(assemble(z)), expected):
            assert np.array_equal(out, ref)


@pytest.mark.parametrize("kind", ["finite", "periodic", "fiber", "momenta"])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_shifted_solve_matches_a_dense_solve(kind, L):
    # H(theta) = 1 - Re(e^(-i theta) U) is nearly singular next to an eigenvalue,
    # so the check is the backward error; ||H|| <= 2.  "momenta" solves every
    # column at its own momentum, against U with its wrapped blocks twisted
    rng = np.random.default_rng([L, 7])
    for N in (2, 4, 10):
        if kind == "finite":
            op = zp.assemble_finite(ensembles.finite_zipper(N, L, N, "haar-gauge", 0.9))
        else:
            z = ensembles.periodic_zipper(N, L, N, "cmv", 0.9)
            op = zp.assemble_periodic(z) if kind != "fiber" else zp.fiber(z, 0.3 / N)
        thetas = rng.uniform(0.0, 2 * np.pi, 5)
        rhs = rng.standard_normal((op.dim, 5)) + 1j * rng.standard_normal((op.dim, 5))
        if kind == "momenta":
            momenta = rng.uniform(-np.pi, np.pi, 5) / N
            x = zp.shifted_solve(op, thetas, rhs, momenta)
        else:
            momenta = np.zeros(5)
            x = zp.shifted_solve(op, thetas, rhs)
        for j, theta in enumerate(thetas):
            U = _twisted_dense(op, momenta[j])
            H = np.eye(op.dim) - 0.5 * (np.exp(-1j * theta) * U + np.exp(1j * theta) * U.conj().T)
            assert np.linalg.norm(H @ x[:, j] - rhs[:, j]) < 1e-13 * np.linalg.norm(x[:, j]), (N, j)
    with pytest.raises(ValidationError, match=r"rhs must have shape"):
        zp.shifted_solve(op, thetas, rhs[:, :4])


def test_shifted_solve_takes_its_columns_in_one_elimination(monkeypatch):
    # the caller bounds the columns (oscillation._inverse_step); the solve keeps
    # the layout of rhs, in which the caller's column sums are rounded
    op = zp.assemble_finite(ensembles.finite_zipper(2, 2, 12, "cmv", 0.9))
    rng = np.random.default_rng(4)
    thetas = rng.uniform(0.0, 2 * np.pi, 7)
    rhs = rng.standard_normal((7, op.dim)) + 1j * rng.standard_normal((7, op.dim))
    widths = []
    eliminate = zp._eliminate
    monkeypatch.setattr(zp, "_eliminate", lambda op, phi, *a: widths.append(len(phi)) or eliminate(op, phi, *a))
    U = op.to_dense()
    for layout in (rhs.T, np.ascontiguousarray(rhs.T)):
        widths.clear()
        x = zp.shifted_solve(op, thetas, layout)
        assert widths == [7]
        assert x.flags.f_contiguous == layout.flags.f_contiguous and x.flags.c_contiguous == layout.flags.c_contiguous
        for j, theta in enumerate(thetas):
            H = np.eye(op.dim) - 0.5 * (np.exp(-1j * theta) * U + np.exp(1j * theta) * U.conj().T)
            assert np.linalg.norm(H @ x[:, j] - layout[:, j]) < 1e-13 * np.linalg.norm(x[:, j]), j


@pytest.mark.parametrize("args", [(0, 1, 256, "haar-gauge", 0.85), (0, 2, 128, "cmv", 0.5)],
                         ids=["L1N256haar085", "L2N128cmv05"])
def test_arc_counts_stream_their_superblocks(args):
    # the first count of a short sweep: both grid halves from pi / 2 below their
    # first theta, 8 N L + 2 arcs.  Stacking every superblock of every arc
    # peaked at 67 MB and 135 MB; one superblock at a time needs a few MB
    import tracemalloc

    op = zp.assemble_finite(ensembles.finite_zipper(*args))
    grid = 8 * op.dim
    thetas = 2 * np.pi * (0.37 + np.arange(grid + 1)) / grid
    h = grid // 2
    x = np.r_[thetas[:h + 1], thetas[h:]]
    anchor = np.repeat(thetas[[0, h]] - 0.5 * np.pi, [h + 1, grid - h + 1])
    centers, halfwidths = 0.5 * (x + anchor), 0.5 * (x - anchor)
    tracemalloc.start()
    try:
        counts = zp.arc_counts(op, centers, halfwidths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(centers) == grid + 2
    assert peak < 8e6, f"{peak / 1e6:.1f} MB"
    expected, margin = _dense_arc_counts(zp.dense_spectrum(op).expanded_thetas(), centers, halfwidths)
    assert margin > 1e-9
    assert np.array_equal(counts, expected)


def test_arc_counts_reject_bad_arcs():
    op = zp.assemble_finite(_free_finite(1, 4))
    for halfwidths in ([0.0], [np.pi], [np.nan], [-0.1]):
        with pytest.raises(ValidationError, match=r"half-widths must lie in \(0, pi\)"):
            zp.arc_counts(op, [1.0], halfwidths)
    with pytest.raises(ValidationError, match="arc centers must be finite"):
        zp.arc_counts(op, [np.nan], [0.1])
    with pytest.raises(ValidationError, match="1-D of one length"):
        zp.arc_counts(op, [1.0, 2.0], [0.1])


@pytest.mark.parametrize("thetas, message", [
    (0.3, r"thetas must be 1-D, got shape \(\)"), ([[0.3]], r"thetas must be 1-D, got shape \(1, 1\)"),
    ([np.nan], "thetas must be finite"), ([np.inf], "thetas must be finite")],
    ids=["scalar", "two-dimensional", "nan", "inf"])
def test_shifted_solve_rejects_bad_thetas(thetas, message):
    op = zp.assemble_finite(_free_finite(1, 4))
    with pytest.raises(ValidationError, match=message):
        zp.shifted_solve(op, thetas, np.ones((4, 1), dtype=complex))


@pytest.mark.parametrize("call", ["arc_counts", "shifted_solve", "apply"])
@pytest.mark.parametrize("momenta, message", [
    (np.nan, "momenta must be finite"), ([0.1, np.inf], "momenta must be finite"),
    ([0.1, 0.2, 0.3], r"momenta must broadcast to the columns \(2,\), got \(3,\)"),
    (np.zeros((2, 2)), r"momenta must broadcast to the columns \(2,\), got \(2, 2\)")],
    ids=["nan", "inf", "three for two", "two-dimensional"])
def test_momenta_must_be_finite_and_broadcast_to_the_columns(call, momenta, message):
    op = zp.assemble_periodic(ensembles.periodic_zipper(1, 1, 4))
    thetas, rhs = np.array([1.0, 2.0]), np.ones((4, 2), dtype=complex)
    calls = {"arc_counts": lambda k: zp.arc_counts(op, thetas, [0.1, 0.2], k),
             "shifted_solve": lambda k: zp.shifted_solve(op, thetas, rhs, k),
             "apply": lambda k: zp.apply(op, rhs, k)}
    with pytest.raises(ValidationError, match=message):
        calls[call](momenta)


def test_a_vector_takes_one_momentum():
    op = zp.assemble_periodic(ensembles.periodic_zipper(1, 1, 4))
    v = np.arange(4.0) + 0j
    assert np.allclose(zp.apply(op, v, 0.2), zp.apply(op, v[:, None], [0.2])[:, 0])
    with pytest.raises(ValidationError, match=r"momenta must broadcast to the columns \(\), got \(1,\)"):
        zp.apply(op, v, [0.2])
