"""Pruefer phases, crossing sweeps, checkerboard doubling, and bands."""

import numpy as np
import pytest

from scatzip import ensembles, matrix_core as mc, oscillation as osc, transfer as tr
from scatzip import zipper as zp
from scatzip.errors import CrossingCountMismatchError, SizeMismatchError, ValidationError

def test_prufer_unitary_and_eigenvalue_one(rng):
    z = ensembles.finite_zipper(3, 2, 6)
    spec = zp.dense_spectrum(zp.assemble_finite(z))
    for idx in range(3):
        W = osc.prufer(z, np.exp(1j * spec.thetas[idx])).matrix
        assert mc.unitary_defect(W) < 1e-8
        assert np.min(np.abs(np.linalg.eigvals(W) - 1)) < 1e-6


def test_prufer_multiplicity_equals_intersection(rng):
    z = ensembles.finite_zipper(3, 2, 6)
    spec = zp.dense_spectrum(zp.assemble_finite(z))
    th = spec.thetas[1]
    W = osc.prufer(z, np.exp(1j * th)).matrix
    frame = tr.propagate(z, np.exp(1j * th), z.N).matrix
    psi_v = np.vstack([np.eye(2), z.boundary_v]) / np.sqrt(2)
    dim = mc.subspace_intersection_dim(frame, psi_v, tol=1e-6)
    mult = int(np.sum(np.abs(np.linalg.eigvals(W) - 1) < 1e-6))
    assert dim == mult == spec.multiplicities[1]
    # kernel-dimension characterization
    kdim = int(np.sum(np.linalg.svd(mc.adj(frame) @ mc.lform(2) @ psi_v,
                                    compute_uv=False) < 1e-6))
    assert kdim == mult


def test_prufer_invariant_under_renormalization(rng):
    z = ensembles.finite_zipper(3, 2, 8)
    w = np.exp(0.93j)
    W1 = osc.prufer(z, w).matrix
    raw = tr.propagate(z, w, 8, renormalize=False)
    W2 = np.linalg.solve(raw.upper().T, raw.lower().T).T @ mc.adj(z.boundary_v)
    assert np.linalg.norm(W1 - W2, 2) < 1e-9


def test_prufer_free_two_site_closed_form():
    # all-swap N=2: the phase matrix is exp(2 i theta)
    z = ensembles.finite_zipper(0, 1, 2, ensemble="free")
    for theta in (0.3, 1.7, 4.0):
        W = osc.prufer(z, np.exp(1j * theta)).matrix
        assert abs(W[0, 0] - np.exp(2j * theta)) < 1e-12


def test_spectrum_by_oscillation_matches_dense(rng):
    for seed, L, N in [(1, 1, 4), (2, 1, 8), (3, 2, 6), (4, 2, 8)]:
        z = ensembles.finite_zipper(seed, L, N)
        dense = zp.dense_spectrum(zp.assemble_finite(z))
        s = osc.spectrum_by_oscillation(z)
        assert s.total_multiplicity == N * L
        assert np.array_equal(s.multiplicities, dense.multiplicities)
        assert np.abs(s.expanded_thetas() - dense.expanded_thetas()).max() < 1e-7


def test_spectrum_by_oscillation_free_case():
    z = ensembles.finite_zipper(0, 1, 4, ensemble="free")
    s = osc.spectrum_by_oscillation(z)
    assert np.allclose(np.sort(s.thetas), [0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-9)


def test_spectrum_oscillation_direct_sum_doubles(rng):
    z1 = ensembles.finite_zipper(23, 1, 4, ensemble="cmv")
    zd = zp.direct_sum(z1, z1)
    s1 = osc.spectrum_by_oscillation(z1)
    sd = osc.spectrum_by_oscillation(zd)
    assert np.allclose(s1.thetas, sd.thetas, atol=1e-7)
    assert np.array_equal(2 * s1.multiplicities, sd.multiplicities)


def test_spectrum_grid_floor(rng):
    z = ensembles.finite_zipper(1, 1, 4)
    with pytest.raises(ValidationError):
        osc.spectrum_by_oscillation(z, grid_size=8)


def test_rotation_positivity_random_points(rng):
    z = ensembles.finite_zipper(31, 2, 6)
    for _ in range(10):
        assert osc.rotation_positivity_check(z, rng.uniform(0, 2 * np.pi)) > 0


def test_rotation_positivity_free_symbolic():
    # W = exp(2 i theta) for the free two-site zipper, so the derivative is 2
    z = ensembles.finite_zipper(0, 1, 2, ensemble="free")
    d1 = osc.rotation_positivity_check(z, 0.8, h=1e-4)
    d2 = osc.rotation_positivity_check(z, 0.8, h=5e-5)
    assert abs(d1 - 2.0) < 1e-6
    assert abs(d2 - 2.0) < abs(d1 - 2.0)  # central difference refines as O(h^2)


def test_checkerboard_identity_and_form():
    assert np.allclose(osc.checkerboard_sum(np.eye(2), np.eye(2)), np.eye(4))
    Lh = osc.checkerboard_sum(mc.lform(2), mc.lform(2))
    assert np.allclose(Lh, mc.lform(4))


def test_checkerboard_conserves_doubled_form(rng):
    from scatzip.scattering import phi

    T = phi(ensembles.random_block(rng, 2, "haar-gauge"))
    hatT = osc.checkerboard_sum(np.eye(4), T)
    Lh = osc.checkerboard_sum(mc.lform(2), mc.lform(2))
    assert np.linalg.norm(mc.adj(hatT) @ Lh @ hatT - Lh, 2) < 1e-10


def test_checkerboard_multiplicative(rng):
    from scatzip.scattering import phi

    a, b, c, d = (phi(ensembles.random_block(rng, 2, "haar-gauge")) for _ in range(4))
    lhs = osc.checkerboard_sum(a @ c, b @ d)
    rhs = osc.checkerboard_sum(a, b) @ osc.checkerboard_sum(c, d)
    assert np.linalg.norm(lhs - rhs, 2) < 1e-12


def test_checkerboard_size_mismatch():
    with pytest.raises(SizeMismatchError):
        osc.checkerboard_sum(np.eye(2), np.eye(4))


def test_doubled_frame_chart_is_swap():
    frame = osc.doubled_initial_frame(2)
    a, b = frame[:4], frame[4:]
    assert np.allclose(a @ np.linalg.inv(b), osc._swap(2))
    Lh = mc.lform(4)
    assert np.linalg.norm(mc.adj(frame) @ Lh @ frame, 2) < 1e-14


def test_prufer_periodic_frame_matches_checkerboard_product():
    # propagate keeps the doubled frame in the row order (carried upper,
    # carried lower, acted upper, acted lower); swapping the middle two L-row
    # blocks gives the checkerboard order of (1 (+) T_N...T_1) times the start
    for seed, L in [(12, 1), (13, 2)]:
        z = ensembles.periodic_zipper(seed, L, 6)
        fac = tr.TransferFactory(z)
        start = osc.doubled_initial_frame(L)
        perm = np.r_[0:L, 2 * L:3 * L, L:2 * L, 3 * L:4 * L]
        for theta in (0.4, 2.1, 5.3):
            w = np.exp(1j * theta)
            ref = osc.checkerboard_sum(np.eye(2 * L), fac.product(z.N, w)) @ start
            frame = tr.propagate(z, w, z.N, factory=fac, start=start).matrix[perm]
            assert mc.principal_sines(frame, ref).max() < 1e-10
            W_ref = mc.adj(ref[:2 * L] @ np.linalg.inv(ref[2 * L:])) @ osc._swap(L)
            W = osc.prufer_periodic(z, w, factory=fac).matrix
            assert np.linalg.norm(W - W_ref, 2) < 1e-10


def test_prufer_periodic_eigenvalue_one(rng):
    z = ensembles.periodic_zipper(12, 2, 4)
    spec = zp.dense_spectrum(zp.assemble_periodic(z))
    for idx in range(3):
        W = osc.prufer_periodic(z, np.exp(1j * spec.thetas[idx])).matrix
        assert mc.unitary_defect(W) < 1e-8
        assert np.min(np.abs(np.linalg.eigvals(W) - 1)) < 1e-6


def test_prufer_periodic_positivity(rng):
    z = ensembles.periodic_zipper(12, 1, 4)
    for _ in range(5):
        assert osc.rotation_positivity_check(z, rng.uniform(0, 2 * np.pi)) > 0


def test_spectrum_periodic_matches_dense(rng):
    for seed, L, N in [(11, 1, 4), (12, 2, 4), (13, 1, 6), (14, 2, 6)]:
        z = ensembles.periodic_zipper(seed, L, N)
        dense = zp.dense_spectrum(zp.assemble_periodic(z))
        s = osc.spectrum_periodic(z)
        assert np.array_equal(s.multiplicities, dense.multiplicities)
        assert np.abs(s.expanded_thetas() - dense.expanded_thetas()).max() < 1e-7


def test_spectrum_periodic_free_two_site():
    # the wrapped free operator is the identity: eigenvalue 1 of multiplicity 2
    z = ensembles.periodic_zipper(0, 1, 2, ensemble="free")
    s = osc.spectrum_periodic(z)
    assert len(s.thetas) == 1
    assert abs(np.mod(s.thetas[0] + np.pi, 2 * np.pi) - np.pi) < 1e-9
    assert s.multiplicities.tolist() == [2]


def test_spectrum_periodic_direct_sum_doubles(rng):
    z1 = ensembles.periodic_zipper(24, 1, 4, ensemble="cmv")
    zd = zp.direct_sum(z1, z1)
    s1 = osc.spectrum_periodic(z1)
    sd = osc.spectrum_periodic(zd)
    assert np.allclose(s1.thetas, sd.thetas, atol=1e-7)
    assert np.array_equal(2 * s1.multiplicities, sd.multiplicities)


def test_bands_free_case_covers_circle():
    z = ensembles.periodic_zipper(0, 1, 2, ensemble="free")
    bs = osc.bands(z, 64)
    assert bs.max_circle_gap() < 2 * np.pi / 64


def test_bands_k_zero_column(rng):
    z = ensembles.periodic_zipper(25, 1, 4, ensemble="cmv")
    fz = osc.fiber_zipper(z, 0.0)
    s0 = osc.spectrum_periodic(fz)
    s = osc.spectrum_periodic(z)
    assert np.allclose(s0.expanded_thetas(), s.expanded_thetas(), atol=1e-9)


def test_bands_continuity(rng):
    z = ensembles.periodic_zipper(25, 1, 4, ensemble="cmv")
    bs = osc.bands(z, 16)
    table = bs.eigenphase_table()
    dk = bs.ks[1] - bs.ks[0]
    # eigenphases are Lipschitz in k with slope at most N
    jumps = np.abs(np.diff(table, axis=0))
    jumps = np.minimum(jumps, 2 * np.pi - jumps)
    assert jumps.max() < 4 * z.N * dk


def test_prufer_array_equals_stacked_scalar_calls():
    thetas = np.array([0.3, 1.1, 2.9, 4.4, 6.1])
    for L in (1, 2, 3):
        for z, phase in [(ensembles.finite_zipper(60 + L, L, 6), osc.prufer),
                         (ensembles.periodic_zipper(70 + L, L, 4), osc.prufer_periodic)]:
            batch = phase(z, np.exp(1j * thetas))
            stacked = np.array([phase(z, np.exp(1j * t)).matrix for t in thetas])
            assert batch.matrix.shape == stacked.shape
            assert np.abs(batch.matrix - stacked).max() < 1e-12


def test_prufer_nudges_only_the_degenerate_point(monkeypatch):
    from scatzip.errors import DegeneratePhiBlockError

    z = ensembles.finite_zipper(3, 2, 6)
    points = np.exp(1j * np.array([0.4, 1.9, 3.3, 5.0]))
    plain = osc.prufer(z, points)
    chart_regular = osc._chart_regular
    batches = []

    def flaky(a):
        ok = chart_regular(a)
        if not batches:
            ok[2] = False  # the third point reads degenerate on its first attempt
        batches.append(len(a))
        return ok

    monkeypatch.setattr(osc, "_chart_regular", flaky)
    nudged = osc.prufer(z, points)
    assert batches == [4, 1]  # only that point is propagated again
    others = [0, 1, 3]
    assert np.array_equal(nudged.z[others], plain.z[others])
    assert np.array_equal(nudged.matrix[others], plain.matrix[others])
    assert nudged.z[2] == plain.z[2] * np.exp(1e-12j)
    assert np.abs(nudged.matrix[2] - osc.prufer(z, nudged.z[2]).matrix).max() < 1e-13

    # the last point of every batch reads degenerate, so the nudged one stays so
    monkeypatch.setattr(osc, "_chart_regular", lambda a: np.arange(len(a)) < len(a) - 1)
    with pytest.raises(DegeneratePhiBlockError):
        osc.prufer(z, points)


def test_stall_instance_sweeps_in_few_batched_calls(monkeypatch):
    # gen --L 1 --N 24 --alpha-max 0.85 --seed 7: the sweep doubles its grid
    # 7 times (to 24576 points), so one call per theta would be ~28400 calls;
    # batched calls of at most SWEEP_BLOCK theta need a few dozen
    from scatzip.cli import _cyclic_pairing

    z = ensembles.finite_zipper(7, 1, 24, "haar-gauge", 0.85)
    prufer = osc.prufer
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        if len(calls) > 200:
            raise AssertionError("more than 200 Pruefer calls")
        return prufer(*args, **kwargs)

    monkeypatch.setattr(osc, "prufer", counted)
    swept = osc.spectrum_by_oscillation(z)
    dense = zp.dense_spectrum(zp.assemble_finite(z))
    assert swept.total_multiplicity == dense.total_multiplicity == 24
    assert _cyclic_pairing(dense.expanded_thetas(), swept.expanded_thetas())[1] < 1e-9


def _reference_shift(p, q, mono_tol=1e-7):
    """One row at a time: the smallest shift s whose increments are all >= -mono_tol."""
    m = len(p)
    j = np.arange(m)
    for s in range(2 * m + 1):
        if np.all(q[(j + s) % m] + 2 * np.pi * ((j + s) // m) - p >= -mono_tol):
            return s
    return None


def test_seam_passages_match_the_scalar_shift_rule():
    rng = np.random.default_rng(5)
    for m in range(1, 5):
        p = np.sort(rng.uniform(0, 2 * np.pi, (400, m)), axis=1)
        q = np.sort(rng.uniform(0, 2 * np.pi, (400, m)), axis=1)
        # q entirely below p: every shift under m fails, so the answer is m
        p[:50] = np.sort(rng.uniform(np.pi, 2 * np.pi, (50, m)), axis=1)
        q[:50] = np.sort(rng.uniform(0, np.pi, (50, m)), axis=1)
        # phases of exactly 2 pi, as np.mod returns for tiny negative angles
        p[50:100, -1] = 2 * np.pi
        q[75:125, -1] = 2 * np.pi
        # increments within the monotonicity tolerance
        q[125:150] = p[125:150] - 5e-8
        count = osc._seam_passages(p, q)
        expected = np.array([_reference_shift(a, b) for a, b in zip(p, q)])
        assert np.array_equal(count, expected), m
        assert np.all(count <= m) and np.all(count[:50] == m), m
        assert set(count[150:]) == set(range(m + 1)), m


def _diagonal_family(phase_fns):
    """thetas -> stack of diag(exp(i f(theta))) over the increasing phase functions."""
    return lambda thetas: np.stack([np.diag(np.exp(1j * np.array([f(t) for f in phase_fns])))
                                    for t in np.asarray(thetas)])


def test_sweep_splits_two_crossings_in_one_interval():
    grid = 16
    h = 2 * np.pi / grid
    left = 0.37 * h + 3 * h  # grid point 3 of the sweep
    crossings = [left + 0.1, left + 0.25, 4.0]
    wfn = _diagonal_family([lambda t, c=c: t - c for c in crossings])
    count = osc._seam_passages(osc._sample(wfn, [left]), osc._sample(wfn, [left + h]))
    assert count.tolist() == [2]
    res = osc.sweep_spectrum(wfn, 3, grid)
    assert res.multiplicities.tolist() == [1, 1, 1]
    assert np.abs(res.thetas - np.sort(crossings)).max() < 1e-9


def test_sweep_returns_an_exact_double_crossing_with_multiplicity_two():
    wfn = _diagonal_family([lambda t: t - 2.5, lambda t: t - 2.5, lambda t: t - 5.0])
    res = osc.sweep_spectrum(wfn, 3, 16)
    assert res.multiplicities.tolist() == [2, 1]
    assert np.abs(res.thetas - [2.5, 5.0]).max() < 1e-9


def test_sweep_doubles_the_grid_for_a_fast_branch():
    # diag(exp(40 i theta)) turns 2.5 times per interval of a 16-point grid;
    # one row counts at most one passage, so the count only matches at grid 64
    wfn = _diagonal_family([lambda t: 40 * t])
    with pytest.raises(CrossingCountMismatchError, match=r"\(grid 16\)"):
        osc.sweep_spectrum(wfn, 40, 16, retries=0)
    res = osc.sweep_spectrum(wfn, 40, 16)
    assert res.multiplicities.tolist() == [1] * 40
    expected = 2 * np.pi * np.arange(40) / 40
    gap = np.abs(res.thetas[:, None] - expected[None, :])
    assert np.minimum(gap, 2 * np.pi - gap).min(axis=0).max() < 1e-9
