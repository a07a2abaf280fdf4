"""Pruefer phases, crossing sweeps, checkerboard doubling, and bands."""

import re

import numpy as np
import pytest

from scatzip import ensembles, matrix_core as mc, oscillation as osc, transfer as tr, weyl
from scatzip import zipper as zp
from scatzip.errors import NumericalBreakdownError, ValidationError

from conftest import HandBuiltTable, checkerboard_sum, doubled_initial_frame, per_site_prufer


def test_prufer_unitary_and_eigenvalue_one(rng):
    z = ensembles.finite_zipper(3, 2, 6)
    spec = zp.dense_spectrum(zp.assemble_finite(z))
    for idx in range(3):
        W = osc.prufer(z, np.exp(1j * spec.thetas[idx]))
        assert mc.unitary_defect(W) < 1e-8
        assert np.min(np.abs(np.linalg.eigvals(W) - 1)) < 1e-6


def test_prufer_multiplicity_equals_intersection(rng):
    z = ensembles.finite_zipper(3, 2, 6)
    spec = zp.dense_spectrum(zp.assemble_finite(z))
    th = spec.thetas[1]
    W = osc.prufer(z, np.exp(1j * th))
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
    W1 = osc.prufer(z, w)
    raw = tr.transfer_product(z, 8, w) @ np.vstack([np.eye(2)] * 2)
    W2 = np.linalg.solve(raw[:2].T, raw[2:].T).T @ mc.adj(z.boundary_v)
    assert np.linalg.norm(W1 - W2, 2) < 1e-9


def test_prufer_free_two_site_closed_form():
    # all-swap N=2: the phase matrix is exp(2 i theta)
    z = ensembles.finite_zipper(0, 1, 2, ensemble="free")
    for theta in (0.3, 1.7, 4.0):
        W = osc.prufer(z, np.exp(1j * theta))
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


@pytest.mark.parametrize("grid", [float("nan"), float("inf"), 100.5])
@pytest.mark.parametrize("entry", ["spectrum_by_oscillation", "bands"])
def test_sweep_grid_must_be_an_integer_at_the_floor(entry, grid):
    with pytest.raises(ValidationError, match=f"grid size {grid} must be an integer"):
        if entry == "bands":
            osc.bands(ensembles.periodic_zipper(1, 1, 4), 4, grid_size=grid)
        else:
            osc.spectrum_by_oscillation(ensembles.finite_zipper(1, 1, 4), grid_size=grid)


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


@pytest.mark.parametrize("theta, h, name", [(0.3, 0.0, "h"), (0.3, -1e-5, "h"), (0.3, float("nan"), "h"),
                                             (0.3, float("inf"), "h"), (float("nan"), 1e-5, "theta")])
def test_rotation_positivity_check_rejects_a_bad_theta_or_step(theta, h, name):
    z = ensembles.finite_zipper(31, 2, 6)
    with pytest.raises(ValidationError, match=rf"^{name} must be finite"):
        osc.rotation_positivity_check(z, theta, h=h)


def test_oscillation_entry_points_reject_a_semi_infinite_zipper():
    # rotation_positivity_check used to name prufer_periodic, which it never asked for
    z = ensembles.semi_infinite_zipper(0, 1)
    for call in (lambda: osc.rotation_positivity_check(z, 0.3), lambda: osc.spectrum_by_oscillation(z)):
        with pytest.raises(ValidationError, match=r"^oscillation spectra need a finite or periodic zipper$"):
            call()


def test_checkerboard_identity_and_form():
    assert np.allclose(checkerboard_sum(np.eye(2), np.eye(2)), np.eye(4))
    Lh = checkerboard_sum(mc.lform(2), mc.lform(2))
    assert np.allclose(Lh, mc.lform(4))


def test_checkerboard_conserves_doubled_form(rng):
    from scatzip.scattering import phi

    T = phi(ensembles.random_block(rng, 2, "haar-gauge"))
    hatT = checkerboard_sum(np.eye(4), T)
    Lh = checkerboard_sum(mc.lform(2), mc.lform(2))
    assert np.linalg.norm(mc.adj(hatT) @ Lh @ hatT - Lh, 2) < 1e-10


def test_checkerboard_multiplicative(rng):
    from scatzip.scattering import phi

    a, b, c, d = (phi(ensembles.random_block(rng, 2, "haar-gauge")) for _ in range(4))
    lhs = checkerboard_sum(a @ c, b @ d)
    rhs = checkerboard_sum(a, b) @ checkerboard_sum(c, d)
    assert np.linalg.norm(lhs - rhs, 2) < 1e-12


def test_checkerboard_size_mismatch():
    with pytest.raises(ValidationError, match=r"shapes \(2, 2\) and \(4, 4\) differ"):
        checkerboard_sum(np.eye(2), np.eye(4))


def test_doubled_frame_chart_is_swap():
    frame = doubled_initial_frame(2)
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
        start = doubled_initial_frame(L)
        perm = np.r_[0:L, 2 * L:3 * L, L:2 * L, 3 * L:4 * L]
        for theta in (0.4, 2.1, 5.3):
            w = np.exp(1j * theta)
            ref = checkerboard_sum(np.eye(2 * L), tr.transfer_product(z, z.N, w)) @ start
            frame = tr.propagate(z, w, z.N, factory=fac, start=start).matrix[perm]
            assert mc.principal_sines(frame, ref).max() < 1e-10
            W_ref = mc.adj(ref[:2 * L] @ np.linalg.inv(ref[2 * L:])) @ osc._swap(L)
            W = osc.prufer_periodic(z, w, factory=fac)
            assert np.linalg.norm(W - W_ref, 2) < 1e-10


def test_prufer_periodic_eigenvalue_one(rng):
    z = ensembles.periodic_zipper(12, 2, 4)
    spec = zp.dense_spectrum(zp.assemble_periodic(z))
    for idx in range(3):
        W = osc.prufer_periodic(z, np.exp(1j * spec.thetas[idx]))
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
        s = osc.spectrum_by_oscillation(z)
        assert np.array_equal(s.multiplicities, dense.multiplicities)
        assert np.abs(s.expanded_thetas() - dense.expanded_thetas()).max() < 1e-7


def test_spectrum_periodic_free_two_site():
    # the wrapped free operator is the identity: eigenvalue 1 of multiplicity 2
    z = ensembles.periodic_zipper(0, 1, 2, ensemble="free")
    s = osc.spectrum_by_oscillation(z)
    assert len(s.thetas) == 1
    assert abs(np.mod(s.thetas[0] + np.pi, 2 * np.pi) - np.pi) < 1e-9
    assert s.multiplicities.tolist() == [2]


def test_spectrum_periodic_direct_sum_doubles(rng):
    z1 = ensembles.periodic_zipper(24, 1, 4, ensemble="cmv")
    zd = zp.direct_sum(z1, z1)
    s1 = osc.spectrum_by_oscillation(z1)
    sd = osc.spectrum_by_oscillation(zd)
    assert np.allclose(s1.thetas, sd.thetas, atol=1e-7)
    assert np.array_equal(2 * s1.multiplicities, sd.multiplicities)


def test_bands_free_case_covers_circle():
    z = ensembles.periodic_zipper(0, 1, 2, ensemble="free")
    bs = osc.bands(z, 64)
    assert bs.max_circle_gap() < 2 * np.pi / 64


def test_bands_k_zero_column(rng):
    z = ensembles.periodic_zipper(25, 1, 4, ensemble="cmv")
    fz = zp.fiber_zipper(z, 0.0)
    s0 = osc.spectrum_by_oscillation(fz)
    s = osc.spectrum_by_oscillation(z)
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


@pytest.mark.parametrize("L", [1, 2, 3])
def test_bands_match_the_dense_fibers(L):
    # the Floquet twist of one untwisted sweep against the dense fiber at every momentum
    from scatzip.cli import _cyclic_pairing

    cases = [(ensembles.periodic_zipper(40 + N, L, N, ensemble), 8)
             for N in (2, 4, 8) for ensemble in ("cmv", "haar-gauge")]
    cases.append((ensembles.periodic_zipper(0, L, 4, "free"), 16))
    for z, n_k in cases:
        bs = osc.bands(z, n_k)
        assert len(bs.ks) == n_k
        for k, swept in zip(bs.ks, bs.spectra):
            dense = zp.dense_spectrum(zp.fiber(z, k))
            assert swept.total_multiplicity == z.N * L
            assert _cyclic_pairing(dense.expanded_thetas(), swept.expanded_thetas())[1] < 1e-9
            if np.all(z.sites[0] == 0):  # free: every eigenvalue has multiplicity L
                assert set(swept.multiplicities) == set(dense.multiplicities) == {L}


def test_bands_is_one_sweep_with_few_prufer_calls(monkeypatch):
    z = ensembles.periodic_zipper(3, 2, 8, "haar-gauge")
    hits = dict.fromkeys(("prufer_periodic", "sweep_spectrum"), 0)
    for name in hits:
        def counted(*args, _fn=getattr(osc, name), _name=name, **kwargs):
            hits[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(osc, name, counted)
    bs = osc.bands(z, 64)
    assert len(bs.spectra) == 64
    assert hits["sweep_spectrum"] == 1
    assert hits["prufer_periodic"] <= 40


def test_bands_count_only_the_momenta_whose_first_grid_is_short(monkeypatch):
    # at 6 of these 16 momenta the default grid of 64 misses a crossing; a
    # doubling sweep sampled 64 more theta for those six, the count samples
    # no second grid.  Their arcs are counted, and their brackets of one
    # eigenvalue solved, on the one band stack of the periodic operator, each
    # at its own momentum: no fiber is assembled, and every level of
    # ``_locate`` makes at most one count call for all six
    from scatzip.cli import _cyclic_pairing

    z = ensembles.periodic_zipper(6, 1, 8, "haar-gauge", 0.99)
    calls, levels, counts = [], [], []
    sample_grid, below, arc_counts = osc._sample_grid, osc._below, osc.arc_counts

    def recorded(wfn, thetas, twists):
        calls.append((len(thetas), len(twists)))
        return sample_grid(wfn, thetas, twists)

    def counted(*args):
        counts.append(args)
        return arc_counts(*args)

    monkeypatch.setattr(osc, "_sample_grid", recorded)
    monkeypatch.setattr(osc, "_below", lambda *args: levels.append(1) or below(*args))
    monkeypatch.setattr(osc, "arc_counts", counted)
    with monkeypatch.context() as patch:
        for name in ("fiber", "fiber_zipper"):
            patch.setattr(zp, name, lambda *args: pytest.fail("bands assembled a fiber"))
        bs = osc.bands(z, 16)
    assert calls == [(65, 16)]
    assert counts and len(counts) == len(levels)  # one count call per count of a level
    assert all(args[0] is counts[0][0] for args in counts)
    assert np.array_equal(counts[0][0].band, zp.assemble_periodic(z).band)
    assert len(set(counts[0][3])) == 6 and set(counts[0][3]) <= set(bs.ks)  # the short momenta, in one call
    for k, swept in zip(bs.ks, bs.spectra):
        dense = zp.dense_spectrum(zp.fiber(z, k))
        assert swept.multiplicities.tolist() == dense.multiplicities.tolist()
        assert _cyclic_pairing(dense.expanded_thetas(), swept.expanded_thetas())[1] < 1e-12


def test_bands_of_a_narrow_periodic_resonance_match_the_dense_fibers(monkeypatch):
    # every momentum of this zipper counts: finished by count bisection on
    # per-fiber band stacks, the bands took 29 prufer_periodic calls and erred
    # 6.1e-11; inverse iteration at each momentum takes a few
    from scatzip.cli import _cyclic_pairing

    z = ensembles.periodic_zipper(0, 1, 100, "haar-gauge", 0.999)
    points = _counted_prufer(monkeypatch, "prufer_periodic")
    bs = osc.bands(z, 8)
    assert len(points) <= 8
    for k, swept in zip(bs.ks, bs.spectra):
        dense = zp.dense_spectrum(zp.fiber(z, k))
        assert swept.multiplicities.tolist() == dense.multiplicities.tolist()
        assert _cyclic_pairing(dense.expanded_thetas(), swept.expanded_thetas())[1] < 1e-12


@pytest.mark.parametrize("k_grid", [2.5, float("nan"), "3", 0], ids=["2.5", "nan", "'3'", "0"])
def test_bands_momentum_grid_must_be_an_integer_at_least_one(k_grid):
    # 2.5 used to sweep 3 momenta at spacing 2 pi / (2.5 N); nan and "3"
    # escaped as a bare ValueError and TypeError
    with pytest.raises(ValidationError, match=rf"momentum grid size must be an integer >= 1, "
                                              rf"got {re.escape(repr(k_grid))}$"):
        osc.bands(ensembles.periodic_zipper(1, 1, 4), k_grid)


def test_bands_caps_the_matrices_per_call_at_the_sweep_block(monkeypatch):
    # 512 momenta times 17 grid theta: with a block of 64 no Pruefer call takes
    # more than 64 points and no eigvals call more than 64 matrices
    z = ensembles.periodic_zipper(4, 1, 2, "cmv")
    wide = osc.bands(z, 512)
    points, matrices = [], []
    prufer_periodic, sorted_phases = osc.prufer_periodic, osc._sorted_phases

    def counted_prufer(zipper, w, **kwargs):
        points.append(len(w))
        return prufer_periodic(zipper, w, **kwargs)

    def counted_phases(W):
        matrices.append(int(np.prod(W.shape[:-2])))
        return sorted_phases(W)

    monkeypatch.setattr(osc, "SWEEP_BLOCK", 64)
    monkeypatch.setattr(osc, "prufer_periodic", counted_prufer)
    monkeypatch.setattr(osc, "_sorted_phases", counted_phases)
    narrow = osc.bands(z, 512)
    assert max(points) == max(matrices) == 64
    assert sum(matrices) >= 512 * 17
    assert np.array_equal(narrow.eigenphase_table(), wide.eigenphase_table())


def test_bands_sweeps_the_momenta_in_chunks_under_the_row_cap(monkeypatch):
    # 64 momenta times 129 grid theta; a cap of 1000 rows sweeps 7 momenta at a time
    z = ensembles.periodic_zipper(3, 2, 8, "haar-gauge")
    whole = osc.bands(z, 64)
    rows, sweeps = [], []
    sample_grid, sweep_spectrum = osc._sample_grid, osc.sweep_spectrum

    def recorded(wfn, thetas, twists):
        rows.append(len(thetas) * len(twists))
        return sample_grid(wfn, thetas, twists)

    def counted(*args, **kwargs):
        sweeps.append(len(kwargs["twists"]))
        return sweep_spectrum(*args, **kwargs)

    monkeypatch.setattr(osc, "BANDS_SAMPLE_ROWS", 1000)
    monkeypatch.setattr(osc, "_sample_grid", recorded)
    monkeypatch.setattr(osc, "sweep_spectrum", counted)
    chunked = osc.bands(z, 64)
    assert sweeps == [7] * 9 + [1]
    assert max(rows) <= 1000
    assert np.array_equal(chunked.eigenphase_table(), whole.eigenphase_table())


def test_family_sweep_mismatch_names_the_member():
    # exp(40 i theta) twisted by 1 and exp(0.5 i) comes up short on a 16-point
    # grid for both members; each is counted on its own crossings, and a
    # count that loses a crossing of member 1 is named in the error
    twists = np.exp(1j * np.array([0.0, 0.5]))[:, None, None]
    wfn = _diagonal_family([lambda t: 40 * t])
    crossings = np.mod((2 * np.pi * np.arange(40) - np.array([[0.0], [0.5]])) / 40, 2 * np.pi)
    res = osc.sweep_spectrum(wfn, 40, 16, _arc_count(crossings), twists=twists).spectra
    for j in range(2):
        assert res[j].multiplicities.tolist() == [1] * 40
        assert np.abs(np.sort(res[j].thetas) - np.sort(crossings[j])).max() < 1e-9
    crossings[1, 7] = np.nan  # never inside an arc
    with pytest.raises(NumericalBreakdownError, match=r"arc counts of member 1 find 39 eigenvalues "
                                                      r"in the grid intervals, expected 40"):
        osc.sweep_spectrum(wfn, 40, 16, _arc_count(crossings), twists=twists)


def test_prufer_array_equals_stacked_scalar_calls():
    thetas = np.array([0.3, 1.1, 2.9, 4.4, 6.1])
    for L in (1, 2, 3):
        for z, phase in [(ensembles.finite_zipper(60 + L, L, 6), osc.prufer),
                         (ensembles.periodic_zipper(70 + L, L, 4), osc.prufer_periodic)]:
            batch = phase(z, np.exp(1j * thetas))
            stacked = np.array([phase(z, np.exp(1j * t)) for t in thetas])
            assert batch.shape == stacked.shape
            assert np.abs(batch - stacked).max() < 1e-12


def _frame_chart(frame, upper, lower):
    """b a^(-1) for the rows ``upper`` (a) and ``lower`` (b) of each frame of a stack."""
    a, b = frame[:, upper], frame[:, lower]
    return np.swapaxes(np.linalg.solve(np.swapaxes(a, 1, 2), np.swapaxes(b, 1, 2)), 1, 2)


def test_chart_chain_matches_propagated_frames():
    # the Moebius chart chain and the QR-renormalized frames of propagate are
    # two routes to the same Lagrangian plane
    thetas = np.linspace(0.0, 2 * np.pi, 64, endpoint=False) + 0.013
    w = np.exp(1j * thetas)
    for L in (1, 2, 3):
        for z in (ensembles.finite_zipper(40 + L, L, 12, "cmv", 0.95),
                  ensembles.finite_zipper(50 + L, L, 10, "haar-gauge"),
                  ensembles.finite_zipper(0, L, 6, "free")):
            frame = tr.propagate(z, w, z.N).matrix
            ref = _frame_chart(frame, slice(0, L), slice(L, 2 * L)) @ mc.adj(z.boundary_v)
            assert np.abs(osc.prufer(z, w) - ref).max() < 1e-12
    for L in (1, 2):
        for z in (ensembles.periodic_zipper(60 + L, L, 6, "cmv", 0.9),
                  ensembles.periodic_zipper(70 + L, L, 4, "haar-gauge")):
            frame = tr.propagate(z, w, z.N, start=doubled_initial_frame(L)).matrix
            ref = _frame_chart(frame, np.r_[0:L, 2 * L:3 * L], np.r_[L:2 * L, 3 * L:4 * L]) @ osc._swap(L)
            assert np.abs(osc.prufer_periodic(z, w) - ref).max() < 1e-12


@pytest.mark.parametrize("args", [(ensembles.finite_zipper, (124, 1, 24, "cmv", 0.95)),
                                  (ensembles.finite_zipper, (3, 3, 40, "haar-gauge", 0.99)),
                                  (ensembles.finite_zipper, (0, 1, 100, "haar-gauge", 0.999)),
                                  (ensembles.periodic_zipper, (0, 1, 100, "haar-gauge", 0.999))])
def test_prufer_stays_unitary_on_the_hard_sweep_instances(args):
    make, shape = args
    z = make(*shape)
    phase = osc.prufer if z.flavor == "finite" else osc.prufer_periodic
    thetas = 0.37 * 2 * np.pi / 512 + np.arange(512) * (2 * np.pi / 512)
    W = phase(z, np.exp(1j * thetas))
    assert np.abs(mc.adj(W) @ W - np.eye(W.shape[-1])).max() < 1e-10


@pytest.mark.parametrize("make, args", [
    (ensembles.finite_zipper, (31, 1, 8, "cmv", 0.5)), (ensembles.finite_zipper, (32, 2, 12, "haar-gauge", 0.85)),
    (ensembles.finite_zipper, (33, 3, 16, "haar-gauge", 0.95)), (ensembles.finite_zipper, (0, 2, 8, "free")),
    (ensembles.finite_zipper, (0, 1, 100, "haar-gauge", 0.999)),
    (ensembles.periodic_zipper, (34, 1, 8, "cmv", 0.9)), (ensembles.periodic_zipper, (35, 2, 12, "haar-gauge", 0.85)),
    (ensembles.periodic_zipper, (0, 1, 100, "haar-gauge", 0.999))],
    ids=["L1N8cmv", "L2N12haar", "L3N16haar", "L2N8free", "L1N100haar0999",
         "P1N8cmv", "P2N12haar", "P1N100haar0999"])
def test_pair_chain_matches_the_per_site_reference(make, args):
    # one Moebius step per site pair against one per site, at the first grid of a sweep
    z = make(*args)
    n = 8 * z.N * z.L
    w = np.exp(1j * (0.37 * 2 * np.pi / n + np.arange(n) * (2 * np.pi / n)))
    phase = osc.prufer if z.flavor == "finite" else osc.prufer_periodic
    assert np.abs(phase(z, w) - per_site_prufer(z, w)).max() < 1e-11


def test_prufer_makes_one_batched_solve_per_site_pair_and_no_qr(monkeypatch):
    calls = {"solve": 0, "qr": 0}
    solve, qr = np.linalg.solve, np.linalg.qr

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "solve", counted("solve", solve))
    monkeypatch.setattr(np.linalg, "qr", counted("qr", qr))
    w = np.exp(1j * np.linspace(0.1, 6.2, 97))
    for z, phase, points in [(ensembles.finite_zipper(5, 2, 16), osc.prufer, w),
                             (ensembles.periodic_zipper(5, 2, 8), osc.prufer_periodic, w),
                             (ensembles.finite_zipper(5, 2, 16), weyl.e_matrix, 0.9 * w)]:
        z.phi_table()  # built with the zipper, not counted below
        calls.update(solve=0, qr=0)
        phase(z, points)
        assert calls == {"solve": z.N // 2, "qr": 0}


def test_prufer_periodic_builds_no_table_per_point():
    # the pair rows are folded once per call, not once per point and site pair
    import tracemalloc

    z = ensembles.periodic_zipper(0, 1, 512, "cmv", 0.5)
    z.phi_table()
    w = np.exp(1j * (0.37 * 2 * np.pi / 1024 + np.arange(1024) * (2 * np.pi / 1024)))
    tracemalloc.start()
    try:
        osc.prufer_periodic(z, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_prufer_guard_names_the_point_of_a_non_unitary_chart(monkeypatch):
    # diag(1 + 2e-6, 1 + 2e-6, 1, 1) leaves U(L, L) by a little, so W leaves the
    # unitary group by 1.4e-7 to 1.7e-5 depending on z: the points past 1e-6
    # break down to NaN matrices, the others keep the chain's W
    z = ensembles.finite_zipper(3, 2, 6)
    table = z.phi_table().copy()
    table[3] = np.diag([1 + 2e-6, 1 + 2e-6, 1.0, 1.0]) @ table[3]
    thetas = 2 * np.pi * np.array([1, 2, 3, 5, 9]) / 13
    w = np.exp(1j * thetas)
    chain = tr.chart_chain(tr.pair_table(table), w, mc.eye(2), slice(None))[0] @ mc.adj(z.boundary_v)
    defect = np.abs(mc.adj(chain) @ chain - np.eye(2)).max(axis=(1, 2))
    W = osc.prufer(z, w, factory=HandBuiltTable(table))
    broken = np.isnan(W).all(axis=(1, 2))
    assert broken.tolist() == (defect > osc.PRUFER_UNITARY_TOL).tolist() == [False, True, False, True, True]
    assert np.array_equal(W[~broken], chain[~broken])
    # a check that needs W raises a breakdown naming the point, never LinAlgError
    prufer = osc.prufer
    monkeypatch.setattr(osc, "prufer", lambda zipper, z: prufer(zipper, z, factory=HandBuiltTable(table)))
    with pytest.raises(NumericalBreakdownError, match=r"Pruefer unitary at z = 0\.568065\+0\.822984j "
                                                      r"has unitarity defect above 1e-06"):
        osc.rotation_positivity_check(z, thetas[1])
    assert osc.rotation_positivity_check(z, thetas[0]) > 0


def test_verify_reports_a_prufer_breakdown_as_a_breakdown(monkeypatch):
    # eigvals on a NaN matrix raises numpy's LinAlgError, which the CLI does not catch
    from scatzip import verify

    prufer = osc.prufer
    monkeypatch.setattr(osc, "prufer", lambda zipper, z: np.full_like(prufer(zipper, z), np.nan))
    with pytest.raises(NumericalBreakdownError, match=r"Pruefer unitary at z = .* has unitarity defect above 1e-06"):
        verify.oscillation_checks(0)


def test_stall_instance_sweeps_in_few_batched_calls(monkeypatch):
    # gen --L 1 --N 24 --alpha-max 0.85 --seed 7: a doubling sweep went to
    # 24576 points, ~28400 calls at one call per theta; batched calls of at
    # most SWEEP_BLOCK theta needed 31, and inverse iteration on the band
    # finishes the counted brackets with no Pruefer call at all
    from scatzip.cli import _cyclic_pairing

    z = ensembles.finite_zipper(7, 1, 24, "haar-gauge", 0.85)
    prufer = osc.prufer
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        if len(calls) > 6:
            raise AssertionError("more than 6 Pruefer calls")
        return prufer(*args, **kwargs)

    monkeypatch.setattr(osc, "prufer", counted)
    swept = osc.spectrum_by_oscillation(z)
    dense = zp.dense_spectrum(zp.assemble_finite(z))
    assert swept.total_multiplicity == dense.total_multiplicity == 24
    assert _cyclic_pairing(dense.expanded_thetas(), swept.expanded_thetas())[1] < 1e-9


@pytest.mark.parametrize("args", [(7, 1, 24, "haar-gauge", 0.85), (2, 1, 8, "haar-gauge", 0.95)],
                         ids=["L1N24haar085s7", "L1N8haar095s2"])
def test_counted_sweeps_finish_by_inverse_iteration(monkeypatch, args):
    # the two counted sweeps of the spectra benchmark: 31 and 32 Pruefer calls
    # when count bisection and ITP finished their brackets; now one count of the
    # first grid and a few batched solves, exact to rounding instead of
    # midpoints within refine_tol / 2
    from scatzip.cli import _cyclic_pairing

    z = ensembles.finite_zipper(*args)
    points = _counted_prufer(monkeypatch)
    counts, solves = [], []
    arc_counts, step = osc.arc_counts, osc._inverse_step
    monkeypatch.setattr(osc, "arc_counts", lambda *a: counts.append(1) or arc_counts(*a))
    monkeypatch.setattr(osc, "_inverse_step", lambda *args: solves.append(len(args[1])) or step(*args))
    swept = osc.spectrum_by_oscillation(z)
    dense = zp.dense_spectrum(zp.assemble_finite(z))
    assert len(points) <= 6 and counts and len(solves) <= osc.INVERSE_STEPS
    assert swept.multiplicities.tolist() == dense.multiplicities.tolist()
    assert _cyclic_pairing(dense.expanded_thetas(), swept.expanded_thetas())[1] < 1e-12


def test_inverse_iteration_takes_its_runs_in_blocks(monkeypatch):
    # 24 runs in blocks of 5: five solves per step, the same crossings.  A run
    # holds 3 P m^2 kept factors and 4 N L apply entries (P = 12, m = 2, N L = 24)
    from scatzip.cli import _cyclic_pairing

    z = ensembles.finite_zipper(7, 1, 24, "haar-gauge", 0.85)
    widths = []
    solve = osc.shifted_solve
    monkeypatch.setattr(osc, "SOLVE_BLOCK", 5 * (3 * 12 * 2 ** 2 + 4 * 24))
    monkeypatch.setattr(osc, "shifted_solve", lambda *args: widths.append(len(args[1])) or solve(*args))
    swept = osc.spectrum_by_oscillation(z)
    dense = zp.dense_spectrum(zp.assemble_finite(z))
    assert widths[:5] == [5, 5, 5, 5, 4] and max(widths) == 5
    assert swept.multiplicities.tolist() == dense.multiplicities.tolist()
    assert _cyclic_pairing(dense.expanded_thetas(), swept.expanded_thetas())[1] < 1e-12


def test_inverse_iteration_that_leaves_its_bracket_falls_back_to_count_bisection(monkeypatch):
    # every run turned half a circle away: each bracket goes back to the counts,
    # which cut it, and its parts run again until the counts locate it
    from scatzip.cli import _cyclic_pairing

    z = ensembles.finite_zipper(7, 1, 24, "haar-gauge", 0.85)
    runs = _runs_leave_their_brackets(monkeypatch)
    counts = []
    arc_counts = osc.arc_counts
    monkeypatch.setattr(osc, "arc_counts", lambda *a: counts.append(1) or arc_counts(*a))
    swept = osc.spectrum_by_oscillation(z)
    dense = zp.dense_spectrum(zp.assemble_finite(z))
    assert runs[0] == 24 and len(counts) > 1
    assert swept.multiplicities.tolist() == dense.multiplicities.tolist()
    assert _cyclic_pairing(dense.expanded_thetas(), swept.expanded_thetas())[1] < 1e-9


def test_inverse_iteration_that_passes_its_step_cap_falls_back_to_count_bisection(monkeypatch):
    # a run whose residual never falls below refine_tol / 2 is handed back after
    # INVERSE_STEPS solves
    from scatzip.cli import _cyclic_pairing

    z = ensembles.finite_zipper(2, 1, 8, "haar-gauge", 0.95)
    runs = []
    step = osc._inverse_step

    def slow(*args):
        runs.append(len(args[1]))
        vectors, theta, radius = step(*args)
        return vectors, theta, np.maximum(radius, 1e-9)

    monkeypatch.setattr(osc, "_inverse_step", slow)
    swept = osc.spectrum_by_oscillation(z)
    dense = zp.dense_spectrum(zp.assemble_finite(z))
    assert runs[:osc.INVERSE_STEPS] == [runs[0]] * osc.INVERSE_STEPS
    assert swept.multiplicities.tolist() == dense.multiplicities.tolist()
    assert _cyclic_pairing(dense.expanded_thetas(), swept.expanded_thetas())[1] < 1e-9


def _reference_shift(p, q, mono_tol=1e-7):
    """One row at a time: the smallest shift s whose increments are all >= -mono_tol."""
    m = len(p)
    j = np.arange(m)
    for s in range(2 * m + 1):
        if np.all(q[(j + s) % m] + 2 * np.pi * ((j + s) // m) - p >= -mono_tol):
            return s
    return None


def test_a_run_past_its_step_cap_bisects_a_bracket_whose_sample_broke_down(monkeypatch):
    # the first grid matches; the samples break down near the eigenvalue
    # farthest from it, so that bracket turns counted, and its run, whose
    # residual never falls below refine_tol / 2, spends INVERSE_STEPS solves.
    # Its bracket then bisects by counts to refine_tol: restarted every
    # seventh level instead, it stopped 5e-5 from the eigenvalue after 60 solves
    z = ensembles.finite_zipper(1, 1, 12, "cmv", 0.5)
    dense = zp.dense_spectrum(zp.assemble_finite(z)).expanded_thetas()
    grid = 8 * z.N * z.L
    thetas = osc.TWO_PI * (0.37 + np.arange(grid + 1)) / grid
    gap = np.abs(np.angle(np.exp(1j * (dense[:, None] - thetas[None, :])))).min(axis=1)
    far = dense[np.argmax(gap)]
    broken = _breaking_down_near(monkeypatch, [far], 0.5 * gap.max())
    solves = []
    step = osc._inverse_step

    def slow(*args):
        solves.append(len(args[1]))
        vectors, theta, radius = step(*args)
        return vectors, theta, np.maximum(radius, 1e-9)

    monkeypatch.setattr(osc, "_inverse_step", slow)
    swept = osc.spectrum_by_oscillation(z).expanded_thetas()
    assert broken and solves == [1] * len(solves) and len(solves) <= osc.INVERSE_STEPS
    assert len(swept) == len(dense)
    assert np.abs(np.angle(np.exp(1j * (swept - far)))).min() < 1e-9


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


def _arc_count(crossings):
    """The arc count of a family whose member j crosses at the theta crossings[j]."""
    crossings = np.atleast_2d(crossings)

    def arc_count(members, centers, halfwidths):
        gap = np.abs(np.angle(np.exp(1j * (crossings[members] - centers[:, None]))))
        return (gap < halfwidths[:, None]).sum(axis=1)
    return arc_count


def _never_counted(members, centers, halfwidths):
    """The arc count of a sweep whose first grid matches: it is never called."""
    pytest.fail("a sweep whose first grid matches counted arcs")


def test_sweep_splits_two_crossings_in_one_interval():
    grid = 16
    h = 2 * np.pi / grid
    left = 0.37 * h + 3 * h  # grid point 3 of the sweep
    crossings = [left + 0.1, left + 0.25, 4.0]
    wfn = _diagonal_family([lambda t, c=c: t - c for c in crossings])
    count = osc._seam_passages(*osc._sample_grid(wfn, [left, left + h], osc.UNTWISTED)[0, :, None])
    assert count.tolist() == [2]
    res = osc.sweep_spectrum(wfn, 3, grid, _never_counted).spectra[0]
    assert res.multiplicities.tolist() == [1, 1, 1]
    assert np.abs(res.thetas - np.sort(crossings)).max() < 1e-9


def test_sweep_returns_an_exact_double_crossing_with_multiplicity_two():
    wfn = _diagonal_family([lambda t: t - 2.5, lambda t: t - 2.5, lambda t: t - 5.0])
    res = osc.sweep_spectrum(wfn, 3, 16, _never_counted).spectra[0]
    assert res.multiplicities.tolist() == [2, 1]
    assert np.abs(res.thetas - [2.5, 5.0]).max() < 1e-9


def test_sweep_refines_double_eigenvalues_on_their_centroid(monkeypatch):
    # every eigenvalue of the free L = 2 zipper is double: ITP on the mean of
    # the two crossing branches takes 8 levels where bisection took 28
    from scatzip.cli import _cyclic_pairing

    z = ensembles.finite_zipper(0, 2, 16, "free")
    points = _counted_prufer(monkeypatch)
    swept = osc.spectrum_by_oscillation(z)
    dense = zp.dense_spectrum(zp.assemble_finite(z))
    assert len(points) <= 12
    assert swept.multiplicities.tolist() == dense.multiplicities.tolist() == [2] * 16
    assert _cyclic_pairing(dense.expanded_thetas(), swept.expanded_thetas())[1] < 1e-12


def test_sweep_splits_every_interval_of_a_fast_branch():
    # diag(exp(40 i theta)) turns 2.5 times per interval of a 16-point grid;
    # one row counts at most one passage, so the grid comes up short, every
    # interval is counted (2 or 3 crossings) and cut by counts, all 16
    # midpoints in one count call, and nothing is sampled after the grid
    wfn, calls = _counted(_diagonal_family([lambda t: 40 * t]))
    expected = 2 * np.pi * np.arange(40) / 40
    count, arcs = _arc_count(expected), []
    res = osc.sweep_spectrum(wfn, 40, 16, lambda *args: arcs.append(len(args[0])) or count(*args)).spectra[0]
    assert calls == [17]
    assert arcs[:2] == [18, 16]
    assert res.multiplicities.tolist() == [1] * 40
    gap = np.abs(res.thetas[:, None] - expected[None, :])
    assert np.minimum(gap, 2 * np.pi - gap).min(axis=0).max() < 1e-9


def test_locate_raises_when_the_counts_of_a_cut_disagree():
    # the counts of the first grid hold, then every count lies by 100: a left
    # half cannot hold more eigenvalues than its bracket
    wfn = _diagonal_family([lambda t: 40 * t])
    count, calls = _arc_count(2 * np.pi * np.arange(40) / 40), []

    def lying(members, centers, halfwidths):
        calls.append(1)
        return count(members, centers, halfwidths) + (100 if len(calls) > 1 else 0)

    with pytest.raises(NumericalBreakdownError, match=r"arc counts of \[\d\.\d+, \d\.\d+\] disagree: "
                                                      r"10[0-3] in its left half of [23]$"):
        osc.sweep_spectrum(wfn, 40, 16, lying)
    assert len(calls) == 2


def test_locate_raises_when_the_counts_miss_a_bracket_whose_sample_broke_down():
    # the grid certifies the one crossing at 2.5; the next sample breaks down,
    # so the bracket is counted at both ends, and a count that finds nothing
    # there contradicts the sweep
    family, calls = _counted(_diagonal_family([lambda t: t - 2.5]))

    def wfn(thetas):
        W = family(thetas)
        return W if len(calls) == 1 else np.full_like(W, np.nan)

    with pytest.raises(NumericalBreakdownError, match=r"arc counts find 0 eigenvalues in "
                                                      r"\[\d\.\d+, \d\.\d+\], the sweep 1$"):
        osc.sweep_spectrum(wfn, 1, 16, lambda members, centers, halfwidths: np.zeros(len(members), dtype=int))
    assert calls == [17, 1]


def _counted(wfn):
    """wfn and a list that grows by one entry per call of it."""
    calls = []

    def counted(thetas):
        calls.append(len(thetas))
        return wfn(thetas)
    return counted, calls


def test_sweep_refines_single_crossings_in_few_levels():
    # smooth nonlinear branches, one crossing per grid interval: the first
    # call samples the grid and every later call is one refinement level
    crossings = [1.0, 2.6, 4.1, 5.5]
    wfn, calls = _counted(_diagonal_family([lambda t, c=c: t - c + 0.5 * np.sin(t - c)
                                            for c in crossings]))
    res = osc.sweep_spectrum(wfn, 4, 32, _never_counted).spectra[0]
    assert res.multiplicities.tolist() == [1, 1, 1, 1]
    # reported at the interpolated root of the final bracket, not its midpoint
    assert np.abs(res.thetas - crossings).max() < 1e-14
    assert calls[0] == 33 and calls[1] == 4  # four brackets of one crossing each
    # bisection takes 31 levels from width 2 pi / 32; ITP without its
    # refine_tol / 4 minimum step would take 9
    assert len(calls) - 1 <= 8


def test_sweep_of_a_cmv_zipper_takes_few_prufer_calls():
    # the default grid of 128 points has width 2 pi / 128, which bisection
    # halves 29 times down to refine_tol = 1e-10, so 30 calls in all
    from scatzip.cli import _cyclic_pairing

    for seed in range(4):
        z = ensembles.finite_zipper(seed, 2, 8, "cmv", 0.95)
        wfn, calls = _counted(osc._phase_family(z))
        swept = osc.sweep_spectrum(wfn, 16, 128, _never_counted).spectra[0]
        dense = zp.dense_spectrum(zp.assemble_finite(z))
        assert len(calls) <= 12, seed
        assert swept.multiplicities.tolist() == dense.multiplicities.tolist()
        assert _cyclic_pairing(dense.expanded_thetas(), swept.expanded_thetas())[1] < 1e-9


def test_sweep_of_hard_branches_needs_at_most_one_level_over_bisection():
    # a steep resonance turns at speed 50 near c and 1/50 elsewhere; a flat
    # crossing grows like (theta - c)^3 / 6, where interpolation alone creeps
    # in from one side and roundoff moves the root by more than tol.  The
    # ITP projection keeps both within one level of bisection.
    grid, tol = 64, 1e-10
    bisection_calls = 1 + int(np.ceil(np.log2(2 * np.pi / grid / tol)))
    for phase, accuracy in [(lambda t, c: 2 * np.arctan(50 * np.tan((t - c) / 2)), tol),
                            (lambda t, c: t - c - np.sin(t - c), 1e-6)]:
        for c in (0.7, 2.0, 4.2, 5.9):
            wfn, calls = _counted(_diagonal_family([lambda t, c=c: phase(t, c)]))
            res = osc.sweep_spectrum(wfn, 1, grid, _never_counted, refine_tol=tol).spectra[0]
            assert res.multiplicities.tolist() == [1]
            assert abs(res.thetas[0] - c) < accuracy, c
            assert len(calls) <= bisection_calls + 1, c


def test_sweep_reports_a_crossing_on_the_seam_near_zero():
    # the crossing at theta = 0 is met in the last grid interval, around 2 pi;
    # a final bracket holding 2 pi reports 2 pi, which folds to 0
    tol = 1e-10
    wfn = _diagonal_family([lambda t: t, lambda t: t - 2.0 + 0.3 * np.sin(t - 2.0),
                            lambda t: t - 4.5])
    res = osc.sweep_spectrum(wfn, 3, 8, _never_counted, refine_tol=tol).spectra[0]
    assert res.multiplicities.tolist() == [1, 1, 1]
    assert 0.0 <= res.thetas[0] < tol
    assert np.abs(res.thetas[1:] - [2.0, 4.5]).max() < tol
    # a double crossing on the seam is bisected as one bracket of count 2
    wfn = _diagonal_family([lambda t: t + 0.2 * np.sin(t), lambda t: t + 0.2 * np.sin(t),
                            lambda t: t - 3.0])
    res = osc.sweep_spectrum(wfn, 3, 8, _never_counted, refine_tol=tol).spectra[0]
    assert res.multiplicities.tolist() == [2, 1]
    assert 0.0 <= res.thetas[0] < tol
    assert abs(res.thetas[1] - 3.0) < tol


def test_spectrum_by_oscillation_rejects_bad_refine_tol():
    z = ensembles.finite_zipper(1, 1, 4)
    for tol in (np.nan, np.inf, 5.0, 2 * np.pi / 32, 0.0, -1.0):
        with pytest.raises(ValidationError, match=rf"2 pi / 32\), got {tol}"):
            osc.spectrum_by_oscillation(z, refine_tol=tol)
    assert osc.spectrum_by_oscillation(z, refine_tol=1e-20).total_multiplicity == 4


def test_sweep_below_float_resolution_stops_when_no_float_is_left_inside():
    # 2 pi / 32 halves to the float spacing at 2.6 in 48 levels; 1e-20 is never reached
    wfn, calls = _counted(_diagonal_family([lambda t: t - 2.6 + 0.5 * np.sin(t - 2.6)]))
    res = osc.sweep_spectrum(wfn, 1, 32, _never_counted, refine_tol=1e-20).spectra[0]
    assert abs(res.thetas[0] - 2.6) <= 4.5e-16
    assert len(calls) <= 1 + 48


def test_prufer_rejects_nan_points():
    finite, periodic = ensembles.finite_zipper(0, 1, 4), ensembles.periodic_zipper(0, 1, 4)
    for call in (lambda: osc.prufer(finite, float("nan")),
                 lambda: osc.prufer(finite, np.array([1.0, complex(float("nan"), 0.0)])),
                 lambda: osc.prufer_periodic(periodic, np.array([1j, float("nan")]))):
        with pytest.raises(ValidationError, match=r"\|z\| = nan must be 1"):
            call()


def test_prufer_rejects_two_dimensional_points():
    finite, periodic = ensembles.finite_zipper(0, 1, 4), ensembles.periodic_zipper(0, 1, 4)
    for call in (lambda: osc.prufer(finite, np.ones((2, 2))),
                 lambda: osc.prufer_periodic(periodic, np.ones((2, 2)))):
        with pytest.raises(ValidationError, match=r"z must be a point or a 1-D array, got ndim=2"):
            call()


@pytest.mark.parametrize("args", [(5, 1, 16, "haar-gauge", 0.99), (124, 1, 24, "cmv", 0.95)],
                         ids=["L1 N16 haar-gauge 0.99", "L1 N24 cmv 0.95"])
def test_sweep_finds_every_crossing_next_to_a_narrow_resonance(args):
    # a doubling sweep found 15 of 16 and 22 of 24 crossings after ten grid
    # doublings; the arc counts show which intervals hide them
    from scatzip.cli import _cyclic_pairing

    z = ensembles.finite_zipper(*args)
    dense = zp.dense_spectrum(zp.assemble_finite(z))
    assert dense.total_multiplicity == z.N * z.L
    swept = osc.spectrum_by_oscillation(z)
    assert swept.total_multiplicity == z.N * z.L
    assert _cyclic_pairing(dense.expanded_thetas(), swept.expanded_thetas())[1] < 1e-9


@pytest.mark.parametrize("seed", [0, 5])
def test_periodic_sweep_finds_every_crossing_next_to_a_narrow_resonance(monkeypatch, seed):
    # a doubling sweep found 45 of 100 crossings at seed 0 after 803
    # prufer_periodic calls over 819 201 theta, and stalled or failed at seed
    # 5; the cyclic arc counts show which intervals of the first grid hide them
    from scatzip.cli import _cyclic_pairing

    z = ensembles.periodic_zipper(seed, 1, 100, "haar-gauge", 0.999)
    calls = []
    prufer_periodic = osc.prufer_periodic

    def counted(*args, **kwargs):
        calls.append(1)
        if len(calls) > 400:
            raise AssertionError("more than 400 prufer_periodic calls")
        return prufer_periodic(*args, **kwargs)

    monkeypatch.setattr(osc, "prufer_periodic", counted)
    swept = osc.spectrum_by_oscillation(z)
    dense = zp.dense_spectrum(zp.assemble_periodic(z))
    assert swept.total_multiplicity == dense.total_multiplicity == 100
    assert _cyclic_pairing(dense.expanded_thetas(), swept.expanded_thetas())[1] < 1e-9


def _counted_prufer(monkeypatch, name="prufer"):
    """Wrap ``osc.prufer`` (or ``osc.<name>``); the list gets the number of theta of every call."""
    points = []
    prufer = getattr(osc, name)

    def counted(zipper, z, *args, **kwargs):
        points.append(np.size(z))
        return prufer(zipper, z, *args, **kwargs)

    monkeypatch.setattr(osc, name, counted)
    return points


@pytest.mark.parametrize("seed", [7, 8])
def test_short_first_grid_splits_only_the_intervals_that_hide_crossings(monkeypatch, seed):
    # a doubling sweep went to grid 24 576 on both (24 577 theta); the
    # first grid of 192 intervals is short, and only its intervals whose
    # seam passages miss their arc count are split
    from scatzip.cli import _cyclic_pairing

    z = ensembles.finite_zipper(seed, 1, 24, "haar-gauge", 0.85)
    points = _counted_prufer(monkeypatch)
    grids = []
    sample_grid = osc._sample_grid

    def recorded(wfn, thetas, twists):
        grids.append(len(thetas))
        return sample_grid(wfn, thetas, twists)

    monkeypatch.setattr(osc, "_sample_grid", recorded)
    swept = osc.spectrum_by_oscillation(z)
    dense = zp.dense_spectrum(zp.assemble_finite(z))
    assert grids == [193]
    assert swept.total_multiplicity == 24
    assert _cyclic_pairing(dense.expanded_thetas(), swept.expanded_thetas())[1] < 1e-9
    assert sum(points) <= 2000


@pytest.mark.parametrize("flavor, args, calls", [("finite", (0, 1, 256, "cmv", 0.5), 3),
                                                 ("periodic", (0, 1, 100, "haar-gauge", 0.999), 1)],
                         ids=["L1N256cmv05s0", "P1N100haar0999s0"])
def test_a_counting_sweep_samples_only_its_first_grid(monkeypatch, flavor, args, calls):
    # counted brackets are cut by counts and finished by inverse iteration, never
    # sampled: the Pruefer calls are those of the first grid, 8 N L + 1 theta
    # in calls of at most SWEEP_BLOCK (16 and 3 calls when counted midpoints
    # were sampled until their phases agreed with their counts)
    from scatzip.cli import _cyclic_pairing

    periodic = flavor == "periodic"
    z = (ensembles.periodic_zipper if periodic else ensembles.finite_zipper)(*args)
    points = _counted_prufer(monkeypatch, "prufer_periodic" if periodic else "prufer")
    counts = []
    arc_counts = osc.arc_counts
    monkeypatch.setattr(osc, "arc_counts", lambda *a: counts.append(1) or arc_counts(*a))
    swept = osc.spectrum_by_oscillation(z)
    dense = zp.dense_spectrum((zp.assemble_periodic if periodic else zp.assemble_finite)(z))
    assert counts and len(points) == calls and sum(points) == 8 * z.N * z.L + 1
    assert swept.multiplicities.tolist() == dense.multiplicities.tolist()
    assert _cyclic_pairing(dense.expanded_thetas(), swept.expanded_thetas())[1] < 1e-12


def test_matching_first_grid_never_counts(monkeypatch):
    calls = []
    monkeypatch.setattr(osc, "arc_counts", lambda *args: calls.append(1))
    for seed in range(4):
        z = ensembles.finite_zipper(seed, 2, 8, "cmv", 0.95)
        dense = zp.dense_spectrum(zp.assemble_finite(z))
        assert np.abs(osc.spectrum_by_oscillation(z).thetas - dense.thetas).max() < 1e-9
    assert calls == []


def _breaking_down_near(monkeypatch, centers, radius, name="prufer"):
    """Make ``osc.<name>`` break down at every theta within radius of one of the
    centers, as a chart past PRUFER_UNITARY_TOL does: its matrix there is NaN.
    The list gets every theta that broke down."""
    broken = []
    phase = getattr(osc, name)

    def fragile(zipper, z, *args, **kwargs):
        W = phase(zipper, z, *args, **kwargs)
        theta = np.mod(np.angle(np.atleast_1d(z)), 2 * np.pi)
        gap = np.abs(np.angle(np.exp(1j * (theta[:, None] - np.asarray(centers)[None, :]))))
        near = np.any(gap < radius, axis=1)
        broken.extend(theta[near])
        W[near] = np.nan
        return W

    monkeypatch.setattr(osc, name, fragile)
    return broken


def _runs_leave_their_brackets(monkeypatch):
    """Turn every inverse-iteration step half a circle away from its run's theta;
    the list gets the number of runs of every step."""
    runs = []
    step = osc._inverse_step

    def astray(*args):
        runs.append(len(args[1]))
        vectors, theta, radius = step(*args)
        return vectors, theta + np.pi, radius

    monkeypatch.setattr(osc, "_inverse_step", astray)
    return runs


@pytest.mark.parametrize("flavor, args, short, far, most_counts", [
    ("finite", (1, 1, 12, "cmv", 0.5), False, 2, 31), ("finite", (7, 1, 24, "haar-gauge", 0.85), True, 2, 31),
    ("finite", (0, 2, 16, "free"), False, 2, 29), ("finite", (3, 1, 16, "haar-gauge", 0.85), True, 3, 31),
    ("periodic", (0, 1, 16, "haar-gauge", 0.99), True, 2, 31)],
    ids=["matching grid", "short grid", "double eigenvalues", "short grid three far", "periodic"])
def test_brackets_whose_samples_break_down_finish_by_count_bisection(monkeypatch, flavor, args, short, far,
                                                                     most_counts):
    # the Pruefer samples break down near the eigenvalues farthest from the
    # first grid (no grid point breaks down): in the refinement where the
    # first grid matches, in the splits and the refinement where it is
    # short; every eigenvalue of the free L = 2 zipper is double, so there a
    # bracket located by counts alone holds two crossings.  The brackets
    # whose samples break down are counted in the same lockstep as the
    # splits: in two count passes the three-far case took 60 count calls.
    # A periodic sweep whose sample broke down used to stop there.  Where the
    # first grid is short, its counted brackets are never sampled: even with
    # every run sent out of its bracket, the counts cut them, and no Pruefer
    # sample follows the first grid, so none breaks down.
    from scatzip.cli import _cyclic_pairing

    periodic = flavor == "periodic"
    z = (ensembles.periodic_zipper if periodic else ensembles.finite_zipper)(*args)
    dense = zp.dense_spectrum((zp.assemble_periodic if periodic else zp.assemble_finite)(z))
    assert set(dense.multiplicities.tolist()) == {z.L}
    grid = 8 * z.N * z.L
    thetas = osc.TWO_PI * (0.37 + np.arange(grid + 1)) / grid
    first = osc._sample_grid(osc._phase_family(z), thetas, osc.UNTWISTED)[0]
    assert (osc._seam_passages(first[:-1], first[1:]).sum() < z.N * z.L) == short
    gap = np.abs(np.angle(np.exp(1j * (dense.thetas[:, None] - thetas[None, :])))).min(axis=1)
    centers = dense.thetas[np.argsort(gap)[-far:]]
    broken = _breaking_down_near(monkeypatch, centers, 0.5 * np.sort(gap)[-far],
                                 "prufer_periodic" if periodic else "prufer")
    points = _counted_prufer(monkeypatch, "prufer_periodic" if periodic else "prufer")
    if short:
        _runs_leave_their_brackets(monkeypatch)
    counts = []
    arc_counts = osc.arc_counts
    monkeypatch.setattr(osc, "arc_counts", lambda *args: counts.append(1) or arc_counts(*args))
    swept = osc.spectrum_by_oscillation(z)
    if short:
        assert not broken and sum(points) == grid + 1
    else:
        assert broken
    assert len(counts) <= most_counts
    assert swept.multiplicities.tolist() == dense.multiplicities.tolist()
    assert _cyclic_pairing(dense.expanded_thetas(), swept.expanded_thetas())[1] < 1e-9
    for c in centers:  # each far eigenvalue is found once, with multiplicity L
        near = np.abs(np.angle(np.exp(1j * (swept.thetas - c)))) < 1e-9
        assert swept.multiplicities[near].tolist() == [z.L]


@pytest.mark.parametrize("flavor, args", [("finite", (1, 2, 12, "cmv", 0.5)), ("periodic", (1, 1, 8, "cmv", 0.5))],
                         ids=["finite", "periodic"])
def test_a_first_grid_point_that_breaks_down_sends_its_sweep_to_the_counts(monkeypatch, flavor, args):
    # grid point 17 of the first grid breaks down, which used to stop the sweep;
    # one of its two intervals holds an eigenvalue.  The first count and inverse
    # iteration locate every eigenvalue; with every run sent out of its bracket,
    # counts alone locate them
    from scatzip.cli import _cyclic_pairing

    periodic = flavor == "periodic"
    z = (ensembles.periodic_zipper if periodic else ensembles.finite_zipper)(*args)
    grid = 8 * z.N * z.L
    broken = _breaking_down_near(monkeypatch, [osc.TWO_PI * (0.37 + 17) / grid], 1e-12,
                                 "prufer_periodic" if periodic else "prufer")
    counts = []
    arc_counts = osc.arc_counts
    monkeypatch.setattr(osc, "arc_counts", lambda *args: counts.append(1) or arc_counts(*args))
    dense = zp.dense_spectrum((zp.assemble_periodic if periodic else zp.assemble_finite)(z))
    swept = osc.spectrum_by_oscillation(z)
    assert len(broken) == 1 and len(counts) == 1
    assert swept.multiplicities.tolist() == dense.multiplicities.tolist()
    assert _cyclic_pairing(dense.expanded_thetas(), swept.expanded_thetas())[1] < 1e-12
    runs = _runs_leave_their_brackets(monkeypatch)
    broken.clear()
    counts.clear()
    swept = osc.spectrum_by_oscillation(z)
    assert runs and len(broken) == 1 and len(counts) > 1
    assert swept.multiplicities.tolist() == dense.multiplicities.tolist()
    assert _cyclic_pairing(dense.expanded_thetas(), swept.expanded_thetas())[1] < 1e-9


def test_arc_counted_sweep_splits_locally_where_doubling_would_go_global():
    # h(s) = s + 2 arctan(1e6 tan(s / 2)) turns a full circle close to s = 0:
    # an interval (-a, b) around it sees h rise by 2 pi + a + b - 4e-6 (1/a + 1/b),
    # so the grid interval around c = 2 hides the crossing at c until a and b
    # fall below about 0.002.  The other crossing is at c + pi.  The grid
    # comes up short, so only the two intervals that hold crossings are
    # counted and cut, two midpoints per count call down to refine_tol, and
    # nothing is sampled after the grid, where a doubling sweep would go to
    # grid 2048.
    c = 2.0
    crossings = np.array([c, c + np.pi])
    wfn, calls = _counted(_diagonal_family([lambda t: t - c + 2 * np.arctan(1e6 * np.tan((t - c) / 2))]))
    first = osc._sample_grid(wfn, 0.37 * np.pi / 8 + np.arange(17) * np.pi / 8, osc.UNTWISTED)[0]
    assert osc._seam_passages(first[:-1], first[1:]).sum() == 1
    calls.clear()
    arcs = []

    def recorded(crossings):
        count = _arc_count(crossings)
        return lambda members, centers, halfwidths: arcs.append(len(members)) or count(members, centers, halfwidths)

    res = osc.sweep_spectrum(wfn, 2, 16, recorded(crossings)).spectra[0]
    assert res.multiplicities.tolist() == [1, 1]
    assert np.abs(res.thetas - crossings).max() < 1e-9
    split = arcs[1:]  # the levels after the counts of the first grid
    levels = int(np.ceil(np.log2(np.pi / 8 / 1e-10)))  # halvings from the grid width to refine_tol
    assert calls == [17] and arcs[0] == 18 and split == [2] * levels
    # two members, both short, split their four intervals in lockstep
    calls.clear()
    arcs.clear()
    twins = osc.sweep_spectrum(wfn, 2, 16, recorded([crossings, crossings]), twists=np.ones((2, 1, 1)))
    assert calls == [17] and arcs == [36] + [4] * levels
    for spectrum in twins.spectra:
        assert np.array_equal(spectrum.thetas, res.thetas)


@pytest.mark.parametrize("call, message", [
    (lambda: osc.prufer(ensembles.periodic_zipper(0, 1, 4), 1.0), "prufer needs a finite zipper"),
    (lambda: osc.prufer_periodic(ensembles.finite_zipper(0, 1, 4), 1.0),
     "prufer_periodic needs a periodic zipper"),
    (lambda: osc.bands(ensembles.finite_zipper(0, 1, 4), 4), "bands needs a periodic zipper"),
], ids=["prufer-of-periodic", "prufer-periodic-of-finite", "bands-of-finite"])
def test_oscillation_input_gates(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()
