"""Acceptance criteria, one test per criterion, at pinned tolerances.

The shared instance set is 50 seeded finite zippers cycling through
(L, N) in {1,2,3} x {2,4,6,8,10,12}.  Each test prints a PASS/FAIL line.
Criterion 3d checks the radius-product constant on the distance of F(V)
from the disc center, ||F(V) - S||^2 <= ||R|| ||R'||, with equality at
L = 1; its companion checks the diameter constant 4 on pairs,
||F(V) - F(V')||^2 <= 4 ||R|| ||R'||.
"""

import time

import numpy as np

from scatzip import ensembles, measures as ms
from scatzip import oscillation as osc, verify, weyl
from scatzip import zipper as zp

COMBOS = [(L, N) for L in (1, 2, 3) for N in (2, 4, 6, 8, 10, 12)]


def instance(seed):
    L, N = COMBOS[seed % len(COMBOS)]
    return ensembles.finite_zipper(seed, L, N, ensemble="haar-gauge")


def _report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _disc_points(rng, count, rmax=0.9):
    r = rmax * np.sqrt(rng.uniform(0.01, 1.0, count))
    return r * np.exp(2j * np.pi * rng.uniform(size=count))


def test_criterion_1_oscillation_matches_dense_oracle():
    t0 = time.time()
    worst_phase = 0.0
    for seed in range(50):
        z = instance(seed)
        dense = zp.dense_spectrum(zp.assemble_finite(z))
        s = osc.spectrum_by_oscillation(z)
        assert s.total_multiplicity == z.N * z.L
        assert np.array_equal(s.multiplicities, dense.multiplicities), f"seed {seed}"
        d = np.abs(s.expanded_thetas() - dense.expanded_thetas())
        worst_phase = max(worst_phase, float(np.minimum(d, 2 * np.pi - d).max()))
    elapsed = time.time() - t0
    ok = worst_phase < 1e-7 and elapsed < 60.0
    assert _report("1 (oscillation spectra)", ok,
                   f"max phase error {worst_phase:.2e}, {elapsed:.1f} s for 50 instances")


def test_criterion_2_resolvent_formulas():
    worst = 0.0
    for seed in range(50):
        z = instance(seed)
        op = zp.assemble_finite(z)
        rng = np.random.default_rng([seed, 2])
        for w in _disc_points(rng, 20):
            worst = max(worst,
                        float(np.linalg.norm(weyl.f_matrix(z, w) - weyl.dense_f(op, w), 2)),
                        float(np.linalg.norm(weyl.g_matrix(z, w) - weyl.dense_g(op, w), 2)))
        F0 = weyl.f_matrix(z, 0.0)
        assert np.array_equal(F0, 1j * np.eye(z.L))
    assert _report("2 (resolvent formulas)", worst < 1e-8, f"max deviation {worst:.2e}")


def test_criterion_3a_surface_chart_unitary():
    worst = 0.0
    for seed in range(0, 50, 5):
        z = instance(seed)
        w = 0.4 + 0.25j
        disc = weyl.radial_central(z, w)
        rng = np.random.default_rng([seed, 31])
        for _ in range(10):
            V = ensembles.random_unitary(rng, z.L)
            _, defect = weyl.disc_chart(weyl.f_matrix(z, w, v_boundary=V), disc)
            worst = max(worst, defect)
    assert _report("3a (surface chart unitary)", worst < 1e-7, f"max defect {worst:.2e}")


def test_criterion_3b_discs_nested():
    ok = True
    worst = 0.0
    for seed in range(0, 50, 5):
        z = instance(seed)
        if z.N < 4:
            continue
        w = 0.4 + 0.25j
        disc_sm = weyl.radial_central(z, w, upto=z.N - 2)
        rng = np.random.default_rng([seed, 32])
        for _ in range(10):
            V = ensembles.random_unitary(rng, z.L)
            W, _ = weyl.disc_chart(weyl.f_matrix(z, w, v_boundary=V), disc_sm)
            smax = float(np.linalg.svd(W, compute_uv=False).max())
            worst = max(worst, smax)
            ok = ok and smax < 1.0
    assert _report("3b (strict nesting)", ok, f"max inner chart singular value {worst:.6f}")


def test_criterion_3c_radius_bound_on_grid():
    worst_ratio = 0.0
    radii = np.linspace(0.1, 0.9, 5)
    angles = 2 * np.pi * (np.arange(5) + 0.31) / 5
    for seed in range(0, 50, 5):
        z = instance(seed)
        for r in radii:
            for a in angles:
                disc = weyl.radial_central(z, r * np.exp(1j * a))
                worst_ratio = max(worst_ratio, disc.radius_norms()[0] / disc.radius_bound())
    assert _report("3c (radius bound 8/(N(1-|z|^2)^2))", worst_ratio <= 1.0 + 1e-12,
                   f"max ratio to bound {worst_ratio:.4f}")


def test_criterion_3d_f_difference_bound_radius_constant():
    # Every boundary value lies on the surface S + R^(1/2) W (-R')^(1/2) with
    # W unitary, so ||F(V) - S|| <= sqrt(||R|| ||R'||): the radius-product
    # constant bounds the distance from the center.  At L = 1 W is a
    # unimodular scalar and the bound is attained.  Two boundary values can
    # sit twice that far apart; the companion checks that diameter constant.
    worst = 0.0
    worst_scalar = 0.0
    for seed in range(0, 50, 5):
        z = instance(seed)
        w = 0.4 + 0.25j
        disc = weyl.radial_central(z, w)
        nl, nr = disc.radius_norms()
        rng = np.random.default_rng([seed, 33])
        for _ in range(6):
            F = weyl.f_matrix(z, w, v_boundary=ensembles.random_unitary(rng, z.L))
            ratio = float(np.linalg.norm(F - disc.center, 2)) ** 2 / (nl * nr)
            worst = max(worst, ratio)
            if z.L == 1:
                worst_scalar = max(worst_scalar, abs(ratio - 1.0))
    ok = worst <= 1.0 + 1e-8 and worst_scalar <= 1e-8
    assert _report("3d (center distance, radius-product constant)", ok,
                   f"max ||F-S||^2 / (||R|| ||R'||) = {worst:.10f}, "
                   f"L=1 deviation from 1 {worst_scalar:.1e}")


def test_criterion_3d_companion_diameter_constant():
    worst = 0.0
    for seed in range(0, 50, 5):
        z = instance(seed)
        w = 0.4 + 0.25j
        disc = weyl.radial_central(z, w)
        nl, nr = disc.radius_norms()
        rng = np.random.default_rng([seed, 33])
        for _ in range(3):
            F1 = weyl.f_matrix(z, w, v_boundary=ensembles.random_unitary(rng, z.L))
            F2 = weyl.f_matrix(z, w, v_boundary=ensembles.random_unitary(rng, z.L))
            worst = max(worst, float(np.linalg.norm(F1 - F2, 2)) ** 2 / (nl * nr))
    assert _report("3d-companion (diameter constant 4)", worst <= 4.0 + 1e-9,
                   f"max ratio {worst:.3f} <= 4")


def test_criterion_4_limit_point():
    sem = ensembles.semi_infinite_zipper(404, 1, ensemble="cmv")
    w = 0.3 + 0.2j
    rng = np.random.default_rng(405)
    results = {}
    ok = True
    details = []
    for tol in (1e-2, 1e-3, 1e-4):
        res = weyl.limit_f(sem, w, tol)
        results[tol] = res
        V = ensembles.random_unitary(rng, 1)
        F_other = weyl.f_matrix(sem, w, v_boundary=V, upto=res.n_used)
        diff = float(np.linalg.norm(res.f_value - F_other, 2))
        ok = ok and diff < res.certified_error
        ok = ok and res.certified_error <= tol * (1.0 + res.slack)
        details.append(f"tol={tol:.0e}: N={res.n_used}, cert={res.certified_error:.2e}, "
                       f"V-spread={diff:.2e}")
    # certified error scales as O(1/N_used): linear within a factor 3
    tols = [1e-2, 1e-3, 1e-4]
    for a, b in zip(tols, tols[1:]):
        ratio = (results[a].certified_error / results[b].certified_error) \
            / (results[b].n_used / results[a].n_used)
        ok = ok and 1 / 3 < ratio < 3
    assert _report("4 (limit point)", ok, "; ".join(details))


def test_criterion_5_bijection_roundtrip():
    worst_alpha = 0.0
    for N in (4, 6, 8):
        z = ensembles.finite_zipper(500 + N, 1, N, ensemble="cmv")
        mu = ms.spectral_measure_finite(z)
        res = ms.zipper_from_measure(mu, z.boundary_u, N + 4)
        assert res.n_available >= N
        for n in range(2, N + 1):
            worst_alpha = max(worst_alpha,
                              float(np.abs(res.gram.sites[0][n - 2] - z.block(n).alpha).max()))
    z2 = ensembles.finite_zipper(520, 2, 6, ensemble="haar-gauge")
    mu2 = ms.spectral_measure_finite(z2)
    rng = np.random.default_rng(521)
    worst_f = max(float(np.linalg.norm(ms.caratheodory(mu2, w) - weyl.f_matrix(z2, w), 2))
                  for w in _disc_points(rng, 10))
    # all four recursion relations, in the measure norm
    g = ms.gram_schmidt(mu2, z2.boundary_u, 8)
    worst_rec = ms.recursion_residual(g, mu2)
    ok = worst_alpha < 1e-6 and worst_f < 1e-6 and worst_rec < 1e-7
    assert _report("5 (bijection roundtrip)", ok,
                   f"alpha {worst_alpha:.2e}, F-match {worst_f:.2e}, recursion {worst_rec:.2e}")


def test_criterion_6_periodic_and_bands():
    worst_phase = 0.0
    for L in (1, 2):
        for N in (2, 4, 6):
            z = ensembles.periodic_zipper(600 + 10 * L + N, L, N, ensemble="haar-gauge")
            dense = zp.dense_spectrum(zp.assemble_periodic(z))
            s = osc.spectrum_by_oscillation(z)
            assert np.array_equal(s.multiplicities, dense.multiplicities), (L, N)
            d = np.abs(s.expanded_thetas() - dense.expanded_thetas())
            worst_phase = max(worst_phase, float(np.minimum(d, 2 * np.pi - d).max()))
    zfree = ensembles.periodic_zipper(0, 1, 2, ensemble="free")
    gap = osc.bands(zfree, 64).max_circle_gap()
    zf = ensembles.finite_zipper(601, 2, 6)
    zper = ensembles.periodic_zipper(602, 2, 4)
    rng = np.random.default_rng(603)
    min_speed = np.inf
    for _ in range(50):
        min_speed = min(min_speed,
                        osc.rotation_positivity_check(zf, float(rng.uniform(0, 2 * np.pi))),
                        osc.rotation_positivity_check(zper, float(rng.uniform(0, 2 * np.pi))))
    ok = worst_phase < 1e-7 and gap < 2 * np.pi / 64 and min_speed > 0
    assert _report("6 (periodic spectra and bands)", ok,
                   f"phase {worst_phase:.2e}, band gap {gap:.4f} < {2 * np.pi / 64:.4f}, "
                   f"min rotation speed {min_speed:.3f}")


def test_criterion_7_structural_invariants_via_verify():
    t0 = time.time()
    results = verify.run("all", seed=7)
    elapsed = time.time() - t0
    failed = [r for r in results if not r.passed]
    for r in failed:
        print(r.line())
    ok = not failed and elapsed < 300.0
    assert _report("7 (structural invariants)", ok,
                   f"{len(results) - len(failed)}/{len(results)} checks, {elapsed:.1f} s")
