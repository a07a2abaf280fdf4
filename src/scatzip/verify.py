"""Seeded verification suite: every module's invariants at desk scale.

Each check runs on small random instances generated from the given seed and
reports pass/fail with a measured defect.  The CLI ``verify`` command runs
these and exits nonzero on any failure; the same checks back the acceptance
tests for structural invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ensembles, matrix_core as mc, measures as ms, oscillation as osc
from . import scattering as sc, transfer as tr, weyl, zipper as zp


@dataclass
class CheckResult:
    module: str
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.module}.{self.name}  ({self.detail})"


def _check(results, module, name, defect, tol):
    results.append(CheckResult(module, name, bool(defect <= tol), f"defect {defect:.3e} <= {tol:.1e}"))


def matrix_core_checks(seed=0) -> list:
    rng = np.random.default_rng([seed, 101])
    out = []
    L = 2
    # Moebius action laws on genuine U(L, L) elements (images of random blocks)
    worst = {"prop_i": 0.0, "prop_ii": 0.0, "prop_iii": 0.0}
    for _ in range(20):
        T1 = sc.phi(ensembles.random_block(rng, L, "haar-gauge"))
        T2 = sc.phi(ensembles.random_block(rng, L, "haar-gauge"))
        Z = ensembles.random_contraction(rng, L, 0.8)
        W = mc.mobius(T1, Z)
        worst["prop_i"] = max(worst["prop_i"], float(np.linalg.norm(mc.mobius_inverse(W, T1) - Z)))
        lhs = mc.mobius_inverse(W, T1 @ T2)
        rhs = mc.mobius_inverse(mc.mobius_inverse(W, T1), T2)
        worst["prop_ii"] = max(worst["prop_ii"], float(np.linalg.norm(lhs - rhs)))
        worst["prop_iii"] = max(worst["prop_iii"],
                                float(np.linalg.norm(mc.mobius_inverse(W, T1) - mc.mobius(np.linalg.inv(T1), W))))
    for k, v in worst.items():
        _check(out, "matrix_core", f"mobius_{k}", v, 1e-9)

    C = mc.cayley(L)
    _check(out, "matrix_core", "cayley_unitary", mc.unitary_defect(C), 1e-14)
    _check(out, "matrix_core", "jform_identity",
           float(np.linalg.norm(mc.jform(L) - mc.adj(C) @ mc.lform(L) @ C / 1j)), 1e-14)

    ok = True
    for _ in range(10):
        A = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
        B = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
        Z = A + mc.adj(A) + 1j * (B @ mc.adj(B) + mc.eye(L))  # in the upper half-plane
        ok = ok and mc.in_siegel_disc(mc.mobius(C, Z), strict=True)
    out.append(CheckResult("matrix_core", "cayley_maps_half_plane_to_disc", ok,
                           "10 random points" if ok else "a point escaped the disc"))

    worst_comm = 0.0
    for _ in range(10):
        A = rng.standard_normal((L + 1, L + 1)) + 1j * rng.standard_normal((L + 1, L + 1))
        M = A @ mc.adj(A)
        R = mc.hermitian_sqrt(M)
        worst_comm = max(worst_comm, float(np.linalg.norm(R @ M - M @ R)))
    _check(out, "matrix_core", "sqrt_commutes", worst_comm, 1e-10)
    return out


def scattering_checks(seed=0, corruption: float = 0.0) -> list:
    """Scattering invariants; ``corruption`` adds a unitarity-breaking
    perturbation to the assembled matrices, for fault-injection tests."""
    rng = np.random.default_rng([seed, 102])
    out = []
    worst_unit = worst_rel = worst_round = 0.0
    for L in (1, 2, 3):
        for _ in range(8):
            b = ensembles.random_block(rng, L, "haar-gauge")
            S = b.matrix.copy()
            if corruption:
                S = S + corruption * rng.standard_normal(S.shape)
            worst_unit = max(worst_unit, mc.unitary_defect(S))
            a, bb, g, d = mc.split_blocks(S)
            one = mc.eye(L)
            rels = [mc.adj(a) @ a + mc.adj(g) @ g - one,
                    mc.adj(d) @ d + mc.adj(bb) @ bb - one,
                    mc.adj(d) @ g + mc.adj(bb) @ a,
                    a @ mc.adj(a) + bb @ mc.adj(bb) - one,
                    d @ mc.adj(d) + g @ mc.adj(g) - one,
                    g @ mc.adj(a) + d @ mc.adj(bb)]
            worst_rel = max(worst_rel, max(float(np.linalg.norm(r, 2)) for r in rels))
            T = sc.phi(b)
            S2 = sc.phi_inverse(T)
            worst_round = max(worst_round, float(np.linalg.norm(S2.matrix - b.matrix, 2)),
                              float(np.linalg.norm(sc.phi(S2) - T, 2)))
    _check(out, "scattering", "block_unitarity", worst_unit, 1e-10)
    _check(out, "scattering", "unitarity_relations", worst_rel, 1e-10)
    _check(out, "scattering", "phi_bijection_roundtrip", worst_round, 1e-9)

    # the four effectiveness predicates agree on members and non-members
    agree = True
    for member in (True, False):
        for _ in range(6):
            if member:
                S = ensembles.random_block(rng, 2, "haar-gauge").matrix
            else:
                S = np.zeros((4, 4), dtype=complex)
                S[:2, :2] = ensembles.random_unitary(rng, 2)
                S[2:, 2:] = ensembles.random_unitary(rng, 2)
            a, bb, g, d = mc.split_blocks(S)
            preds = [mc.smallest_singular_value(bb) > 1e-8,
                     mc.smallest_singular_value(g) > 1e-8,
                     np.linalg.norm(a, 2) < 1 - 1e-8,
                     np.linalg.norm(d, 2) < 1 - 1e-8]
            agree = agree and all(p == member for p in preds)
    out.append(CheckResult("scattering", "effectiveness_predicates_agree", agree,
                           "beta/gamma invertible iff alpha/delta contractive"))
    return out


def zipper_checks(seed=0) -> list:
    rng = np.random.default_rng([seed, 103])
    out = []
    worst_unit = 0.0
    band_ok = True
    for L, N in [(1, 8), (2, 6), (3, 4)]:
        z = ensembles.finite_zipper(int(rng.integers(2**32)), L, N)
        op = zp.assemble_finite(z)
        worst_unit = max(worst_unit, mc.unitary_defect(op.to_dense()))
        band_ok = band_ok and op.block_bandwidth() <= 2
        zper = ensembles.periodic_zipper(int(rng.integers(2**32)), L, N)
        opp = zp.assemble_periodic(zper)
        worst_unit = max(worst_unit, mc.unitary_defect(opp.to_dense()))
        band_ok = band_ok and opp.block_bandwidth() <= 2
    _check(out, "zipper", "assembled_unitarity", worst_unit, 1e-10)
    out.append(CheckResult("zipper", "five_diagonal", band_ok, "block bandwidth <= 2"))

    zper = ensembles.periodic_zipper(int(rng.integers(2**32)), 2, 4)
    worst_fiber = 0.0
    for k in osc.momentum_grid(4, 8):
        M = zp.fiber(zper, k).to_dense()
        worst_fiber = max(worst_fiber, mc.unitary_defect(M))
    _check(out, "zipper", "fiber_unitarity", worst_fiber, 1e-10)

    z = ensembles.finite_zipper(int(rng.integers(2**32)), 2, 6)
    op = zp.assemble_finite(z)
    lam, vec = zp.eig_unitary(op.to_dense())
    X = op.to_dense()
    worst_res = max(float(np.linalg.norm(X @ vec[:, i] - lam[i] * vec[:, i])) for i in range(len(lam)))
    _check(out, "zipper", "dense_eigen_residual", worst_res, 1e-8)
    _check(out, "zipper", "dense_eigen_on_circle", float(np.abs(np.abs(lam) - 1).sum()), 1e-8)
    spec = zp.dense_spectrum(op)
    out.append(CheckResult("zipper", "dense_count", spec.total_multiplicity == 12,
                           f"{spec.total_multiplicity} of 12"))

    v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    _check(out, "zipper", "banded_apply_matches_dense",
           float(np.linalg.norm(zp.apply(op, v) - X @ v)), 1e-12 * float(np.linalg.norm(v)))
    return out


def transfer_checks(seed=0) -> list:
    rng = np.random.default_rng([seed, 104])
    out = []
    worst_cons = worst_lag = 0.0
    z = ensembles.finite_zipper(int(rng.integers(2**32)), 2, 8)
    for theta in rng.uniform(0, 2 * np.pi, size=5):
        zz = np.exp(1j * theta)
        for n in range(1, 9):
            T = tr.site_transfer(z, n, zz)
            worst_cons = max(worst_cons, float(np.linalg.norm(mc.adj(T) @ mc.lform(2) @ T - mc.lform(2), 2)))
        fr = tr.propagate(z, zz, 8)
        worst_lag = max(worst_lag, float(np.linalg.norm(fr.lform_value(), 2)))
    _check(out, "transfer", "form_conservation_on_circle", worst_cons, 1e-10)
    _check(out, "transfer", "frames_lagrangian_on_circle", worst_lag, 1e-9)

    worst_p = 0.0
    bound_ok = True
    for _ in range(100):
        blk = ensembles.random_block(rng, 2, "haar-gauge")
        zz = (rng.uniform(0.05, 0.95)) * np.exp(2j * np.pi * rng.uniform())
        P = tr.p_matrix(blk, zz)
        T = tr.transfer_at(blk, 2, zz)
        worst_p = max(worst_p, float(np.linalg.norm(mc.adj(T) @ mc.lform(2) @ T - mc.lform(2) - P.matrix, 2)))
        bound_ok = bound_ok and np.linalg.eigvalsh(P.matrix).min() >= (1 - abs(zz) ** 2) / 2 - 1e-10
    _check(out, "transfer", "single_step_identity", worst_p, 1e-10)
    out.append(CheckResult("transfer", "p_lower_bound", bound_ok, "min eig >= (1-|z|^2)/2"))

    worst_angle = 0.0
    for theta in rng.uniform(0, 2 * np.pi, size=3):
        zz = np.exp(1j * theta)
        fr = tr.propagate(z, zz, 8)
        raw = tr.transfer_product(z, 8, zz) @ np.vstack([mc.eye(z.L)] * 2)
        worst_angle = max(worst_angle, float(np.max(mc.principal_sines(fr.matrix, raw))))
    _check(out, "transfer", "renormalization_preserves_plane", worst_angle, 1e-8)

    worst_eq = 0.0
    for _ in range(10):
        blk = ensembles.random_block(rng, 2, "haar-gauge")
        psi = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        psi2 = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        ph = blk.matrix @ np.vstack([psi, psi2])
        lhs = sc.phi(blk) @ np.vstack([psi, ph[:2]])
        worst_eq = max(worst_eq, float(np.linalg.norm(lhs - np.vstack([ph[2:], psi2]))))
    _check(out, "transfer", "scattering_transfer_equivalence", worst_eq, 1e-10)
    return out


def weyl_checks(seed=0) -> list:
    rng = np.random.default_rng([seed, 105])
    out = []
    worst_im = np.inf
    worst_fg = 0.0
    worst_e = 0.0
    for L, N in [(1, 6), (2, 6), (3, 4)]:
        z = ensembles.finite_zipper(int(rng.integers(2**32)), L, N)
        op = zp.assemble_finite(z)
        for _ in range(5):
            zz = rng.uniform(0.05, 0.9) * np.exp(2j * np.pi * rng.uniform())
            F = weyl.f_matrix(z, zz)
            worst_im = min(worst_im, float(np.linalg.eigvalsh(mc.hermitize(1j * (mc.adj(F) - F))).min()))
            worst_fg = max(worst_fg,
                           float(np.linalg.norm(F - weyl.dense_f(op, zz), 2)),
                           float(np.linalg.norm(weyl.g_matrix(z, zz) - weyl.dense_g(op, zz), 2)))
            E1 = weyl.e_matrix(z, zz)
            E2 = weyl.e_matrix_closed(z, zz)
            E3 = mc.mobius_inverse(mc.adj(z.boundary_v), tr.transfer_product(z, N, zz))
            worst_e = max(worst_e, float(np.linalg.norm(E1 - E2, 2)), float(np.linalg.norm(E1 - E3, 2)))
    out.append(CheckResult("weyl", "caratheodory_positivity", worst_im > 0,
                           f"min imaginary-part eigenvalue {worst_im:.3e}"))
    _check(out, "weyl", "fg_match_dense_resolvent", worst_fg, 1e-8)
    _check(out, "weyl", "three_e_routes_agree", worst_e, 1e-8)

    z = ensembles.finite_zipper(int(rng.integers(2**32)), 2, 8)
    zz = 0.45 + 0.2j
    disc_small = weyl.radial_central(z, zz, upto=6)
    nested = True
    for _ in range(10):
        V = ensembles.random_unitary(rng, 2)
        W, _ = weyl.disc_chart(weyl.f_matrix(z, zz, v_boundary=V), disc_small)
        nested = nested and float(np.linalg.svd(W, compute_uv=False).max()) < 1.0
    out.append(CheckResult("weyl", "discs_strictly_nested", nested, "chart contractive at N-2"))
    return out


def measures_checks(seed=0) -> list:
    rng = np.random.default_rng([seed, 106])
    out = []
    z = ensembles.finite_zipper(int(rng.integers(2**32)), 2, 6, ensemble="haar-gauge")
    mu = ms.spectral_measure_finite(z)
    gram = ms.gram_schmidt(mu, z.boundary_u, 8)

    worst_orth = 0.0
    for fam in (gram.phis, gram.psis):
        for i, f in enumerate(fam):
            for j, g in enumerate(fam):
                expected = mc.eye(mu.L) if i == j else np.zeros((mu.L, mu.L))
                worst_orth = max(worst_orth,
                                 float(np.linalg.norm(ms.inner_product(f, g, mu) - expected, 2)))
    _check(out, "measures", "orthonormality", worst_orth, 1e-8)

    K = (gram.phis.shape[1] - 1) // 2
    support = [np.flatnonzero(np.any(p != 0, axis=(1, 2))) - K for p in gram.phis]
    deg_ok = all((e.min() if n % 2 == 0 else e.max()) == ms._phi_exponent(n)
                 for n, e in enumerate(support, start=1))
    kappa_ok = bool(np.all(np.linalg.cond(gram.kappas) < 1e8))
    out.append(CheckResult("measures", "leading_structure", deg_ok and kappa_ok,
                           "exponent ladder and invertible leading coefficients"))

    _check(out, "measures", "recursion_relations", ms.recursion_residual(gram, mu), 1e-7)

    worst_norm = 0.0
    one = mc.eye(2)
    for a, rho, rho_t in zip(gram.recursion_alpha, gram.rho, gram.rho_tilde):
        worst_norm = max(worst_norm,
                         float(np.linalg.norm(rho @ mc.adj(rho) + a @ mc.adj(a) - one, 2)),
                         float(np.linalg.norm(rho_t @ mc.adj(rho_t) + mc.adj(a) @ a - one, 2)))
    _check(out, "measures", "rho_alpha_normalization", worst_norm, 1e-8)

    worst_f = 0.0
    for _ in range(20):
        zz = rng.uniform(0.05, 0.9) * np.exp(2j * np.pi * rng.uniform())
        worst_f = max(worst_f, float(np.linalg.norm(ms.caratheodory(mu, zz) - weyl.f_matrix(z, zz), 2)))
    _check(out, "measures", "caratheodory_matches_resolvent", worst_f, 1e-8)
    return out


def oscillation_checks(seed=0) -> list:
    rng = np.random.default_rng([seed, 107])
    out = []
    z = ensembles.finite_zipper(int(rng.integers(2**32)), 2, 6)
    spec = zp.dense_spectrum(zp.assemble_finite(z))
    agree = True
    for idx in range(min(3, len(spec.thetas))):
        th = spec.thetas[idx]
        W = osc._unbroken(osc.prufer(z, np.exp(1j * th)), np.exp(1j * th))
        frame = tr.propagate(z, np.exp(1j * th), z.N).matrix
        psi_v = np.vstack([mc.eye(2), z.boundary_v]) / np.sqrt(2)
        d1 = mc.subspace_intersection_dim(frame, psi_v, tol=1e-6)
        d2 = int(np.sum(np.linalg.svd(mc.adj(frame) @ mc.lform(2) @ psi_v, compute_uv=False) < 1e-6))
        d3 = int(np.sum(np.abs(np.linalg.eigvals(W) - 1) < 1e-6))
        agree = agree and d1 == d2 == d3 == spec.multiplicities[idx]
    out.append(CheckResult("oscillation", "intersection_identity", agree,
                           "principal angles == kernel dim == eigenvalue-1 multiplicity"))

    worst_chart = 0.0
    chart_ok = True
    for _ in range(5):
        th = rng.uniform(0, 2 * np.pi)
        fr = tr.propagate(z, np.exp(1j * th), z.N).matrix
        a, b = fr[:2], fr[2:]
        U = a @ np.linalg.inv(b)
        worst_chart = max(worst_chart, mc.unitary_defect(U))
        chart_ok = chart_ok and np.linalg.norm(np.vstack([U, mc.eye(2)]) @ b - fr) < 1e-9
    _check(out, "oscillation", "lagrangian_chart_unitary", worst_chart, 1e-9)
    out.append(CheckResult("oscillation", "chart_representative", chart_ok, "frame = (U; 1) b"))

    min_speed = np.inf
    for _ in range(10):
        min_speed = min(min_speed, osc.rotation_positivity_check(z, rng.uniform(0, 2 * np.pi)))
    zper = ensembles.periodic_zipper(int(rng.integers(2**32)), 1, 4)
    for _ in range(5):
        min_speed = min(min_speed, osc.rotation_positivity_check(zper, rng.uniform(0, 2 * np.pi)))
    out.append(CheckResult("oscillation", "monotone_rotation", min_speed > -1e-3,
                           f"min phase speed {min_speed:.3e}"))

    s = osc.spectrum_by_oscillation(z)
    out.append(CheckResult("oscillation", "total_rotation", s.total_multiplicity == z.N * z.L,
                           f"{s.total_multiplicity} crossings of {z.N * z.L}"))
    return out


def cli_checks(seed=0) -> list:
    """Determinism and file-format roundtrips for the front end."""
    import tempfile
    from pathlib import Path

    from . import fileio

    out = []
    z = ensembles.finite_zipper(seed + 17, 2, 6)
    doc = fileio.dumps(fileio.zipper_to_dict(z))
    doc2 = fileio.dumps(fileio.zipper_to_dict(ensembles.finite_zipper(seed + 17, 2, 6)))
    out.append(CheckResult("cli", "deterministic_generation", doc == doc2, "byte-identical regeneration"))

    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "z.json"
        p.write_text(doc)
        z2 = fileio.load_document(str(p))
        same = np.allclose(z.matrices, z2.matrices, atol=1e-15)
        same = same and np.allclose(z.boundary_u, z2.boundary_u) and np.allclose(z.boundary_v, z2.boundary_v)
        out.append(CheckResult("cli", "zipper_roundtrip", same, "parse(serialize(x)) == x"))
        mu = ms.spectral_measure_finite(z)
        mdoc = fileio.dumps(fileio.measure_to_dict(mu))
        p2 = Path(tmp) / "mu.json"
        p2.write_text(mdoc)
        mu2 = fileio.load_document(str(p2))
        same_mu = np.allclose(mu.atoms, mu2.atoms) and np.allclose(mu.weights, mu2.weights)
        out.append(CheckResult("cli", "measure_roundtrip", same_mu, "parse(serialize(mu)) == mu"))
    return out


ALL_SUITES = {
    "matrix_core": matrix_core_checks,
    "scattering": scattering_checks,
    "zipper": zipper_checks,
    "transfer": transfer_checks,
    "weyl": weyl_checks,
    "measures": measures_checks,
    "oscillation": oscillation_checks,
    "cli": cli_checks,
}


def run(suite: str = "all", seed: int = 0) -> list:
    seed = ensembles.check_seed(seed)
    if suite == "all":
        names = list(ALL_SUITES)
    elif suite in ALL_SUITES:
        names = [suite]
    else:
        from .errors import ValidationError

        raise ValidationError(f"unknown suite {suite!r}; choose from {sorted(ALL_SUITES)} or 'all'")
    results = []
    for name in names:
        results.extend(ALL_SUITES[name](seed))
    return results
