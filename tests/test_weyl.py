"""Resolvent boundary values, Weyl discs, and the semi-infinite limit."""

import numpy as np
import pytest

from scatzip import ensembles, matrix_core as mc, transfer as tr, weyl
from scatzip import zipper as zp
from scatzip.errors import NumericalBreakdownError, ValidationError

from conftest import random_disc_point, random_unitary


def test_e_matrix_stepwise_equals_closed_form(rng):
    for L, N in [(1, 6), (2, 8), (2, 12)]:
        z = ensembles.finite_zipper(L * 10 + N, L, N)
        for _ in range(3):
            w = random_disc_point(rng)
            E1 = weyl.e_matrix(z, w)
            E2 = weyl.e_matrix_closed(z, w)
            assert np.linalg.norm(E1 - E2, 2) < 1e-8
            assert mc.in_siegel_disc(E1, strict=True)


def test_e_matrix_forward_inverse_route(rng):
    from scatzip.transfer import transfer_product

    z = ensembles.finite_zipper(42, 2, 6)
    w = 0.3 - 0.25j
    E = weyl.e_matrix(z, w)
    T = transfer_product(z, 6, w)
    assert np.linalg.norm(E - mc.mobius_inverse(mc.adj(z.boundary_v), T), 2) < 1e-8


def test_e_matrix_trivial_two_site():
    # N=2 free zipper at z=0.5: the dense resolvent oracle pins E through F
    z = ensembles.finite_zipper(0, 1, 2, ensemble="free")
    op = zp.assemble_finite(z)
    E = weyl.e_matrix(z, 0.5)
    F = weyl.f_matrix(z, 0.5)
    assert np.linalg.norm(F - weyl.dense_f(op, 0.5), 2) < 1e-12
    # F determines E: E = (F - i)(F + i)^(-1) pointwise in the scalar case
    f = F[0, 0]
    assert abs(E[0, 0] - (f - 1j) / (f + 1j)) < 1e-12


def test_f_matrix_exact_at_zero(rng):
    z = ensembles.finite_zipper(4, 3, 4)
    F0 = weyl.f_matrix(z, 0.0)
    assert np.array_equal(F0, 1j * np.eye(3))


def test_f_and_g_match_dense_oracle(rng):
    for L, N in [(1, 8), (2, 6), (3, 4)]:
        z = ensembles.finite_zipper(100 + L, L, N)
        op = zp.assemble_finite(z)
        for _ in range(5):
            w = random_disc_point(rng)
            assert np.linalg.norm(weyl.f_matrix(z, w) - weyl.dense_f(op, w), 2) < 1e-8
            assert np.linalg.norm(weyl.g_matrix(z, w) - weyl.dense_g(op, w), 2) < 1e-8


def test_scalar_points_return_owned_matrices():
    # a view such as F[0] would keep the whole (1, L, L) stack, for G its transposed solve buffer
    z = ensembles.finite_zipper(7, 2, 6)
    for fn in (weyl.e_matrix, weyl.f_matrix, weyl.g_matrix):
        M = fn(z, 0.3 + 0.4j)
        assert M.shape == (2, 2) and M.base is None, fn.__name__
    assert weyl.f_matrix(z, 0.0).base is None


def test_f_g_consistency_identity(rng):
    z = ensembles.finite_zipper(7, 2, 6)
    w = random_disc_point(rng)
    F = weyl.f_matrix(z, w)
    G = weyl.g_matrix(z, w)
    assert np.linalg.norm(F - 1j * (np.eye(2) + 2 * w * G), 2) < 1e-10


def test_g_small_z_leading_term(rng):
    z = ensembles.finite_zipper(7, 2, 6)
    w = 1e-4 * np.exp(0.3j)
    E = weyl.e_matrix(z, w)
    G = weyl.g_matrix(z, w)
    assert np.linalg.norm(G - E / w, 2) / np.linalg.norm(G, 2) < 1e-3


def test_resolvent_point_triple(rng):
    z = ensembles.finite_zipper(8, 2, 6)
    w = random_disc_point(rng)
    E, F = weyl.e_matrix(z, w), weyl.f_matrix(z, w)
    assert mc.in_siegel_disc(E, strict=True)
    assert np.linalg.eigvalsh(mc.hermitize(1j * (mc.adj(F) - F))).min() > 0
    # F = (E + 1)(E - 1)^(-1) / i and G = E (1 - E)^(-1) / z
    one = np.eye(2)
    assert np.linalg.norm(F - (E + one) @ np.linalg.inv(E - one) / 1j, 2) < 1e-12
    assert np.linalg.norm(weyl.g_matrix(z, w) - E @ np.linalg.inv(one - E) / w, 2) < 1e-12


def test_f_has_positive_imaginary_part(rng):
    z = ensembles.finite_zipper(8, 2, 6)
    for _ in range(5):
        w = random_disc_point(rng)
        F = weyl.f_matrix(z, w)
        assert np.linalg.eigvalsh(mc.hermitize(1j * (mc.adj(F) - F))).min() > 0


def test_g_rejects_zero():
    z = ensembles.finite_zipper(8, 2, 6)
    with pytest.raises(ValidationError, match=r"z = 0 is handled by the exact value F\(0\) = i"):
        weyl.g_matrix(z, 0.0)


def test_radial_central_positivity_and_decrease(rng):
    z = ensembles.finite_zipper(9, 2, 10)
    w = 0.4 + 0.25j
    d8 = weyl.radial_central(z, w, upto=8)
    d10 = weyl.radial_central(z, w, upto=10)
    assert np.linalg.eigvalsh(d8.radius_left).min() > 0
    assert np.linalg.eigvalsh(d8.radius_right).min() > 0
    assert np.linalg.eigvalsh(d8.radius_left - d10.radius_left).min() > 0
    assert d8.identity_defect < 1e-8
    assert d10.identity_defect < 1e-8


def test_radius_norm_bound(rng):
    z = ensembles.finite_zipper(9, 2, 10)
    for _ in range(5):
        w = random_disc_point(rng)
        disc = weyl.radial_central(z, w)
        nl, nr = disc.radius_norms()
        assert max(nl, nr) <= disc.radius_bound() + 1e-12


def test_center_symmetry(rng):
    z = ensembles.finite_zipper(9, 2, 8)
    w = 0.35 - 0.3j
    disc = weyl.radial_central(z, w)
    Qr = weyl._q_tilde(z, 1 / np.conj(w), 8)
    S_refl = -np.linalg.inv(Qr[:2, :2]) @ Qr[:2, 2:]
    assert np.linalg.norm(mc.adj(disc.center) - S_refl, 2) < 1e-9


def test_disc_membership_surface_points(rng):
    z = ensembles.finite_zipper(14, 2, 8)
    w = 0.45 + 0.2j
    disc = weyl.radial_central(z, w)
    for _ in range(10):
        V = random_unitary(rng, 2)
        W = weyl.disc_membership(weyl.f_matrix(z, w, v_boundary=V), disc, defect_threshold=1e-7)
        assert mc.unitary_defect(W) < 1e-7


def test_disc_membership_rejects_center(rng):
    z = ensembles.finite_zipper(14, 2, 8)
    w = 0.45 + 0.2j
    disc = weyl.radial_central(z, w)
    with pytest.raises(ValidationError, match="chart unitarity defect"):
        weyl.disc_membership(disc.center, disc)
    W, _ = weyl.disc_chart(disc.center, disc)
    assert np.linalg.norm(W, 2) < 1e-9


def test_discs_strictly_nested(rng):
    z = ensembles.finite_zipper(14, 2, 8)
    w = 0.45 + 0.2j
    disc_sm = weyl.radial_central(z, w, upto=6)
    for _ in range(10):
        V = random_unitary(rng, 2)
        W, _ = weyl.disc_chart(weyl.f_matrix(z, w, v_boundary=V), disc_sm)
        assert np.linalg.svd(W, compute_uv=False).max() < 1.0


def test_f_spread_bounded_by_disc_diameter(rng):
    # the surface parametrization bounds any two boundary values by the
    # diameter 2 sqrt(||R|| ||R'||)
    z = ensembles.finite_zipper(14, 2, 8)
    w = 0.45 + 0.2j
    disc = weyl.radial_central(z, w)
    nl, nr = disc.radius_norms()
    diam = 2.0 * np.sqrt(nl * nr)
    for _ in range(10):
        F1 = weyl.f_matrix(z, w, v_boundary=random_unitary(rng, 2))
        F2 = weyl.f_matrix(z, w, v_boundary=random_unitary(rng, 2))
        assert np.linalg.norm(F1 - F2, 2) <= diam + 1e-12


def test_limit_f_free_case_at_zero():
    sem = ensembles.semi_infinite_zipper(1, 1, "free")
    res = weyl.limit_f(sem, 0.0, 1e-2)
    assert np.array_equal(res.f_value, 1j * np.eye(1))
    assert res.certified_error <= res.slack * 1e-2


def test_limit_f_refuses_a_truncation_over_the_site_cap():
    # 8 / (tol (1 - |z|^2)^2) sites: about 9.7e9 at tol 1e-9, and inf at 1e-320;
    # at (0.9, 5e-324) and (0.99999999, 1e-310) tol (1 - |z|^2)^2 underflows to 0
    sem = ensembles.semi_infinite_zipper(0, 1)
    for z, tol, wanted in [(0.3, 1e-9, r"9\.661e\+09"), (0.3, 1e-320, "inf"), (0.9, 5e-324, "inf"),
                           (0.99999999, 1e-310, "inf")]:
        with pytest.raises(ValidationError, match=rf"needs N = {wanted} sites, over the cap of "
                                                  rf"{weyl.LIMIT_MAX_SITES}"):
            weyl.limit_f(sem, z, tol)
    assert len(sem.stored_sites) == 0
    assert weyl.LIMIT_MAX_SITES > 105_700  # criterion 4: tol 1e-4 at |z|^2 = 0.13


def test_limit_f_v_independence_and_scaling(rng):
    sem = ensembles.semi_infinite_zipper(77, 1, "cmv")
    w = 0.3 + 0.2j
    results = {}
    for tol in (1e-2, 1e-3):
        res = weyl.limit_f(sem, w, tol)
        results[tol] = res
        F_other = weyl.f_matrix(sem, w, v_boundary=random_unitary(rng, 1), upto=res.n_used)
        assert np.linalg.norm(res.f_value - F_other, 2) < res.certified_error
        assert res.certified_error <= tol * (1.0 + res.slack)
        if res.posterior_error is not None:
            assert res.posterior_error <= res.certified_error
    # halving the tolerance doubles the truncation length
    ratio = results[1e-3].n_used / results[1e-2].n_used
    assert 10 / 3 < ratio < 30
    cert_ratio = results[1e-2].certified_error / results[1e-3].certified_error
    n_ratio = results[1e-3].n_used / results[1e-2].n_used
    assert cert_ratio / n_ratio < 3 and n_ratio / cert_ratio < 3


def test_limit_f_posterior_radius_moderate_n():
    # at short truncations the a-posteriori radius is finitely computable and
    # matches the radius of the direct-product disc
    w = 0.3 + 0.2j
    for L, ensemble in [(1, "cmv"), (2, "haar-gauge"), (3, "cmv")]:
        sem = ensembles.semi_infinite_zipper(78, L, ensemble)
        lr = weyl.log_radius_norm(sem, w, 12)
        disc = weyl.radial_central(sem.truncate(12, np.eye(L)), w)
        assert lr is not None
        assert abs(np.exp(lr) - disc.radius_norms()[0]) < 1e-10 * disc.radius_norms()[0] + 1e-14


def test_log_radius_norm_matches_extended_precision_product():
    # the reference multiplies the same float transfer matrices at 300 digits;
    # at L >= 2 the smallest eigenvalue of the frame's form is lost to
    # cancellation unless it is read off the inverse form
    mp = pytest.importorskip("mpmath")
    from scatzip.transfer import site_transfer

    z, N = 0.9j, 256
    with mp.workdps(300):
        for L in (1, 2, 3):
            sem = ensembles.semi_infinite_zipper(0, L, "cmv")
            frame = mp.matrix(np.vstack([np.eye(L), np.eye(L)]).astype(complex).tolist())
            for n in range(1, N + 1):
                frame = mp.matrix(site_transfer(sem, n, z).tolist()) * frame
            form = frame.H * mp.diag([1] * L + [-1] * L) * frame
            smallest = min(abs(e) for e in mp.eigh(form, eigvals_only=True))
            reference = float(mp.log(2) - mp.log(smallest))
            assert abs(weyl.log_radius_norm(sem, z, N) - reference) < 1e-9, L


def _product_disc(zipper, w, N, L):
    """Center and radii from the direct product of the transfers (reference route)."""
    Qt = weyl._q_tilde(zipper, w, N)
    Qr = weyl._q_tilde(zipper, 1 / np.conj(w), N)
    R = np.linalg.inv(Qt[:L, :L])
    return -R @ Qt[:L, L:], R, -np.linalg.inv(Qr[:L, :L])


def test_radial_central_matches_product_at_short_n():
    pts = np.array([0.3 + 0.2j, -0.5 + 0.1j, 0.05, 0.9j, 0.7 - 0.6j])
    for L in (1, 2, 3):
        for N in (2, 8, 16):
            z = ensembles.finite_zipper(10 * L + N, L, N)
            for w, disc in zip(pts, weyl.radial_central(z, pts)):
                S, R, R_refl = _product_disc(z, w, N, L)
                for got, ref in ((disc.center, S), (disc.radius_left, R), (disc.radius_right, R_refl)):
                    assert np.linalg.norm(got - ref, 2) <= 1e-10 * np.linalg.norm(ref, 2), (L, N, w)
                assert disc.identity_defect < 1e-12


def test_radial_central_array_equals_pointwise_calls():
    z = ensembles.finite_zipper(5, 2, 12)
    pts = np.array([0.3 + 0.2j, 0.05, -0.8 + 0.1j])
    discs = weyl.radial_central(z, pts)
    assert isinstance(discs, list) and len(discs) == 3
    for w, disc in zip(pts, discs):
        one = weyl.radial_central(z, w)
        assert one.z == disc.z == w and one.n == disc.n == 12
        for a, b in ((one.center, disc.center), (one.radius_left, disc.radius_left),
                     (one.radius_right, disc.radius_right)):
            assert np.linalg.norm(a - b, 2) <= 1e-13 * np.linalg.norm(b, 2)


def test_radial_central_matches_extended_precision_product():
    # N = 64 with ||alpha|| <= 0.99: the float product loses the center near
    # |z| = 1 and at z = 0.05 its lower-right identity overflows; the frame
    # read must match the same transfers multiplied at 250 digits
    mp = pytest.importorskip("mpmath")
    from scatzip.transfer import site_transfer

    L, N = 2, 64
    z = ensembles.finite_zipper(0, L, N, "haar-gauge", 0.99)
    C = mp.matrix(mc.cayley(L).tolist())

    def reference(w):
        T = mp.eye(2 * L)
        for n in range(1, N + 1):
            T = mp.matrix(site_transfer(z, n, w).tolist()) * T
        Q = C.H * T.H * mp.diag([1] * L + [-1] * L) * T * C
        R = mp.inverse(Q[0:L, 0:L])
        log_norm = mp.log(max(abs(e) for e in mp.eigh((R + R.H) / 2, eigvals_only=True)))
        return np.array((-R * Q[0:L, L:2 * L]).tolist(), dtype=complex), float(log_norm)

    with mp.workdps(250):
        for w in (0.9 + 0.1j, 0.05, 0.97 + 0.2j):
            disc = weyl.radial_central(z, w)
            S, log_r = reference(w)
            _, log_r_refl = reference(1 / np.conj(w))
            nl, nr = disc.radius_norms()
            assert np.linalg.norm(disc.center - S, 2) < 1e-9 * np.linalg.norm(S, 2), w
            assert abs(np.log(nl) - log_r) < 1e-9, w
            assert abs(np.log(nr) - log_r_refl) < 1e-9, w


def test_radial_central_raises_when_radius_underflows():
    sem = ensembles.semi_infinite_zipper(79, 1, "cmv")
    z = sem.truncate(256, np.eye(1))
    with pytest.raises(NumericalBreakdownError):
        weyl.radial_central(z, 0.05)
    assert abs(weyl.log_radius_norm(z, 0.05, 256) - (-892.84)) < 0.01


def test_limit_f_posterior_error_does_not_underflow():
    sem = ensembles.semi_infinite_zipper(3, 1, "cmv")
    res = weyl.limit_f(sem, 0.36 * np.exp(0.7j), 1e-2)
    assert res.n_used == 1056
    assert np.isfinite(res.log_posterior_error)
    floor = np.finfo(float).eps * np.linalg.norm(res.f_value, 2)
    assert res.posterior_error == max(np.exp(res.log_posterior_error), floor)
    assert 0.0 < res.posterior_error <= res.certified_error


def test_limit_f_reads_both_radii_off_one_propagation(monkeypatch):
    # one frame propagation over z and 1/conj(z) gives both radius norms; it
    # agrees with the two separate log_radius_norm reads
    calls = []
    real = weyl.propagate

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(weyl, "propagate", counting)
    for L, ensemble in [(1, "cmv"), (2, "haar-gauge")]:
        sem = ensembles.semi_infinite_zipper(80 + L, L, ensemble)
        w = 0.35 - 0.2j
        calls.clear()
        res = weyl.limit_f(sem, w, 5e-2)
        assert len(calls) == 1, L
        both = (weyl.log_radius_norm(sem, w, res.n_used)
                + weyl.log_radius_norm(sem, 1 / np.conj(w), res.n_used))
        assert abs(res.log_posterior_error - 0.5 * both) <= 1e-9, L


def test_a_breakdown_of_the_frame_discs_leaves_the_radii_unknown(monkeypatch):
    # limit_f keeps its value and certified radius and drops the a-posteriori
    # ones; log_radius_norm returns None
    sem = ensembles.semi_infinite_zipper(81, 1, "cmv")
    w = 0.35 - 0.2j
    before = weyl.limit_f(sem, w, 5e-2)
    assert before.posterior_error is not None and before.log_posterior_error is not None

    def broken(*args, **kwargs):
        raise NumericalBreakdownError("the frame normalizer lost rank")

    monkeypatch.setattr(weyl, "_frame_discs", broken)
    res = weyl.limit_f(sem, w, 5e-2)
    assert np.array_equal(res.f_value, before.f_value)
    assert (res.n_used, res.certified_error) == (before.n_used, before.certified_error)
    assert res.posterior_error is None and res.log_posterior_error is None
    assert weyl.log_radius_norm(sem, w, res.n_used) is None


def test_disc_chart_raises_once_the_radius_is_below_the_resolution_of_f():
    # pinned instance: at these z the disc radius is 1e-41 to 1e-23 while F
    # is only known to about 1e-16, so a chart would return noise (defects
    # up to 9e50) or fail to invert R' (z = 0.97)
    z = ensembles.finite_zipper(0, 2, 64, "haar-gauge", 0.99)
    V = random_unitary(np.random.default_rng(1), 2)
    for w in (0.4 + 0.25j, 0.9 + 0.1j, 0.97 + 0.2j, 0.97):
        disc = weyl.radial_central(z, w)
        F = weyl.f_matrix(z, w, v_boundary=V)
        with pytest.raises(NumericalBreakdownError, match="is below the resolution"):
            weyl.disc_chart(F, disc)
        with pytest.raises(NumericalBreakdownError, match="is below the resolution"):
            weyl.disc_membership(F, disc)


@pytest.mark.parametrize("upto", [0, -2])
@pytest.mark.parametrize("semi_infinite", [False, True])
@pytest.mark.parametrize("route", ["e_matrix", "f_matrix", "radial_central", "log_radius_norm", "propagate"])
def test_non_positive_site_counts_are_rejected(route, semi_infinite, upto):
    # a non-positive count would slice the site table from its end:
    # f_matrix(upto=0) would read a non-Caratheodory F, propagate the start frame
    z = ensembles.semi_infinite_zipper(3, 1) if semi_infinite else ensembles.finite_zipper(3, 1, 8)
    w = 0.3 + 0.2j
    calls = {
        "e_matrix": lambda: weyl.e_matrix(z, w, v_boundary=np.eye(1), upto=upto),
        "f_matrix": lambda: weyl.f_matrix(z, w, v_boundary=np.eye(1), upto=upto),
        "radial_central": lambda: weyl.radial_central(z, w, upto=upto),
        "log_radius_norm": lambda: weyl.log_radius_norm(z, w, upto),
        "propagate": lambda: tr.propagate(z, 1j, upto),
    }
    frames = route in ("log_radius_norm", "propagate")  # these read the site table directly
    message = "site count must be >= 1" if frames else "site count must be even and >= 2"
    with pytest.raises(ValidationError, match=f"{message}, got {upto}"):
        calls[route]()


_NAN = float("nan")


@pytest.mark.parametrize("call, message", [
    (lambda z, sem: weyl.f_matrix(z, _NAN), r"\|z\| = nan must be < 1"),
    (lambda z, sem: weyl.f_matrix(z, np.array([0.3, complex(0.1, _NAN)])), r"\|z\| = nan must be < 1"),
    (lambda z, sem: weyl.radial_central(z, _NAN), r"\|z\| = nan must be < 1"),
    (lambda z, sem: weyl.log_radius_norm(z, _NAN, 4),
     r"radius norms need 0 < \|z\| != 1 and finite, got z = \(nan\+0j\)"),
    (lambda z, sem: weyl.limit_f(sem, _NAN, 1e-2), r"\|z\| = nan must be < 1"),
    (lambda z, sem: weyl.limit_f(sem, 0.3, _NAN), r"tol must lie in \(0, inf\), got nan"),
    (lambda z, sem: weyl.limit_f(sem, 0.3, float("inf")), r"tol must lie in \(0, inf\), got inf"),
    (lambda z, sem: weyl.limit_f(sem, 0.3, 0.0), r"tol must lie in \(0, inf\), got 0.0"),
], ids=["f-nan", "f-nan-in-array", "radial-nan", "log-radius-nan", "limit-z-nan", "limit-tol-nan",
        "limit-tol-inf", "limit-tol-0"])
def test_nan_points_and_tolerances_are_input_errors(call, message):
    with pytest.raises(ValidationError, match=message):
        call(ensembles.finite_zipper(0, 1, 4), ensembles.semi_infinite_zipper(0, 1))


@pytest.mark.parametrize("route", [weyl.e_matrix, weyl.f_matrix, weyl.g_matrix])
def test_a_wrongly_shaped_or_non_unitary_v_boundary_is_an_input_error(route):
    z = ensembles.finite_zipper(0, 2, 6)
    with pytest.raises(ValidationError, match=r"v_boundary has shape \(3, 3\), expected \(2, 2\)"):
        route(z, 0.3, v_boundary=np.eye(3))
    with pytest.raises(ValidationError, match="v_boundary is not unitary"):
        route(z, 0.3, v_boundary=2 * np.eye(2))
