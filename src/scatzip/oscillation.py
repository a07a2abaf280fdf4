"""Oscillation theory: matrix Pruefer phases and eigenvalue localization.

For z on the unit circle the propagated frame stays Lagrangian for the
signature form, so its stereographic projection is unitary; composing with
the right boundary chart gives the Pruefer unitary W(z) whose eigenvalue-1
multiplicity equals the multiplicity of z in the operator spectrum.  All
eigenphases of W rotate strictly upward in theta, so the full spectrum is
found by sweeping theta, tracking the sorted eigenphase branches, and
bisecting every upward crossing of a multiple of 2 pi.

Periodic zippers use the doubled (checkerboard) construction: the fixed-point
condition of the transfer cocycle becomes a Lagrangian intersection in twice
the dimension, handled by the same sweep on a 2L x 2L Pruefer unitary.  Both
phases propagate their frames with ``transfer.propagate``: the doubled frame
carries the identity half of 1 (+) T_n as rows above the 2L rows T_n acts on,
so ``checkerboard_sum`` is never formed on the way and stays as the reference
for that row order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import matrix_core as mc
from .errors import (
    CrossingCountMismatchError,
    DegenerateBlockError,
    DegeneratePhiBlockError,
    SizeMismatchError,
    ValidationError,
)
from .transfer import TransferFactory, propagate
from .zipper import TWO_PI, SpectrumResult, Zipper, _circular_clusters, fiber_zipper


@dataclass
class PruferPhase:
    """Unitary phase matrix at a circle point (L x L finite, 2L x 2L periodic)."""

    z: complex
    matrix: np.ndarray


def _check_circle(z: complex) -> complex:
    z = complex(z)
    if abs(abs(z) - 1.0) > 1e-12:
        raise ValidationError(f"|z| = {abs(z):.8f} must be 1")
    return z / abs(z)


def _nudged_phase(zipper: Zipper, z: complex, factory: Optional[TransferFactory],
                  start: Optional[np.ndarray], upper, lower, right: np.ndarray,
                  error: Exception) -> PruferPhase:
    """W = b a^(-1) right, with a, b the ``upper`` and ``lower`` rows of the frame
    propagated from ``start`` over all N sites.

    b a^(-1) depends only on the plane spanned by the frame, so the
    renormalized propagation can be used; with orthonormal Lagrangian frames
    a and b are well-conditioned away from a measure-zero set of theta, where
    a single machine-scale nudge is attempted before ``error`` is raised.
    """
    fac = factory or TransferFactory(zipper)
    for attempt in range(2):
        frame = propagate(zipper, z, zipper.N, factory=fac, start=start).matrix
        a, b = frame[upper], frame[lower]
        if mc.smallest_singular_value(a) > 1e-8:
            return PruferPhase(z, np.linalg.solve(a.T, b.T).T @ right)
        z = z * np.exp(1e-12j)  # nudge off the degenerate point
    raise error


def prufer(zipper: Zipper, z: complex, factory: Optional[TransferFactory] = None) -> PruferPhase:
    """Pruefer unitary of a finite zipper: W = psi_N phi_N^(-1) V*."""
    z = _check_circle(z)
    if zipper.flavor != "finite":
        raise ValidationError("prufer needs a finite zipper")
    L = zipper.L
    return _nudged_phase(zipper, z, factory, None, slice(0, L), slice(L, 2 * L),
                         mc.adj(zipper.boundary_v),
                         DegeneratePhiBlockError("phi block of the frame stayed singular after a nudge"))


def checkerboard_sum(T1, T2) -> np.ndarray:
    """Block interleaving [[A,0,B,0],[0,A',0,B'],[C,0,D,0],[0,C',0,D']].

    Multiplicative: (T (+) T')(S (+) S') = (TS) (+) (T'S'), and it sends the
    pair of signature forms to the doubled signature form.
    """
    T1 = mc.as_cmatrix(T1)
    T2 = mc.as_cmatrix(T2)
    if T1.shape != T2.shape:
        raise SizeMismatchError(f"shapes {T1.shape} and {T2.shape} differ")
    A, B, C, D = mc.split_blocks(T1)
    A2, B2, C2, D2 = mc.split_blocks(T2)
    L = A.shape[0]
    Z = np.zeros((L, L), dtype=complex)
    return np.block([
        [A, Z, B, Z],
        [Z, A2, Z, B2],
        [C, Z, D, Z],
        [Z, C2, Z, D2],
    ])


def doubled_initial_frame(L: int) -> np.ndarray:
    """The doubled Lagrangian start frame [[0,1],[1,0],[1,0],[0,1]] in L x L blocks."""
    one = mc.eye(L)
    zero = np.zeros((L, L), dtype=complex)
    return np.block([[zero, one], [one, zero], [one, zero], [zero, one]])


def _swap(L: int) -> np.ndarray:
    one = mc.eye(L)
    zero = np.zeros((L, L), dtype=complex)
    return np.block([[zero, one], [one, zero]])


def prufer_periodic(zipper: Zipper, z: complex,
                    factory: Optional[TransferFactory] = None) -> PruferPhase:
    """Doubled Pruefer unitary of a periodic zipper.

    Propagates the doubled start frame by 1 (+) T_n(z) with per-step
    renormalization; the eigenvalue-1 multiplicity of the result equals the
    geometric multiplicity of 1 as eigenvalue of the full transfer product,
    hence the multiplicity of z in the periodic operator spectrum.
    ``propagate`` keeps the rows in the order (carried upper, carried lower,
    acted upper, acted lower), the checkerboard order with the middle two
    L-row blocks swapped; the doubled start frame reads the same in both.
    W = b a^(-1) S, with a and b the positive- and negative-signature halves
    of the checkerboard-ordered frame and S the block swap; a b^(-1) is
    unitary on Lagrangian frames, so this is (a b^(-1))* S.
    """
    z = _check_circle(z)
    if zipper.flavor != "periodic":
        raise ValidationError("prufer_periodic needs a periodic zipper")
    L = zipper.L
    return _nudged_phase(zipper, z, factory, doubled_initial_frame(L),
                         np.r_[0:L, 2 * L:3 * L], np.r_[L:2 * L, 3 * L:4 * L], _swap(L),
                         DegenerateBlockError("doubled frame chart stayed singular after a nudge"))


# -- monotone eigenphase sweep ---------------------------------------------------

def _sorted_phases(W: np.ndarray) -> np.ndarray:
    return np.sort(np.mod(np.angle(np.linalg.eigvals(W)), TWO_PI))


def _match_shift(p: np.ndarray, q: np.ndarray, mono_tol: float = 1e-7):
    """Monotone matching of two sorted phase vectors on the circle.

    Branches only move upward, so sorted position j at the earlier point maps
    to position (j + s) mod m at the later one, where the shift s counts how
    many branch passages of the 2 pi seam occurred (s >= m means full extra
    turns).  Returns (s, increments) with all increments >= -mono_tol and
    minimal total displacement, or None if no shift is monotone.
    """
    m = len(p)
    j = np.arange(m)
    best = None
    for s in range(2 * m + 1):
        q_shift = q[(j + s) % m] + TWO_PI * ((j + s) // m)
        delta = q_shift - p
        if np.all(delta >= -mono_tol):
            total = float(delta.sum())
            if best is None or total < best[2]:
                best = (s, delta, total)
            break  # larger shifts only add full turns on top of a valid match
    if best is None:
        return None
    return best[0], best[1]


class _BranchTracker:
    """Cumulative unwrapped eigenphases, indexed by current sorted position."""

    def __init__(self, phases: np.ndarray):
        self.cum = phases.copy()

    def residues(self) -> np.ndarray:
        return np.mod(self.cum, TWO_PI)

    def advance(self, q: np.ndarray):
        """Advance to the next grid point with sorted residues q.

        Returns (start_values, end_values) in the pre-advance branch order,
        or None if no monotone matching exists.
        """
        match = _match_shift(self.residues(), q)
        if match is None:
            return None
        s, delta = match
        start = self.cum.copy()
        end = start + delta
        m = len(q)
        new_cum = np.empty_like(end)
        for j in range(m):
            new_cum[(j + s) % m] = end[j]
        self.cum = new_cum
        return start, end


def _refine_crossing(wfn: Callable[[float], np.ndarray], th_a: float, th_b: float,
                     residues_a: np.ndarray, branch: int, value_a: float,
                     target: float, refine_tol: float, max_iter: int = 60) -> float:
    """Bisect the theta at which the tracked branch's unwrapped phase hits target."""
    res = residues_a.copy()
    j = branch
    val = value_a
    m = len(res)
    for _ in range(max_iter):
        if th_b - th_a <= refine_tol:
            break
        mid = 0.5 * (th_a + th_b)
        q = _sorted_phases(wfn(mid))
        match = _match_shift(res, q)
        if match is None:
            break  # fall back to the current bracket midpoint
        s, delta = match
        if val + delta[j] >= target:
            th_b = mid
        else:
            th_a = mid
            val = val + delta[j]
            j = (j + s) % m
            res = q
    return 0.5 * (th_a + th_b)


def sweep_spectrum(wfn: Callable[[float], np.ndarray], n_branches: int, expected_total: int,
                   grid_size: int, refine_tol: float = 1e-10, retries: int = 10) -> SpectrumResult:
    """Locate all eigenvalue-1 crossings of a monotone unitary family over theta.

    ``wfn(theta)`` must return the (near-)unitary phase matrix; crossings are
    multiples of 2 pi of the unwrapped branch phases.  A crossing hides from
    the sampled sweep when a branch completes a full turn inside one grid
    interval (a narrow resonance), which no endpoint-based test can detect;
    the grid is therefore doubled on a count mismatch, up to ``retries``
    times, reusing all previously computed phase samples so the cumulative
    cost stays proportional to the finest grid actually needed.
    """
    grid = int(grid_size)
    offset = 0.37 * TWO_PI / grid  # fixed across retries so refined grids nest
    cache: dict = {}

    def phases_at(th: float) -> np.ndarray:
        p = cache.get(th)
        if p is None:
            p = _sorted_phases(wfn(th))
            cache[th] = p
        return p

    last_error = None
    for attempt in range(retries + 1):
        step = TWO_PI / grid
        crossings: list = []
        tracker = None
        ok = True
        prev_theta = None
        prev_res = None
        for i in range(grid + 1):
            th = offset + i * step
            phases = phases_at(th)
            if tracker is None:
                tracker = _BranchTracker(phases)
                prev_theta, prev_res = th, tracker.residues()
                continue
            advanced = tracker.advance(phases)
            if advanced is None:
                ok = False
                break
            start, end = advanced
            for j in range(n_branches):
                first = int(np.ceil(start[j] / TWO_PI + 1e-13))
                last = int(np.floor(end[j] / TWO_PI + 1e-13))
                for mult in range(first, last + 1):
                    target = TWO_PI * mult
                    if target <= start[j]:
                        continue
                    crossings.append(_refine_crossing(
                        wfn, prev_theta, th, prev_res, j, start[j], target, refine_tol))
            prev_theta, prev_res = th, tracker.residues()
        if ok and len(crossings) == expected_total:
            return _circular_clusters(crossings, 10.0 * refine_tol)[0]
        last_error = (f"found {len(crossings)} crossings, expected {expected_total} "
                      f"(grid {grid}{'' if ok else ', tracking lost'})")
        grid *= 2
    raise CrossingCountMismatchError(last_error)


# -- spectra -----------------------------------------------------------------------

def _phase_family(zipper: Zipper) -> Callable[[float], np.ndarray]:
    """theta -> Pruefer unitary at exp(i theta): ``prufer`` for finite zippers,
    ``prufer_periodic`` for periodic ones, sharing one transfer cache."""
    fac = TransferFactory(zipper)
    phase = prufer if zipper.flavor == "finite" else prufer_periodic
    return lambda theta: phase(zipper, np.exp(1j * theta), factory=fac).matrix


def spectrum_by_oscillation(zipper: Zipper, grid_size: Optional[int] = None,
                            refine_tol: float = 1e-10) -> SpectrumResult:
    """All N L eigenvalues of a finite or periodic zipper by Pruefer-phase crossing counting.

    Finite zippers sweep the L branches of ``prufer``, periodic ones the 2L
    branches of the doubled ``prufer_periodic``.
    """
    if not isinstance(zipper, Zipper):
        raise ValidationError("oscillation spectra need a finite or periodic zipper")
    total = zipper.N * zipper.L
    grid = grid_size if grid_size is not None else 8 * total
    if grid < 4 * total:
        raise ValidationError(f"grid size {grid} under the sampling floor {4 * total}")
    branches = zipper.L if zipper.flavor == "finite" else 2 * zipper.L
    return sweep_spectrum(_phase_family(zipper), branches, total, grid, refine_tol)


def spectrum_periodic(zipper: Zipper, grid_size: Optional[int] = None,
                      refine_tol: float = 1e-10) -> SpectrumResult:
    """All N L eigenvalues of a periodic zipper via the doubled phases."""
    if zipper.flavor != "periodic":
        raise ValidationError("spectrum_periodic needs a periodic zipper")
    return spectrum_by_oscillation(zipper, grid_size, refine_tol)


def rotation_positivity_check(zipper: Zipper, theta: float, h: float = 1e-5) -> float:
    """Smallest eigenvalue of the central-difference estimate of W* dW/dtheta / i.

    Positive values confirm the monotone rotation of the eigenphases; the
    periodic flavor checks the doubled phase matrix.
    """
    get = _phase_family(zipper)
    W0 = get(theta)
    D = (get(theta + h) - get(theta - h)) / (2.0 * h)
    M = mc.hermitize(mc.adj(W0) @ D / 1j)
    return float(np.linalg.eigvalsh(M).min())


# -- band structures -----------------------------------------------------------------

@dataclass
class BandStructure:
    """Per-momentum spectra of the Bloch-Floquet fibers of a periodic zipper."""

    ks: np.ndarray
    spectra: list

    def eigenphase_table(self) -> np.ndarray:
        """(n_k, N L) array of sorted eigenphases per momentum."""
        return np.vstack([s.expanded_thetas() for s in self.spectra])

    def all_phases(self) -> np.ndarray:
        return np.sort(np.concatenate([s.expanded_thetas() for s in self.spectra]))

    def max_circle_gap(self) -> float:
        """Largest angular gap left uncovered by the union of the fiber spectra."""
        phases = self.all_phases()
        if len(phases) == 0:
            return TWO_PI
        gaps = np.diff(phases)
        wrap = phases[0] + TWO_PI - phases[-1]
        return float(max(gaps.max(initial=0.0), wrap))


def momentum_grid(N: int, k_grid_size: int) -> np.ndarray:
    """Uniform quarter-offset grid on the momentum torus (-pi/N, pi/N].

    The quarter offset keeps the two reflection-related eigenphase families
    of symmetric instances interleaved instead of coincident, halving the
    worst-case coverage gap of the band union.
    """
    h = (TWO_PI / N) / k_grid_size
    return -np.pi / N + (np.arange(k_grid_size) + 0.25) * h


def bands(zipper: Zipper, k_grid_size: int, grid_size: Optional[int] = None,
          refine_tol: float = 1e-10) -> BandStructure:
    """Band structure: spectrum_periodic of the fiber at every momentum grid point."""
    if zipper.flavor != "periodic":
        raise ValidationError("bands needs a periodic zipper")
    ks = momentum_grid(zipper.N, k_grid_size)
    spectra = [spectrum_periodic(fiber_zipper(zipper, k), grid_size=grid_size, refine_tol=refine_tol)
               for k in ks]
    return BandStructure(ks, spectra)
