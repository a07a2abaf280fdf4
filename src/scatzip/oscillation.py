"""Oscillation theory: matrix Pruefer phases and eigenvalue localization.

For z on the unit circle the propagated frame stays Lagrangian for the
signature form, so its stereographic projection is unitary; composing with
the right boundary chart gives the Pruefer unitary W(z) whose eigenvalue-1
multiplicity equals the multiplicity of z in the operator spectrum.  All
eigenphases of W rotate strictly upward in theta, so the full spectrum is
found by sweeping theta, counting in every grid interval how many
eigenphases pass the 2 pi seam, and bisecting the intervals that hold
crossings.

Periodic zippers use the doubled (checkerboard) construction: the fixed-point
condition of the transfer cocycle becomes a Lagrangian intersection in twice
the dimension, handled by the same sweep on a 2L x 2L Pruefer unitary.  Both
phases propagate their frames with ``transfer.propagate``: the doubled frame
carries the identity half of 1 (+) T_n as rows above the 2L rows T_n acts on,
so ``checkerboard_sum`` is never formed on the way and stays as the reference
for that row order.

Both phases take an array of circle points and evaluate it in one call of
``propagate``.  The sweep samples its whole theta grid that way (at most
SWEEP_BLOCK points per call), counts the seam passages of all its intervals
in one array operation, keeps the samples when a count mismatch doubles the
grid, and bisects the intervals holding crossings only once the total
matches, all of them in lockstep with one batched call per level.
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

# Most theta one batched Pruefer evaluation takes; bounds the frame stacks in
# memory when a sweep doubles its grid to thousands of points.
SWEEP_BLOCK = 1024


@dataclass
class PruferPhase:
    """Unitary phase matrix at a circle point (L x L finite, 2L x 2L periodic).

    Evaluated at a 1-D array of points, ``z`` is that array (with any nudged
    point moved) and ``matrix`` the (B, m, m) stack of phase matrices.
    """

    z: complex
    matrix: np.ndarray


def _check_circle(z):
    z = np.asarray(z, dtype=complex)
    off = np.abs(np.abs(z) - 1.0) > 1e-12
    if np.any(off):
        raise ValidationError(f"|z| = {np.abs(z[off]).flat[0]:.8f} must be 1")
    return z / np.abs(z)


def _chart_regular(a: np.ndarray) -> np.ndarray:
    """Per point of a (B, m, m) stack: is the smallest singular value above 1e-8?"""
    return np.linalg.svd(a, compute_uv=False)[:, -1] > 1e-8


def _nudged_phase(zipper: Zipper, z, factory: Optional[TransferFactory],
                  start: Optional[np.ndarray], upper, lower, right: np.ndarray,
                  error: Exception) -> PruferPhase:
    """W = b a^(-1) right, with a, b the ``upper`` and ``lower`` rows of the frame
    propagated from ``start`` over all N sites; ``z`` is one point or a 1-D array.

    b a^(-1) depends only on the plane spanned by the frame, so the
    renormalized propagation can be used; with orthonormal Lagrangian frames
    a and b are well-conditioned away from a measure-zero set of theta.  The
    points that hit it get a single machine-scale nudge, and ``error`` is
    raised if one of them stays degenerate.
    """
    fac = factory or TransferFactory(zipper)
    zs = np.atleast_1d(z).copy()
    W = np.empty((len(zs),) + right.shape, dtype=complex)
    todo = np.arange(len(zs))
    for attempt in range(2):
        frame = propagate(zipper, zs[todo], zipper.N, factory=fac, start=start).matrix
        a, b = frame[:, upper], frame[:, lower]
        ok = _chart_regular(a)
        W[todo[ok]] = np.swapaxes(np.linalg.solve(np.swapaxes(a[ok], 1, 2),
                                                  np.swapaxes(b[ok], 1, 2)), 1, 2) @ right
        todo = todo[~ok]
        if len(todo) == 0:
            if np.ndim(z) == 0:
                return PruferPhase(complex(zs[0]), W[0])
            return PruferPhase(zs, W)
        zs[todo] *= np.exp(1e-12j)  # nudge off the degenerate points
    raise error


def prufer(zipper: Zipper, z, factory: Optional[TransferFactory] = None) -> PruferPhase:
    """Pruefer unitary of a finite zipper: W = psi_N phi_N^(-1) V*.

    ``z`` is one circle point or a 1-D array of them, evaluated in one call.
    """
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


def prufer_periodic(zipper: Zipper, z,
                    factory: Optional[TransferFactory] = None) -> PruferPhase:
    """Doubled Pruefer unitary of a periodic zipper, at one point or a 1-D array.

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
    """Sorted eigenphases in [0, 2 pi) of W, or of each matrix of a stack."""
    return np.sort(np.mod(np.angle(np.linalg.eigvals(W)), TWO_PI), axis=-1)


def _seam_passages(p: np.ndarray, q: np.ndarray, mono_tol: float = 1e-7) -> np.ndarray:
    """Seam passages between the sorted eigenphase rows of two (n, m) stacks.

    Branches only move upward, so sorted position j in row p maps to
    position (j + s) mod m in row q, where s counts the branch passages of
    the 2 pi seam in between.  Returns, per row, the smallest s in [0, m]
    whose increments q[(j+s) % m] + 2 pi ((j+s) // m) - p[j] are all
    >= -mono_tol; s = m always qualifies because phases lie in [0, 2 pi].
    A branch that turns more than once inside one interval is undercounted;
    the sweep catches this through the total count.
    """
    m = p.shape[1]
    j = np.arange(m)
    count = np.full(len(p), m)
    for s in range(m - 1, -1, -1):  # the smallest qualifying shift is written last
        delta = q[:, (j + s) % m] + TWO_PI * ((j + s) // m) - p
        count[np.all(delta >= -mono_tol, axis=1)] = s
    return count


def _sample(wfn: Callable[[np.ndarray], np.ndarray], thetas: np.ndarray) -> np.ndarray:
    """Sorted eigenphases, one row per theta, in batched calls of at most SWEEP_BLOCK points."""
    return np.concatenate([_sorted_phases(wfn(thetas[i:i + SWEEP_BLOCK]))
                           for i in range(0, len(thetas), SWEEP_BLOCK)])


def _bisect(wfn: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray,
            phases: np.ndarray, count: np.ndarray, refine_tol: float,
            max_iter: int = 60) -> np.ndarray:
    """Bisect the brackets [lo, hi] in lockstep, one batched evaluation of the midpoints per level.

    ``phases`` are the sorted eigenphases at lo and ``count`` the crossings
    inside each bracket.  The left half gets min(s, count) of them, with s
    the seam passages from lo to the midpoint, and the right half the rest;
    halves without a crossing are dropped.  A bracket stops at width
    refine_tol; its midpoint is returned once per crossing.
    """
    done = []
    for _ in range(max_iter):
        fine = hi - lo <= refine_tol
        done.append(np.repeat(0.5 * (lo[fine] + hi[fine]), count[fine]))
        lo, hi, phases, count = lo[~fine], hi[~fine], phases[~fine], count[~fine]
        if len(lo) == 0:
            break
        mid = 0.5 * (lo + hi)
        q = _sample(wfn, mid)
        left = np.minimum(_seam_passages(phases, q), count)
        right = count - left
        lo = np.concatenate([lo[left > 0], mid[right > 0]])
        hi = np.concatenate([mid[left > 0], hi[right > 0]])
        phases = np.concatenate([phases[left > 0], q[right > 0]])
        count = np.concatenate([left[left > 0], right[right > 0]])
    done.append(np.repeat(0.5 * (lo + hi), count))
    return np.concatenate(done)


def sweep_spectrum(wfn: Callable[[np.ndarray], np.ndarray], expected_total: int,
                   grid_size: int, refine_tol: float = 1e-10, retries: int = 10) -> SpectrumResult:
    """Locate all eigenvalue-1 crossings of a monotone unitary family over theta.

    ``wfn(thetas)`` must return the stack of (near-)unitary phase matrices at
    a 1-D array of theta; a crossing is an eigenphase passing the 2 pi seam.
    The whole grid is sampled in batched calls and the seam passages of all
    grid intervals are counted at once; the intervals holding crossings are
    bisected, all in lockstep, only once the total matches
    ``expected_total``.  A crossing hides from the sampled sweep when a
    branch completes a full turn inside one grid interval (a narrow
    resonance), which no endpoint-based test can detect; the grid is
    therefore doubled on a count mismatch, up to ``retries`` times.  The
    previous samples become the even rows of the doubled grid and only the
    new odd theta are evaluated, so the cumulative cost stays proportional
    to the finest grid actually needed.
    """
    grid = int(grid_size)
    offset = 0.37 * TWO_PI / grid  # fixed across retries so refined grids nest
    samples = None
    for _ in range(retries + 1):
        thetas = offset + np.arange(grid + 1) * (TWO_PI / grid)
        if samples is None:
            samples = _sample(wfn, thetas)
        else:
            doubled = np.empty((grid + 1, samples.shape[1]))
            doubled[0::2] = samples
            doubled[1::2] = _sample(wfn, thetas[1::2])
            samples = doubled
        count = _seam_passages(samples[:-1], samples[1:])
        found = int(count.sum())
        if found == expected_total:
            hit = count > 0
            crossings = _bisect(wfn, thetas[:-1][hit], thetas[1:][hit], samples[:-1][hit],
                                count[hit], refine_tol)
            return _circular_clusters(crossings, 10.0 * refine_tol)[0]
        last_error = f"found {found} crossings, expected {expected_total} (grid {grid})"
        grid *= 2
    raise CrossingCountMismatchError(last_error)


# -- spectra -----------------------------------------------------------------------

def _phase_family(zipper: Zipper) -> Callable[[np.ndarray], np.ndarray]:
    """thetas -> stack of Pruefer unitaries at exp(i theta), one batched call:
    ``prufer`` for finite zippers, ``prufer_periodic`` for periodic ones,
    sharing one transfer cache."""
    fac = TransferFactory(zipper)
    phase = prufer if zipper.flavor == "finite" else prufer_periodic
    return lambda thetas: phase(zipper, np.exp(1j * np.asarray(thetas)), factory=fac).matrix


def spectrum_by_oscillation(zipper: Zipper, grid_size: Optional[int] = None,
                            refine_tol: float = 1e-10) -> SpectrumResult:
    """All N L eigenvalues of a finite or periodic zipper by Pruefer-phase crossing counting.

    Finite zippers sweep the L eigenphases of ``prufer``, periodic ones the
    2L eigenphases of the doubled ``prufer_periodic``.
    """
    if not isinstance(zipper, Zipper):
        raise ValidationError("oscillation spectra need a finite or periodic zipper")
    total = zipper.N * zipper.L
    grid = grid_size if grid_size is not None else 8 * total
    if grid < 4 * total:
        raise ValidationError(f"grid size {grid} under the sampling floor {4 * total}")
    return sweep_spectrum(_phase_family(zipper), total, grid, refine_tol)


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
    W0, W_plus, W_minus = _phase_family(zipper)(np.array([theta, theta + h, theta - h]))
    D = (W_plus - W_minus) / (2.0 * h)
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
