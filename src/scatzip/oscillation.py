"""Oscillation theory: matrix Pruefer phases and eigenvalue localization.

For z on the unit circle the propagated frame stays Lagrangian for the
signature form, so its chart is unitary; composing with the right boundary
chart gives the Pruefer unitary W(z) whose eigenvalue-1 multiplicity equals
the multiplicity of z in the operator spectrum.  All eigenphases of W
rotate strictly upward in theta, so the full spectrum is found by sweeping
theta, counting in every grid interval how many eigenphases pass the 2 pi
seam, and refining the intervals that hold crossings.

Periodic zippers use the doubled (checkerboard) construction: the fixed-point
condition of the transfer cocycle becomes a Lagrangian intersection in twice
the dimension, handled by the same sweep on a 2L x 2L Pruefer unitary.  Both
phases carry the chart W = b a^(-1) of their frame by Moebius steps
(``transfer.chart_chain``), never the frame, one step per site pair: only
even sites depend on z, so the (odd, even) pair T_2k(z) T_(2k-1) =
diag(1, z) (X_k / z + Y_k) is one period of the transfer cocycle, with X_k
and Y_k folded from the phi table on every call (``transfer.pair_table``).
The frames of ``transfer.propagate`` and the direct
``transfer.transfer_product`` stay as the references they are checked on.

Both phases take one circle point or a 1-D array of them and return the
m x m unitary, or the (B, m, m) stack, evaluated in one chain; a point whose
chart drifts more than PRUFER_UNITARY_TOL from unitary breaks down alone,
to a NaN matrix, and the other points of its call keep their W.
The sweep samples its whole theta grid that way (at most SWEEP_BLOCK points
per call, and as many matrices per eigvals call), counts the seam passages
of all its intervals in one array operation, and refines the intervals
holding crossings once the total matches, all of them in lockstep with one
batched call per level: ITP steps on the mean of the branches that pass
the seam, one branch or several.

A branch that turns a full circle inside one grid interval (a narrow
resonance) hides its crossing from the seam count.  By the oscillation
theorem the crossings in an interval are the eigenvalues in its arc, for a
finite zipper and for the doubled periodic phase at every momentum, and
``zipper.arc_counts`` reads them off the band stack by inertia.  So a sweep
whose first grid comes up short, or breaks down at a grid point, counts its
intervals.  Every bracket is then either certified, trusting its seam
passages, or counted.  A counted bracket of one eigenvalue finishes by
shifted inverse iteration on the band stack (``zipper.shifted_solve``), with
Rayleigh-quotient updates of its shift, and is located once the Bauer-Fike
arc of its residual lies inside it; a run that leaves its bracket, or takes
INVERSE_STEPS solves, hands it back to the counts.  Any other counted one
is cut at its midpoint, sampled there only between two known phases, until
its seam passages agree with its count; a certified one whose sample breaks
down finishes on the counts alone.  All of them share one lockstep loop
(``_locate``), with at most one batched solve, one batched sample and one
count call per level.  No sweep samples a second grid.

Bands are one sweep over all momenta, or over chunks of them where the
momentum grid would make the phase table too large.  The fiber at momentum
k scales each transfer by e^(ik), so its doubled Pruefer unitary is the
untwisted one with the diagonal blocks scaled by e^(-iNk) and e^(iNk) (the
Floquet twist).  The sweep carries a member index on every sample row and
bracket: one untwisted ``prufer_periodic`` chain per theta serves every
momentum, and only the momenta whose first grid is short count their arcs,
each on the band stack of its own fiber; their brackets finish by counts,
not by inverse iteration.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import matrix_core as mc
from .errors import NumericalBreakdownError, ValidationError
from .transfer import TransferFactory, chart_chain, pair_table
from .zipper import (TWO_PI, BlockBandedUnitary, SpectrumResult, Zipper, _circular_clusters, apply, arc_counts,
                     assemble_finite, assemble_periodic, fiber, shifted_solve)

# Most theta one batched Pruefer evaluation takes, and most matrices one
# eigvals call takes; bounds the frame and phase-matrix stacks in memory when
# a sweep samples thousands of points or twists many members.
SWEEP_BLOCK = 1024
# Most first-grid sample rows, momenta times (grid + 1) theta, one ``bands``
# sweep takes; more momenta are swept in chunks, so that the phase table and
# the seam-count temporaries of a sweep do not grow with the momentum grid.
BANDS_SAMPLE_ROWS = 2 ** 16
# The twist of a one-member family: wfn itself (broadcasts over every m x m).
UNTWISTED = np.ones((1, 1, 1))
# Largest entry of W* W - 1 a Pruefer unitary may carry.  Rounding grows like
# eps times the branch slope: at a resonance of finite_zipper(7, 1, 24,
# "haar-gauge", 0.85) (slope 5e7) the chart drifts 1.8e-8, QR frames 1.2e-8.
PRUFER_UNITARY_TOL = 1e-6
# Largest downward step of a sorted eigenphase that ``_seam_passages`` still
# reads as rounding of a branch that only moves upward.
MONO_TOL = 1e-7
# Levels ``_locate`` shrinks its brackets at most; every bracket still open
# after the last one is returned as it stands.
LOCATE_MAX_LEVELS = 60
# Solves an inverse-iteration run takes at most before its bracket goes back
# to count bisection.
INVERSE_STEPS = 6
# Most runs one inverse-iteration step solves and applies the operator to at
# once: at N L = 1024 a thousand runs in one piece took 40-70 MB more RSS.
INVERSE_BLOCK = 256


def _check_circle(z):
    z = np.asarray(z, dtype=complex)
    if z.ndim > 1:
        raise ValidationError(f"z must be a point or a 1-D array, got ndim={z.ndim}")
    off = ~(np.abs(np.abs(z) - 1.0) <= 1e-12)  # NaN is off the circle
    if np.any(off):
        raise ValidationError(f"|z| = {np.abs(z[off]).flat[0]:.8f} must be 1")
    return z / np.abs(z)


def _unitary_chart(z, table: np.ndarray, start: np.ndarray, acted: slice, right: np.ndarray) -> np.ndarray:
    """W = chart_chain(table, z, start, acted) right, at one circle point or a 1-D array.
    On the circle every denominator is invertible (an orthonormal Lagrangian frame
    has a* a = b* b = 1/2); a point whose W* W - 1 has an entry above
    PRUFER_UNITARY_TOL has broken down, and its W is NaN throughout."""
    zs = np.atleast_1d(z)
    W = chart_chain(table, zs, start, acted)[0] @ right
    defect = np.abs(mc.adj(W) @ W - mc.eye(W.shape[-1])).max(axis=(-2, -1))
    W[~(defect <= PRUFER_UNITARY_TOL)] = np.nan
    return W[0] if np.ndim(z) == 0 else W


def _unbroken(W: np.ndarray, z) -> np.ndarray:
    """W, the Pruefer unitary at z or the stack at a 1-D array of z, if none broke
    down; else a NumericalBreakdownError naming the first point whose W is NaN."""
    if np.isnan(W).any():
        z = np.atleast_1d(z)[np.argmax(np.isnan(W).any(axis=(-2, -1)))]
        raise NumericalBreakdownError(f"Pruefer unitary at z = {z:.6g} has unitarity defect above "
                                      f"{PRUFER_UNITARY_TOL:.0e}")
    return W


def prufer(zipper: Zipper, z, factory: Optional[TransferFactory] = None) -> np.ndarray:
    """Pruefer unitary of a finite zipper: W = psi_N phi_N^(-1) V*, L x L.

    ``z`` is one circle point or a 1-D array of B of them, evaluated in one
    chart chain from W = 1, the chart of the start frame (1; 1), with one
    Moebius step per site pair on the ``transfer.pair_table`` of the phi
    table; an array gives the (B, L, L) stack.  A point whose W drifts more than
    PRUFER_UNITARY_TOL from unitary has broken down and gets a NaN matrix;
    nothing is raised.
    """
    z = _check_circle(z)
    if zipper.flavor != "finite":
        raise ValidationError("prufer needs a finite zipper")
    table = pair_table((factory or zipper).phi_table(zipper.N))
    return _unitary_chart(z, table, mc.eye(zipper.L), slice(None), mc.adj(zipper.boundary_v))


def _swap(L: int) -> np.ndarray:
    one = mc.eye(L)
    zero = np.zeros((L, L), dtype=complex)
    return np.block([[zero, one], [one, zero]])


def _doubled_table(rows: np.ndarray, carried: float) -> np.ndarray:
    """Rows c (+) T as [[diag(c, A), diag(0, B)], [diag(0, C), diag(c, D)]], with c the
    ``carried`` scalar: the checkerboard sum with the middle two L-row blocks
    swapped, so that the frame halves are (carried upper, acted upper) and
    (carried lower, acted lower)."""
    L = rows.shape[-1] // 2
    out = np.zeros((len(rows), 4 * L, 4 * L), dtype=complex)
    out[:, :L, :L] = out[:, 2 * L:3 * L, 2 * L:3 * L] = carried * mc.eye(L)
    acted = np.r_[L:2 * L, 3 * L:4 * L]
    out[:, acted[:, None], acted] = rows
    return out


def prufer_periodic(zipper: Zipper, z, factory: Optional[TransferFactory] = None) -> np.ndarray:
    """Doubled Pruefer unitary of a periodic zipper, 2L x 2L, at one point or a 1-D array.

    Carries the chart of the doubled start frame by 1 (+) T_n(z); the
    eigenvalue-1 multiplicity of the result equals the geometric
    multiplicity of 1 as eigenvalue of the full transfer product, hence the
    multiplicity of z in the periodic operator spectrum.  The start frame
    has chart S, the block swap; one Moebius step per site pair applies
    1 (+) diag(1, z) (X_k / z + Y_k) = diag(1, E) ((0 (+) X_k) / z + 1 (+) Y_k),
    E = z on the acted lower rows, and W = b a^(-1) S = (a b^(-1))* S on
    Lagrangian frames.  A point that breaks down gets a NaN matrix, as in
    ``prufer``.
    """
    z = _check_circle(z)
    if zipper.flavor != "periodic":
        raise ValidationError("prufer_periodic needs a periodic zipper")
    L = zipper.L
    pairs = pair_table((factory or zipper).phi_table(zipper.N))
    table = np.concatenate([_doubled_table(pairs[:, :2 * L], 0.0), _doubled_table(pairs[:, 2 * L:], 1.0)], axis=1)
    return _unitary_chart(z, table, _swap(L), slice(L, 2 * L), _swap(L))


# -- monotone eigenphase sweep ---------------------------------------------------

def _sorted_phases(W: np.ndarray) -> np.ndarray:
    """Sorted eigenphases in [0, 2 pi) of W, or of each matrix of a stack; a NaN
    row for a matrix that broke down (NaN throughout)."""
    ok = ~np.isnan(W[..., 0, 0])
    if not ok.all():  # eigvals refuses NaN: the rows of the others, from W with 1 in place of NaN
        return np.where(ok[..., None], _sorted_phases(np.where(ok[..., None, None], W, 1.0)), np.nan)
    return np.sort(np.mod(np.angle(np.linalg.eigvals(W)), TWO_PI), axis=-1)


def _seam_passages(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Seam passages between the sorted eigenphase rows of two (n, m) stacks.

    Branches only move upward, so sorted position j in row p maps to
    position (j + s) mod m in row q, where s counts the branch passages of
    the 2 pi seam in between.  Returns, per row, the smallest s in [0, m]
    whose increments q[(j+s) % m] + 2 pi ((j+s) // m) - p[j] are all
    >= -MONO_TOL; s = m always qualifies because phases lie in [0, 2 pi].
    A branch that turns more than once inside one interval is undercounted;
    the sweep catches this through the total count.
    """
    m = p.shape[1]
    j = np.arange(m)
    count = np.full(len(p), m)
    for s in range(m - 1, -1, -1):  # the smallest qualifying shift is written last
        delta = q[:, (j + s) % m] + TWO_PI * ((j + s) // m) - p
        count[np.all(delta >= -MONO_TOL, axis=1)] = s
    return count


def _sample_grid(wfn: Callable[[np.ndarray], np.ndarray], thetas: np.ndarray,
                 twists: np.ndarray) -> np.ndarray:
    """Sorted eigenphases of wfn(theta) * twists[j] entrywise, for every member j
    at every theta: a (len(twists), len(thetas), m) array.  Each theta is
    evaluated once for all members, and no call of ``wfn`` or of eigvals takes
    more than SWEEP_BLOCK matrices."""
    parts = []
    for i in range(0, len(thetas), SWEEP_BLOCK):
        W = wfn(thetas[i:i + SWEEP_BLOCK])
        step = max(1, SWEEP_BLOCK // len(W))  # members per eigvals call
        parts.append(np.concatenate([_sorted_phases(W * twists[j:j + step, None])
                                     for j in range(0, len(twists), step)]))
    return np.concatenate(parts, axis=1)


def _sample_rows(wfn: Callable[[np.ndarray], np.ndarray], thetas: np.ndarray,
                 twists: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Sorted eigenphases of wfn(thetas[i]) * twists[members[i]] entrywise, one row
    per i, in calls of at most SWEEP_BLOCK points."""
    return np.concatenate([_sorted_phases(wfn(thetas[i:i + SWEEP_BLOCK])
                                          * twists[members[i:i + SWEEP_BLOCK]])
                           for i in range(0, len(thetas), SWEEP_BLOCK)])


def _below(arc_count: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
           members: np.ndarray, x: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Eigenvalues of each member in the open arcs from ``anchor`` up to x.

    Callers keep x - anchor within pi / 2 of pi, where an eigenvalue at
    distance d from x moves a pivot by about d.  The count inside a bracket
    is the difference of two such counts with one anchor: an arc as narrow
    as the bracket would lose its eigenvalues to the cancellation in
    cos(theta - phi) - cos(delta) once delta nears 1e-8.
    """
    return arc_count(members, 0.5 * (x + anchor), 0.5 * (x - anchor))


def _locate(sample: Callable[[np.ndarray, np.ndarray], np.ndarray],
            arc_count: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
            certified: tuple, counted: tuple, refine_tol: float, iterate: Optional[Callable] = None) -> tuple:
    """Shrink all brackets in lockstep until each locates its crossings.

    A bracket [lo, hi] of family member ``members[i]`` holds ``count``
    crossings and knows the sorted eigenphases ``lo_phases`` and
    ``hi_phases`` at its ends (a NaN row where unknown); ``sample(thetas,
    members)`` gives such rows, NaN where a sample breaks down.
    ``certified`` is (members, lo, hi, lo_phases, hi_phases, count) of
    brackets that trust their seam passages; ``counted`` adds (anchor,
    base): ``base`` eigenvalues lie ``_below`` lo from ``anchor``.  Each
    level makes at most one ``sample`` and one ``arc_count`` call.

    A counted bracket whose known end phases agree with its count becomes
    certified.  Every other one is cut at its midpoint, sampled there if
    both its end phases are known, and counted there; its parts keep its
    anchor.  Every certified bracket takes an ITP step (interpolate,
    truncate, project; Oliveira and Takahashi 2020, with k1 = 0.2 /
    width0, k2 = 2, n0 = 1) on the centroid h of its c crossing branches:
    the mean of the top c phases minus 2 pi before the passage, of the
    bottom c phases after it, which is continuous and increasing in theta;
    at c = 1 it is the seam branch itself.  A cluster of c crossings at one
    eigenvalue is a root of h, which ITP reaches superlinearly on smooth
    branches, and its projection keeps every bracket within one halving of
    bisection, so it never needs more than one level more.  width0 (hi -
    lo when the bracket became certified) and the step count restart
    whenever a step changes the bracket's count.  The points keep
    refine_tol / 4 from the ends, so that the far end moves once the
    interpolant sits on the root.  The left part gets min(s, count)
    crossings, with s the seam passages from lo to the new point, and the
    right part the rest.  A certified bracket whose sample is a NaN row
    becomes counted, from pi below its midpoint and with unknown phases,
    once the counts at its ends confirm its count.  Parts without a
    crossing are dropped.

    With ``iterate``, every counted bracket of count 1 (a new one at the
    start of a level) starts a run at its midpoint instead: each level
    makes one ``iterate(members, thetas, vectors)`` call for every run,
    which returns the runs' vectors, their new thetas and residual radii
    (``_inverse_step``).  A run is located at its theta once the arc of
    radius 2 arcsin(r / 2) around it, where a normal operator has an
    eigenvalue, lies inside its bracket, which holds exactly one, and is
    at most refine_tol / 2 wide.  A run whose theta leaves its bracket, or
    that has taken INVERSE_STEPS solves, hands its bracket back to the
    counted ones at the same level; the parts of its cut start runs again.

    A bracket stops at width refine_tol, or when no float lies inside it,
    and is returned once per crossing: a certified one at 2 pi if it holds
    the seam, so that the crossing folds to 0, else at the interpolated
    root of h; a counted one at its midpoint.  Returns the member and the
    theta of every crossing.
    """
    members, lo, hi, lo_phases, hi_phases, count = certified
    width0 = hi - lo  # width of each bracket when it got its count
    steps = np.zeros(len(lo))  # ITP steps taken since
    done = []
    rank = np.arange(lo_phases.shape[1])  # sorted position of each phase
    runs, vectors = tuple(a[:0] for a in counted) + (lo[:0], count[:0]), None  # counted, theta, solves
    for level in range(LOCATE_MAX_LEVELS + 1):
        last = level == LOCATE_MAX_LEVELS
        if iterate is not None and len(counted[0]):  # counted brackets of one eigenvalue start runs
            start = counted[5] == 1
            runs = tuple(np.concatenate([a, b[start]]) for a, b in zip(
                runs, (*counted, 0.5 * (counted[1] + counted[2]), np.zeros(len(start), dtype=int))))
            counted = tuple(a[~start] for a in counted)
        if len(runs[0]):  # one batched factor-and-solve for every run
            r_members, r_lo, r_hi, solves = runs[0], runs[1], runs[2], runs[9] + 1
            vectors, theta, radius = iterate(r_members, runs[8], vectors)
            arc = 2.0 * np.arcsin(np.minimum(0.5 * radius, 1.0))  # NaN where the solve broke down
            located = (r_lo < theta - arc) & (theta + arc < r_hi) & (arc <= 0.5 * refine_tol)
            back = ~located & (~((r_lo < theta) & (theta < r_hi)) | (solves >= INVERSE_STEPS) | last)
            done.append((r_members[located], theta[located]))
            counted = tuple(np.concatenate([a, b[back]]) for a, b in zip(counted, runs[:8]))
            keep = ~(located | back)
            runs, vectors = tuple(a[keep] for a in (*runs[:8], theta, solves)), vectors[keep]
        if len(counted[0]):
            c_lo, c_hi, c_lo_phases, c_hi_phases, c_count = counted[1:6]
            known = ~np.isnan(c_lo_phases[:, 0] + c_hi_phases[:, 0])
            agree = known & (_seam_passages(c_lo_phases, c_hi_phases) == c_count)
            members, lo, hi, lo_phases, hi_phases, count, width0, steps = (
                np.concatenate([a, b[agree]]) for a, b in zip(
                    (members, lo, hi, lo_phases, hi_phases, count, width0, steps),
                    (*counted[:6], c_hi - c_lo, np.zeros(len(c_lo)))))
            c_mid = 0.5 * (c_lo + c_hi)
            fine = ~agree & ((c_hi - c_lo <= refine_tol) | (c_mid <= c_lo) | (c_mid >= c_hi) | last)
            done.append((np.repeat(counted[0][fine], c_count[fine]), np.repeat(c_mid[fine], c_count[fine])))
            cut = ~(agree | fine)
            counted, c_mid, known = tuple(a[cut] for a in counted), c_mid[cut], known[cut]
        mid = 0.5 * (lo + hi)
        width = hi - lo
        top = np.where(rank >= len(rank) - count[:, None], lo_phases, 0.0).sum(axis=1) / count
        bottom = np.where(rank < count[:, None], hi_phases, 0.0).sum(axis=1) / count
        h_lo = top - TWO_PI  # h(lo) <= 0 <= h(hi)
        rise = bottom - h_lo
        interp = lo + width * np.divide(-h_lo, rise, out=np.zeros_like(rise), where=rise > 0)
        fine = (width <= refine_tol) | (mid <= lo) | (mid >= hi) | last
        seam = (lo <= TWO_PI) & (TWO_PI <= hi)
        theta = np.where(seam, TWO_PI, interp)
        done.append((np.repeat(members[fine], count[fine]), np.repeat(theta[fine], count[fine])))
        members, lo, hi, mid, width, interp, lo_phases, hi_phases, count, width0, steps = (
            a[~fine] for a in (members, lo, hi, mid, width, interp, lo_phases, hi_phases, count, width0, steps))
        c_members, c_lo, c_hi, c_lo_phases, c_hi_phases, c_count, anchor, base = counted
        if len(lo) == len(c_lo) == len(runs[0]) == 0:
            break
        side = np.sign(mid - interp)
        shift = 0.2 / width0 * width ** 2
        x = np.where(shift <= np.abs(mid - interp), interp + side * shift, mid)
        # project so that after j steps the width is at most width0 2^(1 - j)
        radius = np.maximum(width0 * 2.0 ** -steps - 0.5 * width, 0.0)
        x = np.where(np.abs(x - mid) <= radius, x, mid - side * radius)
        x = np.clip(x, np.maximum(lo + 0.25 * refine_tol, np.nextafter(lo, hi)),
                    np.minimum(hi - 0.25 * refine_tol, np.nextafter(hi, lo)))
        if len(c_lo):  # one sample call: the ITP points, then the cut midpoints between known phases
            c_q = np.full(c_lo_phases.shape, np.nan)  # the rows at the cut midpoints, NaN where not sampled
            points = np.r_[x, c_mid[known]]
            q = sample(points, np.r_[members, c_members[known]]) if len(points) else c_q[:0]
            c_q[known], q = q[len(x):], q[:len(x)]
        else:
            q = sample(x, members) if len(x) else lo_phases  # nothing is counted
            c_mid, c_q = c_lo, c_lo_phases
        lost = np.isnan(q[:, 0])  # a sample that broke down; never read as a phase
        gone = tuple(a[lost] for a in (members, lo, hi, count)) if np.any(lost) else ()
        if gone:
            members, lo, hi, x, q, lo_phases, hi_phases, count, width0, steps = (
                a[~lost] for a in (members, lo, hi, x, q, lo_phases, hi_phases, count, width0, steps))
        left = np.minimum(_seam_passages(lo_phases, q), count)
        right = count - left
        l, r = left > 0, right > 0
        members, lo, hi, lo_phases, hi_phases, before, count, width0, steps = (np.concatenate(pair) for pair in (
            (members[l], members[r]), (lo[l], x[r]), (x[l], hi[r]), (lo_phases[l], q[r]), (q[l], hi_phases[r]),
            (count[l], count[r]), (left[l], right[r]), (width0[l], width0[r]), (steps[l], steps[r])))
        same = count == before
        width0 = np.where(same, width0, hi - lo)
        steps = np.where(same, steps + 1, 0)
        # one count call: the cut midpoints, then both ends of each bracket whose sample broke down
        if len(c_lo) or gone:
            g_members, g_lo, g_hi, g_count = gone or (c_members[:0], c_lo[:0], c_lo[:0], c_count[:0])
            g_anchor = 0.5 * (g_lo + g_hi) - np.pi
            at, g_base, g_top = np.split(_below(arc_count, np.r_[c_members, g_members, g_members],
                                                np.r_[c_mid, g_lo, g_hi], np.r_[anchor, g_anchor, g_anchor]),
                                         [len(c_lo), len(c_lo) + len(g_lo)])
            left = at - base
            bad = (left < 0) | (left > c_count)  # a left half holds between none and all
            if np.any(bad):
                i = int(np.argmax(bad))
                raise NumericalBreakdownError(f"arc counts of [{c_lo[i]:.6g}, {c_hi[i]:.6g}] disagree: "
                                              f"{left[i]} in its left half of {c_count[i]}")
            bad = g_top - g_base != g_count
            if np.any(bad):
                i = int(np.argmax(bad))
                raise NumericalBreakdownError(f"arc counts find {g_top[i] - g_base[i]} eigenvalues in "
                                              f"[{g_lo[i]:.6g}, {g_hi[i]:.6g}], the sweep {g_count[i]}")
            l, r = left > 0, c_count > left
            unknown = np.full((len(g_lo), len(rank)), np.nan)
            counted = tuple(np.concatenate(parts) for parts in (
                (c_members[l], c_members[r], g_members), (c_lo[l], c_mid[r], g_lo), (c_mid[l], c_hi[r], g_hi),
                (c_lo_phases[l], c_q[r], unknown), (c_q[l], c_hi_phases[r], unknown),
                (left[l], (c_count - left)[r], g_count), (anchor[l], anchor[r], g_anchor), (base[l], at[r], g_base)))
    return tuple(np.concatenate(parts) for parts in zip(*done))


@dataclass
class FamilySpectra:
    """The spectra one sweep located for the members of a twisted family, in member order."""

    spectra: list

    @property
    def total_multiplicity(self) -> int:
        return sum(s.total_multiplicity for s in self.spectra)


def sweep_spectrum(wfn: Callable[[np.ndarray], np.ndarray], expected_total: int, grid_size: int,
                   arc_count: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
                   refine_tol: float = 1e-10, twists: np.ndarray = UNTWISTED,
                   iterate: Optional[Callable] = None) -> FamilySpectra:
    """Locate all eigenvalue-1 crossings of a monotone unitary family over theta.

    ``wfn(thetas)`` must return the stack of (near-)unitary phase matrices at
    a 1-D array of theta, a NaN matrix where one broke down; a crossing is
    an eigenphase passing the 2 pi seam.  One grid is sampled in batched
    calls and the seam passages of all its intervals are counted at once.
    A crossing hides from the sampled grid when a branch completes a full
    turn inside one grid interval (a narrow resonance), which no
    endpoint-based test can detect.

    ``arc_count(members, centers, halfwidths)`` gives the number of
    eigenvalues of member ``members[i]`` in the open arc (centers[i],
    halfwidths[i]) (``zipper.arc_counts`` on its band stack).  The
    intervals of a member whose grid matches ``expected_total`` and holds
    no NaN row trust their seam passages; every interval of any other
    member is counted, each grid half from pi / 2 below its first theta.
    All of them go to ``_locate`` as brackets, certified or counted, and
    are split and refined there in one lockstep.  A sweep whose grid
    matches for every member never counts.  With ``iterate`` (one step of
    inverse iteration for a batch of runs, as ``_inverse_step``), counted
    brackets of one eigenvalue finish by inverse iteration instead.

    One sweep covers the K monotone families of ``twists``, a (K, m, m)
    stack of unit-modulus factors (or anything broadcasting to it; the
    default UNTWISTED is the one member wfn itself): member j is
    wfn(theta) * twists[j] entrywise, each with ``expected_total``
    crossings.  Sample rows and brackets carry their member, and every grid
    theta is evaluated once for all members.  Returns the FamilySpectra
    with one SpectrumResult per member.
    """
    grid = int(grid_size)
    thetas = 0.37 * TWO_PI / grid + np.arange(grid + 1) * (TWO_PI / grid)
    samples = _sample_grid(wfn, thetas, twists)  # (K, grid + 1, m) sorted eigenphases
    K, m = len(samples), samples.shape[-1]
    count = _seam_passages(samples[:, :-1].reshape(-1, m), samples[:, 1:].reshape(-1, m)).reshape(K, grid)
    short = np.flatnonzero((count.sum(axis=1) != expected_total) | np.isnan(samples[..., 0]).any(axis=1))
    count[short] = 0
    f, i = np.nonzero(count)
    certified = (f, thetas[i], thetas[i + 1], samples[f, i], samples[f, i + 1], count[f, i])
    h = grid // 2
    anchors = thetas[[0, h]] - 0.5 * np.pi
    base = holds = np.zeros((0, grid), dtype=int)
    if len(short):
        at = _below(arc_count, np.repeat(short, grid + 2), np.tile(np.r_[thetas[:h + 1], thetas[h:]], len(short)),
                    np.tile(np.repeat(anchors, [h + 1, grid - h + 1]), len(short))).reshape(-1, grid + 2)
        base = np.delete(at, [h, grid + 1], axis=1)
        holds = np.delete(at, [0, h + 1], axis=1) - base
        bad = np.any(holds < 0, axis=1) | (holds.sum(axis=1) != expected_total)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise NumericalBreakdownError(f"arc counts of member {short[i]} find {holds[i].sum()} eigenvalues "
                                          f"in the grid intervals, expected {expected_total}")
    j, i = np.nonzero(holds)
    counted = (short[j], thetas[i], thetas[i + 1], samples[short[j], i], samples[short[j], i + 1], holds[j, i],
               anchors[(i >= h) * 1], base[j, i])
    members, crossings = _locate(lambda thetas, members: _sample_rows(wfn, thetas, twists, members),
                                 arc_count, certified, counted, refine_tol, iterate)
    return FamilySpectra([_circular_clusters(crossings[members == j], 10.0 * refine_tol)[0]
                          for j in range(K)])


# -- spectra -----------------------------------------------------------------------

def _phase_family(zipper: Zipper) -> Callable[[np.ndarray], np.ndarray]:
    """thetas -> stack of Pruefer unitaries at exp(i theta), one batched call:
    ``prufer`` for finite zippers, ``prufer_periodic`` for periodic ones,
    all reading the phi table the zipper holds."""
    phase = prufer if zipper.flavor == "finite" else prufer_periodic
    return lambda thetas: phase(zipper, np.exp(1j * np.asarray(thetas)))


def _sweep_grid(zipper: Zipper, grid_size: Optional[int], refine_tol: float) -> int:
    """The theta grid of a sweep over the N L eigenvalues of ``zipper`` (default
    8 N L), checked to be an integer at or above the sampling floor 4 N L, with
    ``refine_tol`` checked to lie in (0, 2 pi / grid)."""
    total = zipper.N * zipper.L
    grid = grid_size if grid_size is not None else 8 * total
    if not (isinstance(grid, (int, np.integer)) and grid >= 4 * total):  # also rejects NaN
        raise ValidationError(f"grid size {grid} must be an integer at or above the sampling floor "
                              f"{4 * total}")
    if not 0.0 < refine_tol < TWO_PI / grid:  # also false for NaN
        raise ValidationError(f"refine tolerance must lie in (0, 2 pi / {grid}), got {refine_tol}")
    return grid


def spectrum_by_oscillation(zipper: Zipper, grid_size: Optional[int] = None,
                            refine_tol: float = 1e-10) -> SpectrumResult:
    """All N L eigenvalues of a finite or periodic zipper by Pruefer-phase crossing counting.

    Finite zippers sweep the L eigenphases of ``prufer``, periodic ones the
    2L eigenphases of the doubled ``prufer_periodic``; both certify a short
    first grid by ``arc_counts`` on the band stack of ``assemble_finite`` or
    ``assemble_periodic``, and finish its brackets of one eigenvalue by
    inverse iteration on the same band stack (``_inverse_step``).
    """
    if not isinstance(zipper, Zipper):
        raise ValidationError("oscillation spectra need a finite or periodic zipper")
    grid = _sweep_grid(zipper, grid_size, refine_tol)
    assemble = assemble_finite if zipper.flavor == "finite" else assemble_periodic
    op = functools.cache(lambda: assemble(zipper))  # a sweep that never counts never assembles
    return sweep_spectrum(_phase_family(zipper), zipper.N * zipper.L, grid,
                          lambda members, centers, halfwidths: arc_counts(op(), centers, halfwidths),
                          refine_tol, iterate=lambda members, thetas, x: _inverse_step(op(), thetas, x)).spectra[0]


def _inverse_step(op: BlockBandedUnitary, thetas: np.ndarray, x: Optional[np.ndarray]) -> tuple:
    """One step of shifted inverse iteration with a Rayleigh-quotient update, for every run at once.

    Row j of ``x`` is the vector of run j; runs past len(x) (all of them
    if x is None) start from seeded random vectors.  Solves H(theta_j) y_j
    = x_j with ``zipper.shifted_solve`` and normalizes y_j, then moves
    theta_j to arg(y_j* U y_j), taken within pi of theta_j.  Returns the
    rows y_j, the new theta_j and the residuals ||U y_j - e^(i theta_j) y_j||:
    U is normal, so an eigenvalue lies within that distance of
    e^(i theta_j) (Bauer and Fike, Numer. Math. 2, 1960).  A run whose
    solve breaks down gets NaN.  Runs go INVERSE_BLOCK at a time, which
    bounds the temporaries of the solve and of ``zipper.apply``.
    """
    fresh = len(thetas) - (0 if x is None else len(x))
    draw = np.random.default_rng(fresh).standard_normal((2, fresh, op.dim))
    rows = np.concatenate(([] if x is None else [x]) + [draw[0] + 1j * draw[1]])
    theta, radius = np.empty(len(thetas)), np.empty(len(thetas))
    with np.errstate(all="ignore"):  # a breakdown is NaN, read by the caller
        for i in range(0, len(thetas), INVERSE_BLOCK):
            part = slice(i, i + INVERSE_BLOCK)
            y = shifted_solve(op, thetas[part], rows[part].T)
            y /= np.linalg.norm(y, axis=0)
            Uy = apply(op, y)
            theta[part] = thetas[part] + np.angle(np.einsum("ij,ij->j", y.conj(), Uy) * np.exp(-1j * thetas[part]))
            radius[part] = np.linalg.norm(Uy - np.exp(1j * theta[part]) * y, axis=0)
            rows[part] = y.T
    return rows, theta, radius


def rotation_positivity_check(zipper: Zipper, theta: float, h: float = 1e-5) -> float:
    """Smallest eigenvalue of the central-difference estimate of W* dW/dtheta / i.

    Positive values confirm the monotone rotation of the eigenphases; the
    periodic flavor checks the doubled phase matrix.  ``theta`` must be
    finite and the step ``h`` finite and positive; a Pruefer unitary that
    breaks down at one of the three points raises NumericalBreakdownError.
    """
    if not np.isfinite(theta):
        raise ValidationError(f"theta must be finite, got {theta}")
    if not (np.isfinite(h) and h > 0):
        raise ValidationError(f"h must be finite and positive, got {h}")
    thetas = np.array([theta, theta + h, theta - h])
    W0, W_plus, W_minus = _unbroken(_phase_family(zipper)(thetas), np.exp(1j * thetas))
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
    """Band structure: the oscillation spectra of the fibers at all momenta, in one sweep.

    Every transfer of the fiber at momentum k is the untwisted one times
    e^(ik), so after N sites the acted rows of the doubled frame carry
    e^(iNk): the frame is D (a; b) with D = diag(1, e^(iNk)) on L x L
    blocks, its chart D C D*, and the fiber's Pruefer unitary
    W_k = D (W_0 S) D* S = diag(1, e^(iNk)) W_0 diag(e^(-iNk), 1), with S
    the block swap.  So the untwisted ``prufer_periodic`` chain runs once
    per theta, and member k of the sweep scales the diagonal blocks of W_0
    by e^(-iNk) and e^(iNk).  The momenta go to ``sweep_spectrum`` in
    chunks of at most BANDS_SAMPLE_ROWS // (grid + 1), one sweep each.  A
    momentum whose first grid comes up short counts its arcs on the band
    stack of its fiber (``zipper.fiber``), assembled for it alone on its
    first count.  The dense ``zipper.fiber`` remains the independent check.
    """
    if zipper.flavor != "periodic":
        raise ValidationError("bands needs a periodic zipper")
    if not (isinstance(k_grid_size, (int, np.integer)) and k_grid_size >= 1):  # also rejects NaN
        raise ValidationError(f"momentum grid size must be an integer >= 1, got {k_grid_size!r}")
    grid = _sweep_grid(zipper, grid_size, refine_tol)
    ks = momentum_grid(zipper.N, k_grid_size)
    L, c = zipper.L, np.exp(1j * zipper.N * ks)[:, None, None]
    twists = np.ones((len(ks), 2 * L, 2 * L), dtype=complex)
    twists[:, :L, :L] = np.conj(c)
    twists[:, L:, L:] = c
    fibers = functools.cache(lambda i: fiber(zipper, ks[i]))  # assembled on a momentum's first count
    wfn = _phase_family(zipper)
    chunk = max(1, BANDS_SAMPLE_ROWS // (grid + 1))  # momenta per sweep
    spectra = []
    for i in range(0, len(ks), chunk):
        def arc_count(members, centers, halfwidths, start=i):
            out = np.zeros(len(members), dtype=int)
            for j in np.unique(members):
                arcs = members == j
                out[arcs] = arc_counts(fibers(start + int(j)), centers[arcs], halfwidths[arcs])
            return out

        spectra += sweep_spectrum(wfn, zipper.N * L, grid, arc_count, refine_tol,
                                  twists=twists[i:i + chunk]).spectra
    return BandStructure(ks, spectra)
