"""Seeded job mixes of the three workloads, and the checks of their outputs.

A job is one call into scatzip, timed on its own: ``scatzip.cli.main`` on
input files that set-up generated with ``scatzip gen``, or a library entry
point that has no CLI verb yet.  Every check compares an output with an
independent route and runs outside the timed and traced spans.

Each mix holds a few pinned instances, the same for every workload seed,
and blocks of seeded instances.  The pinned ones carry the known defects
(see README.md), so that a fix shows as fewer failures; the seeded ones are
drawn where the outcome does not depend on the seed, so that the failure
count repeats across seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

TWO_PI = 2.0 * math.pi

# Check tolerances.
SPECTRUM_TOL = 1e-8       # eigenphase agreement, radians
RESOLVENT_TOL = 1e-8      # F, G against the dense oracle, relative
RADIUS_LOG_TOL = 1e-6     # |log norm_R - log_radius_norm|
CENTER_FLOOR = 1e-8       # roundoff floor of the center containment, times 1 + ||S||
MEASURE_TOL = 1e-8        # roundtrip F-match and alpha errors
WEYL_CHECK_ROWS = 16      # rows of a weyl job whose center is checked against F
FG_CHECK_POINTS = 8       # grid points of an F/G job compared with the dense oracle
BANDS_CHECK_ROWS = 4      # momenta of a bands job compared with the dense fiber

# Failure reasons that are known defects of the program (README.md).
SEAM = "seam"      # the report pairs eigenphases by index across the 0/2pi seam
STALL = "stall"    # an oscillation sweep keeps doubling its grid past the evaluation cap
BLOCKS = "blocks"  # Gram-Schmidt stops before N blocks in the scalar roundtrip
DISC = "disc"      # radial_central loses the center or radius, or breaks down, at N = 64
KNOWN_DEFECTS = (SEAM, STALL, BLOCKS, DISC)

# Wall-clock caps per job kind, backstops far above the jobs' times; the
# sweep stall is caught by the evaluation cap in run.py.
CAP_S = {"spectrum": 20.0, "bands": 30.0, "weyl": 10.0, "limit_f": 60.0, "measure": 30.0}

WEYL_GRID = 8         # weyl grids are WEYL_GRID x WEYL_GRID points
LIMIT_ABS_Z2 = 0.13   # |z|^2 of the limit_f points: 1058 sites at tol 1e-2, 10570 at 1e-3


@dataclass
class Verdict:
    ok: bool
    err: Optional[float] = None  # error against the reference route, for accuracy_digits
    reason: str = ""


@dataclass
class Job:
    jid: int
    cls: str                       # job class, as failures are reported
    cap_s: float                   # wall-clock cap, a backstop far above the job's time
    run: Callable                  # run(env) -> raw result; the timed part
    collect: Callable              # collect(env, raw) -> output kept for the check
    check: Callable                # check(env, output) -> Verdict
    gen: list = field(default_factory=list)  # `scatzip gen` argument lists for set-up
    warmup: bool = False           # the job set-up runs once
    fingerprint: Callable = lambda output: output  # what must repeat exactly across rounds


def same_output(a, b) -> bool:
    """Exact equality of two fingerprints (text, numbers, arrays, or sequences of them)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(same_output(x, y) for x, y in zip(a, b))
    return a == b


# -- independent comparisons ------------------------------------------------------

def circular_match(a: np.ndarray, b: np.ndarray) -> float:
    """Largest angular distance of the best cyclic pairing of two sorted phase lists."""
    n = len(a)
    if n == 0:
        return 0.0
    d = np.abs(a[:, None] - b[None, :]) % TWO_PI
    d = np.minimum(d, TWO_PI - d)
    idx = np.arange(n)
    return float(min(d[idx, (idx + k) % n].max() for k in range(n)))


def _expanded(entries) -> np.ndarray:
    return np.sort(np.concatenate([[e["theta"]] * e["multiplicity"] for e in entries]
                                  or [np.zeros(0)]).astype(float))


def _random_unitary(rng, L: int) -> np.ndarray:
    g = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    q, r = np.linalg.qr(g)
    d = r.diagonal()
    return q * (d / np.abs(d))


def grid_points(spec: str) -> np.ndarray:
    """The points of a cartesian grid spec 're0:re1:nr,im0:im1:ni', row-major in re."""
    re_part, im_part = spec.split(",")
    r0, r1, nr = re_part.split(":")
    i0, i1, ni = im_part.split(":")
    res = np.linspace(float(r0), float(r1), int(nr))
    ims = np.linspace(float(i0), float(i1), int(ni))
    return (res[:, None] + 1j * ims[None, :]).ravel()


# -- checks -------------------------------------------------------------------------

def _cli_output(output):
    code, text = output
    if code != 0:
        return None, Verdict(False, reason=f"exit {code}")
    return text, None


def check_spectrum(total: int, env, output) -> Verdict:
    text, bad = _cli_output(output)
    if bad:
        return bad
    rep = json.loads(text)
    osc, dense = _expanded(rep["oscillation"]), _expanded(rep["dense"])
    if len(osc) != total or len(dense) != total:
        return Verdict(False, reason=f"{len(osc)} oscillation, {len(dense)} dense of {total} eigenvalues")
    matched = circular_match(osc, dense)
    if matched > SPECTRUM_TOL:
        return Verdict(False, matched, "oscillation and dense spectra differ")
    if abs(rep["comparison"]["max_eigenvalue_discrepancy"] - matched) > SPECTRUM_TOL:
        return Verdict(False, matched, SEAM)
    return Verdict(True, matched)


def check_bands(inp: Path, seed: int, env, output) -> Verdict:
    text, bad = _cli_output(output)
    if bad:
        return bad
    z = env.fileio.load_document(str(inp))
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    if len(rows) != 64 or any(len(r) != 1 + z.N * z.L for r in rows):
        return Verdict(False, reason="bands table has the wrong shape")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in rng.choice(len(rows), BANDS_CHECK_ROWS, replace=False):
        k, phases = float(rows[i][0]), np.sort(np.array(rows[i][1:], dtype=float))
        dense = env.zipper.dense_spectrum(env.zipper.fiber(z, k)).expanded_thetas()
        worst = max(worst, circular_match(phases, dense))
    if worst > SPECTRUM_TOL:
        return Verdict(False, worst, "bands differ from the dense fiber spectrum")
    return Verdict(True, worst)


def _parse_csv(text: str):
    lines = text.strip().splitlines()
    head = lines[0].split(",")
    return head, [np.array(line.split(","), dtype=float) for line in lines[1:]]


def _sample(rng, pts, k):
    """Indices of the smallest and largest |z| and k - 2 seeded others."""
    ends = {int(np.argmin(abs(pts))), int(np.argmax(abs(pts)))}
    rest = [i for i in range(len(pts)) if i not in ends]
    return sorted(ends | {int(i) for i in rng.choice(rest, k - 2, replace=False)})


def check_weyl(inp: Path, spec: str, seed: int, env, output) -> Verdict:
    """norm_R of every row against log_radius_norm; the center of sampled rows
    within the disc diameter of F at a random unitary V."""
    if output[0] == 3:  # radial_central raised a numerical breakdown
        return Verdict(False, reason=DISC)
    text, bad = _cli_output(output)
    if bad:
        return bad
    z = env.fileio.load_document(str(inp))
    L, N = z.L, z.N
    fac = env.transfer.TransferFactory(z)
    head, rows = _parse_csv(text)
    pts = grid_points(spec)
    if len(rows) != len(pts):
        return Verdict(False, reason=f"{len(rows)} rows for {len(pts)} grid points")
    col = {name: i for i, name in enumerate(head)}
    rng = np.random.default_rng(seed)
    worst = 0.0
    for row, w in zip(rows, pts):
        if complex(row[col["re_z"]], row[col["im_z"]]) != w:
            return Verdict(False, reason="weyl rows do not follow the grid")
        lr = env.weyl.log_radius_norm(z, w, N, factory=fac)
        if lr is None or not row[col["norm_R"]] > 0.0:
            return Verdict(False, worst, DISC)
        worst = max(worst, abs(math.log(row[col["norm_R"]]) - lr))
        if worst > RADIUS_LOG_TOL:
            return Verdict(False, worst, DISC)
    for i in _sample(rng, pts, WEYL_CHECK_ROWS):
        row = rows[i]
        center = np.array([[complex(row[col[f"center_re_{a}_{b}"]], row[col[f"center_im_{a}_{b}"]])
                            for b in range(L)] for a in range(L)])
        diameter = 2.0 * math.sqrt(row[col["norm_R"]] * row[col["norm_R_reflected"]])
        f = env.weyl.f_matrix(z, pts[i], v_boundary=_random_unitary(rng, L), factory=fac)
        floor = CENTER_FLOOR * (1.0 + float(np.linalg.norm(center, 2)))
        if not float(np.linalg.norm(f - center, 2)) <= diameter + floor:
            return Verdict(False, worst, DISC)
    return Verdict(True, worst)


def check_fg(inp: Path, spec: str, seed: int, env, output) -> Verdict:
    """F and G at sampled grid points against the dense resolvent (N L <= 512 here)."""
    z = env.fileio.load_document(str(inp))
    op = env.zipper.assemble_finite(z)
    pts = grid_points(spec)
    if len(output) != len(pts):
        return Verdict(False, reason="F/G count differs from the grid")
    worst = 0.0
    for i in _sample(np.random.default_rng(seed), pts, FG_CHECK_POINTS):
        f, g = output[i]
        fd, gd = env.weyl.dense_f(op, pts[i]), env.weyl.dense_g(op, pts[i])
        worst = max(worst, float(np.linalg.norm(f - fd, 2) / np.linalg.norm(fd, 2)),
                    float(np.linalg.norm(g - gd, 2) / np.linalg.norm(gd, 2)))
    if worst > RESOLVENT_TOL:
        return Verdict(False, worst, "F or G differs from the dense oracle")
    return Verdict(True, worst)


def check_limit(seed: int, env, output) -> Verdict:
    """F at another boundary condition, same truncation, lies within certified_error."""
    zipper, w, res = output
    L = zipper.L
    fac = env.transfer.TransferFactory(zipper)
    v = _random_unitary(np.random.default_rng(seed), L)
    f_v = env.weyl.f_matrix(zipper, w, v_boundary=v, upto=res.n_used, factory=fac)
    spread = float(np.linalg.norm(f_v - res.f_value, 2))
    err = spread / float(np.linalg.norm(res.f_value, 2))
    if not spread <= res.certified_error:
        return Verdict(False, err, "boundary-condition spread exceeds certified_error")
    return Verdict(True, err)


def check_roundtrip(L: int, N: int, ensemble: str, env, output) -> Verdict:
    text, bad = _cli_output(output)
    if bad:
        return bad
    rep = json.loads(text)
    err = rep["max_f_match_error"]
    if not err <= MEASURE_TOL:
        return Verdict(False, err, "F-match of the roundtrip fails")
    if L == 1 and ensemble == "cmv":
        if rep["n_available"] != N:
            return Verdict(False, err, BLOCKS)
        err = max(err, rep["max_alpha_error"])
        if not err <= MEASURE_TOL:
            return Verdict(False, err, "recovered alpha differs")
    return Verdict(True, err)


def check_uniform(m: int, env, output) -> Verdict:
    """Lebesgue quadrature: m blocks, every recovered alpha zero."""
    text, bad = _cli_output(output)
    if bad:
        return bad
    doc = json.loads(text)
    if doc["n_available"] != m:
        return Verdict(False, reason=f"n_available {doc['n_available']} != {m}")
    err = max((float(np.abs(np.asarray(b["alpha"])).max()) for b in doc["blocks"]), default=0.0)
    if not err <= MEASURE_TOL:
        return Verdict(False, err, "Lebesgue quadrature gives nonzero alpha")
    return Verdict(True, err)


# -- mixes ---------------------------------------------------------------------------

def _read_text(path: Path):
    def collect(env, code):
        return code, (path.read_text() if code == 0 else None)
    return collect


class Mix:
    """Builds the job list of one run; instance seeds come from the workload seed."""

    def __init__(self, work: Path, rng: np.random.Generator):
        self.work = work
        self.rng = rng
        self.jobs: list[Job] = []

    def _seed(self) -> int:
        return int(self.rng.integers(2 ** 31))

    def _add(self, **kw) -> Job:
        job = Job(jid=len(self.jobs), **kw)
        self.jobs.append(job)
        return job

    def _gen(self, jid, L, N, flavor, ensemble, seed, alpha):
        inp = self.work / f"in{jid}.json"
        argv = ["gen", "--L", str(L), "--N", str(N), "--flavor", flavor,
                "--ensemble", ensemble, "--seed", str(seed), "--output", str(inp)]
        if alpha is not None:
            argv += ["--alpha-max", repr(alpha)]
        return inp, argv

    def _cli(self, cls, argv, out, check, gen=()):
        return self._add(cls=cls, cap_s=CAP_S[argv[0]], run=lambda env: env.cli.main(argv),
                         collect=_read_text(out), check=check, gen=list(gen))

    def spectrum(self, L, N, ensemble, alpha=None, flavor="finite", seed=None):
        jid = len(self.jobs)
        seed = self._seed() if seed is None else seed
        inp, gen = self._gen(jid, L, N, flavor, ensemble, seed, alpha)
        out = self.work / f"out{jid}.json"
        a = "" if alpha is None else f" a<{alpha}"
        return self._cli(f"spectrum {flavor} L={L} N={N} {ensemble}{a}",
                         ["spectrum", str(inp), "--output", str(out)], out,
                         lambda env, o, t=N * L: check_spectrum(t, env, o), [gen])

    def bands(self, L, N, ensemble):
        jid = len(self.jobs)
        seed = self._seed()
        inp, gen = self._gen(jid, L, N, "periodic", ensemble, seed, None)
        out = self.work / f"out{jid}.csv"
        return self._cli(f"bands L={L} N={N} {ensemble}", ["bands", str(inp), "--output", str(out)],
                         out, lambda env, o: check_bands(inp, seed, env, o), [gen])

    def weyl(self, L, N, ensemble, alpha=None, seed=None, spec=None, fg=True) -> Job:
        """A weyl grid job and, with fg, an F/G library job on the same zipper and grid."""
        jid = len(self.jobs)
        seed = self._seed() if seed is None else seed
        inp, gen = self._gen(jid, L, N, "finite", ensemble, seed, alpha)
        if spec is None:
            r = self.rng.uniform(size=3)
            spec = (f"{0.02 + 0.06 * r[0]:.4f}:{0.90 + 0.04 * r[1]:.4f}:{WEYL_GRID},"
                    f"0:{0.2 + 0.1 * r[2]:.4f}:{WEYL_GRID}")
        out = self.work / f"out{jid}.csv"
        a = "" if alpha is None else f" a<{alpha}"
        job = self._cli(f"weyl L={L} N={N} {ensemble}{a}",
                        ["weyl", str(inp), "--grid", spec, "--output", str(out)], out,
                        lambda env, o: check_weyl(inp, spec, seed, env, o), [gen])
        if not fg:
            return job
        pts = grid_points(spec)

        def run_fg(env):
            z = env.fileio.load_document(str(inp))
            return [(env.weyl.f_matrix(z, w), env.weyl.g_matrix(z, w)) for w in pts]

        self._add(cls=f"f_matrix+g_matrix L={L} N={N} {ensemble}{a}", cap_s=CAP_S["weyl"],
                  run=run_fg, collect=lambda env, raw: raw,
                  check=lambda env, o: check_fg(inp, spec, seed, env, o))
        return job

    def limit(self, L, tol, ensemble):
        seed = self._seed()
        w = math.sqrt(LIMIT_ABS_Z2) * complex(np.exp(2j * np.pi * self.rng.uniform()))

        def run(env):
            zipper = env.ensembles.semi_infinite_zipper(seed, L, ensemble)
            return zipper, w, env.weyl.limit_f(zipper, w, tol)

        self._add(cls=f"limit_f L={L} tol={tol:g} {ensemble}", cap_s=CAP_S["limit_f"], run=run,
                  collect=lambda env, raw: raw, check=lambda env, o: check_limit(seed, env, o),
                  fingerprint=lambda o: (o[2].f_value, o[2].n_used, o[2].certified_error,
                                         o[2].posterior_error))

    def roundtrip(self, L, N, ensemble, seed=None):
        jid = len(self.jobs)
        seed = self._seed() if seed is None else seed
        inp, gen = self._gen(jid, L, N, "finite", ensemble, seed, None)
        out = self.work / f"out{jid}.json"
        return self._cli(f"measure roundtrip L={L} N={N} {ensemble}",
                         ["measure", str(inp), "--direction", "roundtrip", "--output", str(out)], out,
                         lambda env, o: check_roundtrip(L, N, ensemble, env, o), [gen])

    def uniform(self, L, m):
        out = self.work / f"out{len(self.jobs)}.json"
        return self._cli(f"measure to-zipper --uniform-grid {m} L={L}",
                         ["measure", "--direction", "to-zipper", "--uniform-grid", str(m),
                          "--L", str(L), "--output", str(out)], out,
                         lambda env, o: check_uniform(m, env, o))


ENSEMBLES = ("cmv", "haar-gauge")
ALPHAS = (0.5, 0.85, 0.95)
# Block b uses ENSEMBLES[b % 2] and ALPHAS[b % 3], so that the mix of job
# classes, on which the job times depend, is the same for every seed; the
# seed draws the instances.


def spectra(mix: Mix, blocks: int):
    """Oscillation sweeps at the CLI default --method both, no --grid or --workers."""
    mix.spectrum(1, 8, "cmv", 0.5).warmup = True
    # pinned: the seam repro, a sweep stall, and a sweep that ends after grid doublings
    mix.spectrum(2, 16, "free", seed=0)
    mix.spectrum(1, 24, "haar-gauge", 0.85, seed=7)
    mix.spectrum(1, 8, "haar-gauge", 0.95, seed=2)
    mix.bands(1, 2, "cmv")
    # L=1 N=12 and L=2 N=8 take about the same time (457 and 593 Pruefer
    # evaluations); three of them per block put the median and the tail job
    # inside one group of 12 at --seconds 30, not on the edge between two.
    for b in range(blocks):
        ens, alpha = ENSEMBLES[b % 2], ALPHAS[b % 3]
        mix.spectrum(1, 8, ens, 0.5)
        mix.spectrum(1, 12, ens, 0.5)
        mix.spectrum(2, 8, ens, alpha)
        mix.spectrum(2, 8, ENSEMBLES[(b + 1) % 2], ALPHAS[(b + 1) % 3])
        mix.spectrum(3, 8, ens, alpha)
        mix.spectrum(1, 8, ens, flavor="periodic")


def resolvent(mix: Mix, blocks: int):
    """weyl grids, F/G on the same grids, and limit_f on semi-infinite zippers."""
    mix.weyl(1, 16, "cmv").warmup = True
    # pinned: the radial_central repro (N = 64, ||alpha|| <= 0.99)
    mix.weyl(2, 64, "haar-gauge", 0.99, seed=0, spec=f"0.05:0.97:{WEYL_GRID},0:0.2:{WEYL_GRID}",
             fg=False)
    mix.limit(1, 1e-3, "cmv")
    for L in (1, 2):
        for ens in ENSEMBLES:
            mix.limit(L, 1e-2, ens)
    for b in range(blocks):
        ens = ENSEMBLES[b % 2]
        mix.weyl(1, 16, ens)
        mix.weyl(1, 64, ens, fg=False)
        mix.weyl(2, 16, ens)
        mix.weyl(2, 32, ens)


def measures(mix: Mix, blocks: int):
    """Zipper -> measure -> zipper roundtrips, and to-zipper on Lebesgue quadratures."""
    mix.roundtrip(1, 16, "cmv").warmup = True
    # pinned: the scalar N = 64 roundtrip, which loses blocks for every seed
    # tried (36 to 59 of 64); its time grows with the blocks recovered
    mix.roundtrip(1, 64, "cmv", seed=0)
    mix.roundtrip(1, 64, "cmv", seed=1)
    # per block two of each roundtrip class but L=2, N=32, so that the median
    # and the tail job fall inside a class and not between two
    for _ in range(blocks):
        mix.roundtrip(1, 16, "cmv")
        mix.roundtrip(1, 16, "cmv")
        mix.roundtrip(1, 32, "cmv")
        mix.roundtrip(1, 32, "cmv")
        mix.roundtrip(2, 16, "haar-gauge")
        mix.roundtrip(2, 16, "haar-gauge")
        mix.roundtrip(2, 32, "haar-gauge")
        mix.uniform(1, 16)
        mix.uniform(2, 8)


# Nominal seconds of one block, and of the jobs outside the blocks, on a 2-vCPU
# x86 virtual machine (Python 3.11, numpy 2.4/OpenBLAS).  As many whole blocks as fit
# in --seconds make the job list, so it is fixed by (workload, seed, seconds)
# and every count repeats.
WORKLOADS = {
    "spectra": (spectra, 3.75, 12.8),
    "resolvent": (resolvent, 4.0, 10.5),
    "measures": (measures, 4.9, 7.0),
}


def build(workload: str, seed: int, seconds: float, work: Path) -> list[Job]:
    fn, block_s, fixed_s = WORKLOADS[workload]
    mix = Mix(work, np.random.default_rng([seed, list(WORKLOADS).index(workload)]))
    fn(mix, max(1, int((seconds - fixed_s) / block_s)))
    order = mix.rng.permutation(len(mix.jobs))
    return [mix.jobs[i] for i in order]
