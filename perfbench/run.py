"""scatzip benchmark: one seeded workload, one closed-loop client, in-process.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``scatzip`` from its
``src/``.  The job list is fixed by (workload, seed, seconds); the loop runs
it in whole rounds, one job at a time, while another round still fits in
--seconds (always at least one), then checks every output against an
independent route.  Times are scaled to a nominal host speed, which a probe
kernel measures between jobs.  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced round.  Workloads, metrics and known defects
are described in README.md next to this file.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from tracer import JobCapped, SweepCapped  # noqa: E402

SETUP_REPS = 5          # set-up is timed this many times; setup_s is the median
TAIL_BEYOND = 10        # job_tail_s has this many samples above it
TRACE_CAP_FACTOR = 2.0  # wall-clock caps are this much longer in the traced round
# Pruefer evaluations after which one oscillation sweep is stopped and its job
# counts as capped.  A count, not a time, so that failures repeat on a machine
# whose speed drifts: the largest sweep that finishes in the mixes takes 1220,
# the pinned stall instance ~28400.
SWEEP_EVAL_CAP = 2000
DIGITS_FLOOR = 1e-16    # errors below this count as 16 digits
# accuracy_digits is the digits that all but this share of the verified jobs
# reach.  The single worst job's digits hang on one instance's conditioning:
# 7.9 to 11.2 over five resolvent seeds.
DIGITS_SHARE = 0.1
# The host's speed is probed before and after every timed span: the fastest of
# PROBE_REPS runs of a fixed kernel of small complex numpy operations, the
# kind scatzip spends its time in.  Each time is scaled by PROBE_NOMINAL_S over
# the mean of the two probes, so times read as on a host that runs the kernel
# in PROBE_NOMINAL_S (about a quiet 2-vCPU x86 virtual machine).  On a shared
# host the same jobs ran 1.65x slower in one run than in another a minute
# later, and the probe slowed with them.
PROBE_LOOPS = 40
PROBE_REPS = 3
PROBE_NOMINAL_S = 1e-3
MODULES = ("cli", "fileio", "ensembles", "oscillation", "zipper", "transfer", "weyl", "measures")


def _alarm(signum, frame):
    raise JobCapped()


class HostSpeed:
    """Probes of the host's speed, and the unscaled job times for the record."""

    def __init__(self):
        self.probes: list[float] = []
        self.raw: dict[int, list[float]] = {}
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.b = rng.standard_normal((4, 4)) + 0j

    def _loop(self):
        for _ in range(PROBE_LOOPS):
            self.a @ self.b
            np.linalg.qr(self.a)
            np.linalg.solve(self.a, self.b)

    def probe(self) -> float:
        best = math.inf
        for _ in range(PROBE_REPS):
            t0 = time.perf_counter()
            self._loop()
            best = min(best, time.perf_counter() - t0)
        self.probes.append(best)
        return best

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from seconds on this host, between the two probes, to nominal seconds."""
        return PROBE_NOMINAL_S / (0.5 * (before + after))


def import_scatzip(src: Path) -> SimpleNamespace:
    """Import scatzip afresh (a set-up step) and return its modules."""
    for name in [n for n in sys.modules if n == "scatzip" or n.startswith("scatzip.")]:
        del sys.modules[name]
    pkg = importlib.import_module("scatzip")
    if Path(pkg.__file__).resolve().parent != (src / "scatzip").resolve():
        raise ImportError(f"scatzip imported from {pkg.__file__}, not from {src}")
    env = SimpleNamespace(**{m: importlib.import_module(f"scatzip.{m}") for m in MODULES})
    cap_sweeps(env.oscillation)
    return env


def cap_sweeps(osc):
    """Count Pruefer evaluations per sweep; past SWEEP_EVAL_CAP raise SweepCapped.

    The guards keep the name, module and qualname of the functions they wrap,
    so that the tracer wraps them like the originals.
    """
    evals = threading.local()

    def sweep_guard(fn):
        @functools.wraps(fn)
        def sweep(*args, **kwargs):
            evals.n = 0
            return fn(*args, **kwargs)
        return sweep

    def eval_guard(fn):
        @functools.wraps(fn)
        def evaluate(*args, **kwargs):
            evals.n = getattr(evals, "n", 0) + 1
            if evals.n > SWEEP_EVAL_CAP:
                raise SweepCapped()
            return fn(*args, **kwargs)
        return evaluate

    osc.sweep_spectrum = sweep_guard(osc.sweep_spectrum)
    osc.prufer = eval_guard(osc.prufer)
    osc.prufer_periodic = eval_guard(osc.prufer_periodic)


def generate(env, jobs):
    for job in jobs:
        for argv in job.gen:
            code = env.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"scatzip {' '.join(argv)} exited {code}")


def execute(env, job, cap_s: float):
    """Run one job under its caps.  Returns (wall_s, cpu_s, outcome, raw).

    A capped job's time is the time at which the cap stopped it.
    """
    raw, outcome = None, "done"
    c0, t0 = time.process_time(), time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        try:
            raw = job.run(env)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except SweepCapped:
        outcome = workloads.STALL
    except JobCapped:
        outcome = "timeout"
    except Exception:  # a crash is a failed job, reported with its traceback
        outcome = "error: " + traceback.format_exc(limit=-3).strip().splitlines()[-1]
    return time.perf_counter() - t0, time.process_time() - c0, outcome, raw


def run_round(env, jobs, results, host, tracer=None, cap_factor=1.0):
    """One pass over the job list; results[jid] collects (wall, cpu, outcome, output),
    with wall and cpu scaled to nominal seconds."""
    before = host.probe()
    for job in jobs:
        if tracer is not None:
            tracer.job, tracer.active = job.jid, True
        try:
            wall, cpu, outcome, raw = execute(env, job, job.cap_s * cap_factor)
        finally:
            if tracer is not None:
                tracer.active = False
                tracer.end_job()
        after = host.probe()
        f = host.scale(before, after)
        before = after
        output = job.collect(env, raw) if outcome == "done" else None
        results[job.jid].append((wall * f, cpu * f, outcome, output))
        host.raw.setdefault(job.jid, []).append(wall)


def judge(env, jobs, results):
    """Check each job's first output; later rounds must repeat it exactly."""
    verdicts = {}
    for job in jobs:
        runs = results[job.jid]
        _, _, outcome, output = runs[0]
        if outcome != "done":
            v = workloads.Verdict(False, reason=outcome)
        else:
            v = job.check(env, output)
        per_run = [v]
        for _, _, outcome_k, output_k in runs[1:]:
            if outcome_k != outcome:
                per_run.append(workloads.Verdict(False, reason=f"{outcome_k} in a later round"))
            elif outcome == "done" and not workloads.same_output(job.fingerprint(output),
                                                                 job.fingerprint(output_k)):
                per_run.append(workloads.Verdict(False, reason="output changed in a later round"))
            else:
                per_run.append(v)
        verdicts[job.jid] = per_run
    return verdicts


def job_times(jobs, results):
    """Per-job median wall seconds over rounds."""
    return [statistics.median(r[0] for r in results[job.jid]) for job in jobs]


def tail(values):
    """The value with TAIL_BEYOND samples above it, and its percentile."""
    xs = sorted(values)
    n = len(xs)
    k = max(0, n - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / n


def summarize(jobs, verdicts):
    failures = {}
    for job in jobs:
        for v in verdicts[job.jid]:
            if not v.ok:
                key = (v.reason, job.cls)
                failures[key] = failures.get(key, 0) + 1
    return failures


def end_to_end(jobs, results, verdicts, setup_times, total_wall, host):
    walls = job_times(jobs, results)
    attempted = sum(len(results[j.jid]) for j in jobs)
    failed = sum(not v.ok for j in jobs for v in verdicts[j.jid])
    verified = attempted - failed
    loop_wall = sum(r[0] for j in jobs for r in results[j.jid])
    loop_cpu = sum(r[1] for j in jobs for r in results[j.jid])
    errs = [v.err for j in jobs for v in verdicts[j.jid][:1] if v.ok and v.err is not None]
    tail_s, tail_pct = tail(walls)
    by_class = {}
    for job, wall in zip(jobs, walls):
        v = verdicts[job.jid][0]
        by_class.setdefault(job.cls, []).append((wall, v.err if v.ok and v.err is not None else 0.0))
    print("median s  jobs  worst error  class")
    for cls, rows in sorted(by_class.items(), key=lambda kv: -statistics.median(r[0] for r in kv[1])):
        print(f"{statistics.median(r[0] for r in rows):8.4f}  x{len(rows):<3d}  "
              f"{max(r[1] for r in rows):10.2e}  {cls}")
    digits = sorted(-math.log10(max(e, DIGITS_FLOOR)) for e in errs) or [-math.log10(DIGITS_FLOOR)]
    digits = digits[int(DIGITS_SHARE * len(digits))]
    print(f"jobs: {len(jobs)} per round, {attempted // len(jobs)} round(s), {total_wall:.1f} s")
    print(f"job_tail_s is the p{tail_pct:.1f} of {len(walls)} per-job medians "
          f"({TAIL_BEYOND} above it)")
    print(f"host probe: median {1e3 * statistics.median(host.probes):.3f} ms, fastest "
          f"{1e3 * min(host.probes):.3f} ms, of {len(host.probes)}; times are scaled to "
          f"{1e3 * PROBE_NOMINAL_S:g} ms (unscaled job_p50_s "
          f"{statistics.median(statistics.median(host.raw[j.jid]) for j in jobs):.4f})")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_tail_s": (tail_s, "s"),
        "jobs_per_s": (verified / loop_wall, "1/s"),
        "cpu_s_per_job": (loop_cpu / attempted, "s"),
        "failed_frac": (failed / attempted, "ratio"),
        "accuracy_digits": (digits, "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return attempted, failed, metrics


def per_layer(tr, state, p50_untraced, p50_traced):
    c, b = tr.count, tr.busy
    evals = c("oscillation.prufer") + c("oscillation.prufer_periodic")
    sweeps = c("oscillation.sweep_spectrum")
    refinements = c("oscillation._refine_crossing")
    steps = c("transfer.TransferFactory.transfer") + c("transfer.TransferFactory.transfer_inverse")
    phi_calls = c("scattering.phi")

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{name}.self_s": (tr.layer_self(name), "s") for name in tracing.LAYERS}
    m.update({
        "oscillation.prufer_evals": (evals, "count"),
        "oscillation.prufer_busy_s": (b("oscillation.prufer") + b("oscillation.prufer_periodic"), "s"),
        "oscillation.sweeps": (sweeps, "count"),
        "oscillation.grid_doublings": (c("oscillation._BranchTracker.__init__") - sweeps, "count"),
        "oscillation.refinements": (refinements, "count"),
        "oscillation.useful_refine_ratio": (ratio(state.eigs, refinements), "ratio"),
        "oscillation.prufer_evals_per_eig": (ratio(evals, state.eigs), "count"),
        "transfer.steps": (steps, "count"),
        "transfer.propagate_busy_s": (b("transfer.propagate"), "s"),
        "transfer.product_calls": (c("transfer.TransferFactory.product"), "count"),
        "transfer.phi_calls": (phi_calls, "count"),
        "transfer.phi_cache_hit_ratio": (1.0 - phi_calls / steps if steps else 0.0, "ratio"),
        "weyl.e_chains": (c("weyl.e_matrix"), "count"),
        "weyl.mobius_steps": (c("matrix_core.mobius"), "count"),
        "weyl.e_busy_s": (b("weyl.e_matrix"), "s"),
        "weyl.disc_calls": (c("weyl.radial_central"), "count"),
        "weyl.disc_busy_s": (b("weyl.radial_central"), "s"),
        "weyl.limit_sites": (state.limit_sites, "count"),
        "weyl.limit_busy_s": (b("weyl.limit_f"), "s"),
        "weyl.log_radius_busy_s": (b("weyl.log_radius_norm"), "s"),
        "measures.gram_busy_s": (b("measures.gram_schmidt"), "s"),
        "measures.inner_products": (c("measures.inner_product"), "count"),
        "measures.spectral_measure_busy_s": (b("measures.spectral_measure_finite"), "s"),
        "measures.blocks_recovered_ratio": (ratio(state.blocks_available, state.blocks_requested),
                                            "ratio"),
        "zipper.dense_calls": (c("zipper.dense_spectrum"), "count"),
        "zipper.dense_busy_s": (b("zipper.dense_spectrum"), "s"),
        "fileio.busy_s": (tr.layer_busy("fileio"), "s"),
        "fileio.bytes_out": (state.bytes_out, "bytes"),
        "ensembles.busy_s": (tr.layer_busy("ensembles"), "s"),
        "trace.overhead_s": (p50_traced - p50_untraced, "s"),
        "trace.spans": (tr.n_spans(), "count"),
    })
    return m


def install_tracer(tr):
    """Wrap scatzip and add the hooks that count from results."""
    tr.install()
    state = SimpleNamespace(eigs=0, limit_sites=0, blocks_available=0, blocks_requested=0,
                            bytes_out=0)

    def add(attr, amount):
        with tr.lock:
            setattr(state, attr, getattr(state, attr) + amount)

    def recovered(result, args, kwargs):
        add("blocks_available", result.n_available)
        add("blocks_requested", args[2] if len(args) > 2 else kwargs["n_max"])

    tr.after.update({
        "oscillation.sweep_spectrum": lambda r, a, k: add("eigs", r.total_multiplicity),
        "weyl.limit_f": lambda r, a, k: add("limit_sites", r.n_used),
        "measures.zipper_from_measure": recovered,
        **{f"fileio.{f}": (lambda r, a, k: add("bytes_out", len(r)))
           for f in ("dumps", "weyl_csv_rows", "bands_csv")},
    })
    return state


def run(args, root: Path, work: Path, out_dir: Path):
    src = root / "src"
    jobs = workloads.build(args.workload, args.seed, args.seconds, work)
    warm = next(j for j in jobs if j.warmup)
    signal.signal(signal.SIGALRM, _alarm)
    host = HostSpeed()
    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPS):
        before = host.probe()
        t0 = time.perf_counter()
        env = import_scatzip(src)
        generate(env, jobs)
        _, _, outcome, _ = execute(env, warm, warm.cap_s)
        if outcome != "done":
            raise RuntimeError(f"warm-up job {warm.cls}: {outcome}")
        setup_times.append((time.perf_counter() - t0) * host.scale(before, host.probe()))

    results = {j.jid: [] for j in jobs}
    t_start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        run_round(env, jobs, results, host)
        now = time.perf_counter()
        if args.trace or now - t_start + (now - r0) > args.seconds:
            break
    total_wall = time.perf_counter() - t_start

    if args.trace:
        p50_untraced = statistics.median(job_times(jobs, results))
        tr = tracing.Tracer()
        state = install_tracer(tr)
        tr.job, tr.active = -1, True  # job -1: input generation, as in set-up
        generate(env, jobs)
        tr.active = False
        traced = {j.jid: [] for j in jobs}
        run_round(env, jobs, traced, host, tracer=tr, cap_factor=TRACE_CAP_FACTOR)
        p50_traced = statistics.median(job_times(jobs, traced))
        verdicts = judge(env, jobs, traced)
        tr.dump(out_dir / f"spans-{args.workload}-{args.seed}.npz")
        attempted = len(jobs)
        failed = sum(not v[0].ok for v in verdicts.values())
        metrics = per_layer(tr, state, p50_untraced, p50_traced)
        print(f"traced round: {len(jobs)} jobs, {tr.n_spans()} spans; "
              f"untraced job_p50_s {p50_untraced:.4f}, traced {p50_traced:.4f}")
    else:
        verdicts = judge(env, jobs, results)
        attempted, failed, metrics = end_to_end(jobs, results, verdicts, setup_times, total_wall,
                                                host)

    failures = summarize(jobs, verdicts)
    for (reason, cls), n in sorted(failures.items()):
        known = "known defect" if reason in workloads.KNOWN_DEFECTS else "UNEXPECTED"
        print(f"failed x{n}: {cls}: {reason} ({known})")
    correct = all(reason in workloads.KNOWN_DEFECTS for reason, _ in failures)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "scatzip" / "__init__.py").is_file():
        print(f"error: no scatzip sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    out_dir = root / ".perfbench_out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(args, root, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
