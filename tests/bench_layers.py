"""Per-layer timings: one Pruefer call, one E-chain, one frame propagation,
three band structures (one of them short on its first grid at many
momenta), five sweeps (a finite first grid that is short, a long finite
chain whose Pruefer samples break down, a periodic narrow resonance, and
two sweeps past the dense cap whose first grids are short), one arc count
over a grid (finite and on a periodic fiber), the dense oracle (assembly,
dense spectrum) and one Gram-Schmidt run on each of four roundtrip
measures: the two heaviest and the two most frequent in the ``measures``
workload.

Not part of the test suite (the file name does not match ``test_*.py``);
run it explicitly with pytest-benchmark:

    python -m pytest tests/bench_layers.py --benchmark-json=out.json

Each benchmark records its work counts (sites walked, points and batched
solves per Pruefer call and per E-chain, momenta, Pruefer calls, count
calls and arcs and inverse-iteration solves per band structure, theta
evaluated, Pruefer calls, the points whose Pruefer
unitary broke down (the NaN matrices the calls return), count calls and
arcs and inverse-iteration solves per sweep; the tracemalloc peak of an
arc count, of every sweep and of every band structure) in
``extra_info``; counts do not depend on the machine, seconds do.  A past-cap sweep takes tens of seconds and
gigabytes on an older checkout, so it runs once per measurement.  The
calls use only entry points whose signatures are stable across versions,
so the same file times an older checkout too; one that has no
``zipper.arc_counts`` skips ``test_arc_counts``, one whose count refuses
periodic operators skips its periodic case, one whose periodic sweeps
double their grid fails ``test_sweep[P1N100haar0999s0]``, and one whose
Pruefer calls raise on a breakdown reads ``broken_points`` 0.
"""

import time
import tracemalloc

import numpy as np
import pytest

from scatzip import ensembles, measures as ms, oscillation as osc, transfer as tr, weyl
from scatzip import zipper as zp
from scatzip.errors import ValidationError

N_PRUFER = 16


def _circle(n):
    """The default sweep grid of 8 N L intervals: n = 8 N L + 1 points."""
    return np.exp(1j * (0.37 * 2 * np.pi / (n - 1) + np.arange(n) * (2 * np.pi / (n - 1))))


def _solves(monkeypatch, call) -> int:
    """The np.linalg.solve calls that one run of ``call`` makes, after a first run
    that builds the phi table."""
    call()
    count = []
    solve = np.linalg.solve
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "solve", lambda *args, **kwargs: count.append(1) or solve(*args, **kwargs))
        call()
    return len(count)


@pytest.mark.parametrize("L", [1, 2, 3])
def test_prufer_call(benchmark, monkeypatch, L):
    z = ensembles.finite_zipper(7, L, N_PRUFER, "haar-gauge", 0.85)
    w = _circle(8 * N_PRUFER * L + 1)
    fac = tr.TransferFactory(z)
    benchmark.extra_info.update(sites=z.N, points=len(w),
                                solves=_solves(monkeypatch, lambda: osc.prufer(z, w, factory=fac)))
    W = benchmark(osc.prufer, z, w, factory=fac)
    assert W.shape == (len(w), L, L)


@pytest.mark.parametrize("L", [1, 2])
def test_prufer_periodic_call(benchmark, monkeypatch, L):
    z = ensembles.periodic_zipper(7, L, 8, "haar-gauge", 0.85)
    w = _circle(8 * z.N * L + 1)
    fac = tr.TransferFactory(z)
    benchmark.extra_info.update(sites=z.N, points=len(w),
                                solves=_solves(monkeypatch, lambda: osc.prufer_periodic(z, w, factory=fac)))
    W = benchmark(osc.prufer_periodic, z, w, factory=fac)
    assert W.shape == (len(w), 2 * L, 2 * L)


def _peak_mb(fn, *args) -> float:
    """The tracemalloc peak of one call fn(*args), in MB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _count_calls(monkeypatch) -> tuple:
    """Wrap ``osc.arc_counts`` and ``osc._inverse_step`` where the checkout has them;
    the lists get one entry per count call, the arcs of every call and the runs
    of every inverse-iteration step.  The wrappers pass their arguments on as
    they come, so the same file runs on checkouts whose calls take more."""
    counts, arcs, solves = [], [], []
    if hasattr(osc, "arc_counts"):
        arc_counts = osc.arc_counts
        monkeypatch.setattr(osc, "arc_counts", lambda *args: counts.append(1) or arcs.append(len(args[1])) or
                            arc_counts(*args))
    if hasattr(osc, "_inverse_step"):
        step = osc._inverse_step
        monkeypatch.setattr(osc, "_inverse_step", lambda *args: solves.append(len(args[1])) or step(*args))
    return counts, arcs, solves


@pytest.mark.parametrize("args, momenta", [((7, 1, 2, "cmv"), 64), ((7, 2, 8, "haar-gauge"), 64),
                                           ((6, 1, 8, "haar-gauge", 0.99), 256)],
                         ids=["L1N2", "L2N8", "P1N8haar099s6"])
def test_bands(benchmark, monkeypatch, args, momenta):
    # 64 momenta, as the bands job of the spectra workload and the CLI default,
    # and a zipper whose first grid comes up short at many of 256 momenta;
    # count_calls and count_arcs count the arc counts, solves the
    # inverse-iteration runs summed over their batched steps; peak_mb is the
    # tracemalloc peak of one more band structure
    z = ensembles.periodic_zipper(*args)
    calls = []
    prufer_periodic = osc.prufer_periodic

    def counted(*args, **kwargs):
        calls.append(1)
        return prufer_periodic(*args, **kwargs)

    monkeypatch.setattr(osc, "prufer_periodic", counted)
    counts, arcs, solves = _count_calls(monkeypatch)
    osc.bands(z, momenta)
    benchmark.extra_info.update(sites=z.N, momenta=momenta, prufer_periodic_calls=len(calls),
                                count_calls=len(counts), count_arcs=sum(arcs), solves=sum(solves))
    benchmark.extra_info.update(peak_mb=_peak_mb(osc.bands, z, momenta))  # after the counts are read
    bs = benchmark(osc.bands, z, momenta)
    assert len(bs.spectra) == momenta


PAST_CAP = ("L1N1024haar085s0", "L2N512cmv05s0")


@pytest.mark.parametrize("make, args", [(ensembles.finite_zipper, (7, 1, 24, "haar-gauge", 0.85)),
                                        (ensembles.finite_zipper, (0, 1, 128, "cmv", 0.5)),
                                        (ensembles.periodic_zipper, (0, 1, 100, "haar-gauge", 0.999)),
                                        (ensembles.finite_zipper, (0, 1, 1024, "haar-gauge", 0.85)),
                                        (ensembles.finite_zipper, (0, 2, 512, "cmv", 0.5))],
                         ids=["L1N24haar085s7", "L1N128cmv05s0", "P1N100haar0999s0", *PAST_CAP])
def test_sweep(benchmark, monkeypatch, request, make, args):
    # the pinned spectra job whose first grid of 8 N L = 192 intervals finds
    # 12 of 24 crossings, a long chain on which many Pruefer calls break down,
    # a periodic narrow resonance that a doubling sweep never finished, and two
    # sweeps past the dense cap whose first grids are short; thetas,
    # prufer_calls and broken_points count prufer or prufer_periodic,
    # count_calls and count_arcs the arc counts, solves the inverse-iteration
    # runs summed over their batched steps.  Every sweep runs once more under
    # tracemalloc (peak_mb).  A past-cap sweep runs once in the timed span
    # (wall_s), and is checked against the eigenphases of the dense matrix
    # outside both
    z = make(*args)
    points, broken = [], []
    name = "prufer" if z.flavor == "finite" else "prufer_periodic"
    phase = getattr(osc, name)

    def counted(zipper, w, *args, **kwargs):
        points.append(np.size(w))
        W = phase(zipper, w, *args, **kwargs)
        broken.append(int(np.isnan(W).any(axis=(-2, -1)).sum()))
        return W

    monkeypatch.setattr(osc, name, counted)
    counts, arcs, solves = _count_calls(monkeypatch)
    past_cap = request.node.callspec.id in PAST_CAP
    if past_cap:
        start = time.perf_counter()
        spec = benchmark.pedantic(osc.spectrum_by_oscillation, (z,), rounds=1, iterations=1)
        wall = time.perf_counter() - start
    else:
        spec = osc.spectrum_by_oscillation(z)
    benchmark.extra_info.update(sites=z.N, thetas=sum(points), prufer_calls=len(points),
                                broken_points=sum(broken), count_calls=len(counts), count_arcs=sum(arcs),
                                solves=sum(solves))
    benchmark.extra_info.update(peak_mb=_peak_mb(osc.spectrum_by_oscillation, z))  # after the counts are read
    if past_cap:
        benchmark.extra_info.update(wall_s=wall)
        dense = np.sort(np.mod(np.angle(np.linalg.eigvals(zp.assemble_finite(z).to_dense())), 2 * np.pi))
        gap = np.abs(np.angle(np.exp(1j * (spec.expanded_thetas()[:, None] - dense[None, :]))))
        assert gap.min(axis=1).max() < 1e-9 and gap.min(axis=0).max() < 1e-9
    else:
        spec = benchmark(osc.spectrum_by_oscillation, z)
    assert spec.total_multiplicity == z.N * z.L


@pytest.mark.parametrize("periodic", [False, True], ids=["L1N24haar085s7", "P1N24haar085s7k03"])
def test_arc_counts(benchmark, periodic):
    # the grid intervals of the pinned spectra job, and of the fiber at k = 0.3
    # of the periodic zipper with the same seed and shape
    if not hasattr(zp, "arc_counts"):
        pytest.skip("no zipper.arc_counts")
    if periodic:
        op = zp.fiber(ensembles.periodic_zipper(7, 1, 24, "haar-gauge", 0.85), 0.3)
        try:
            zp.arc_counts(op, [1.0], [0.5])
        except ValidationError:
            pytest.skip("arc_counts refuses periodic operators")
    else:
        op = zp.assemble_finite(ensembles.finite_zipper(7, 1, 24, "haar-gauge", 0.85))
    edges = 0.37 * 2 * np.pi / 192 + np.arange(193) * (2 * np.pi / 192)
    centers, halfwidths = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    benchmark.extra_info.update(sites=op.N, arcs=len(centers), peak_mb=_peak_mb(zp.arc_counts, op, centers, halfwidths))
    counts = benchmark(zp.arc_counts, op, centers, halfwidths)
    assert counts.sum() == 24


@pytest.mark.parametrize("L, N", [(1, 16), (2, 32)])
def test_e_matrix_call(benchmark, monkeypatch, L, N):
    # one point per call, as the f_matrix/g_matrix jobs of the resolvent workload
    z = ensembles.finite_zipper(11, L, N, "haar-gauge")
    fac = tr.TransferFactory(z)
    benchmark.extra_info.update(sites=N, points=1,
                                solves=_solves(monkeypatch, lambda: weyl.e_matrix(z, 0.3 + 0.4j, factory=fac)))
    E = benchmark(weyl.e_matrix, z, 0.3 + 0.4j, factory=fac)
    assert E.shape == (L, L)


@pytest.mark.parametrize("L", [1, 2])
def test_propagate_call(benchmark, L):
    z = ensembles.finite_zipper(7, L, N_PRUFER, "haar-gauge", 0.85)
    w = _circle(8 * N_PRUFER * L + 1)
    fac = tr.TransferFactory(z)
    benchmark.extra_info.update(sites=z.N, points=len(w))
    frame = benchmark(tr.propagate, z, w, z.N, factory=fac).matrix
    assert frame.shape == (len(w), 2 * L, L)


@pytest.mark.parametrize("N", [64, 512])
def test_assemble_to_dense(benchmark, N):
    z = ensembles.finite_zipper(7, 1, N, "haar-gauge")
    benchmark.extra_info.update(sites=N, dim=N)
    M = benchmark(lambda: zp.assemble_finite(z).to_dense())
    assert M.shape == (N, N)


def test_dense_spectrum(benchmark):
    z = ensembles.finite_zipper(7, 1, 512, "haar-gauge")
    op = zp.assemble_finite(z)
    benchmark.extra_info.update(sites=z.N, dim=op.dim)
    spec = benchmark(zp.dense_spectrum, op)
    assert spec.total_multiplicity == op.dim


@pytest.mark.parametrize("L, N, ensemble", [(1, 64, "cmv"), (2, 32, "haar-gauge"),
                                             (1, 32, "cmv"), (2, 16, "haar-gauge")],
                         ids=["L1N64cmv", "L2N32haar", "L1N32cmv", "L2N16haar"])
def test_gram_schmidt(benchmark, L, N, ensemble):
    # the heaviest measures of the roundtrip and the two most frequent, recursion
    # depth N + 2 as in ``measure roundtrip``
    z = ensembles.finite_zipper(0, L, N, ensemble)
    mu = ms.spectral_measure_finite(z)
    gram = benchmark(ms.gram_schmidt, mu, z.boundary_u, z.N + 2)
    benchmark.extra_info.update(atoms=len(mu.atoms), n_max=z.N + 2, sites=len(gram.sites[0]),
                                steps=len(gram.phis))
    assert len(gram.sites[0])
