"""The library calls the benchmark (perfbench/) makes outside the CLI, on tiny instances.

perfbench imports the modules afresh and calls these names directly, and
wraps ``oscillation.prufer``, ``prufer_periodic`` and ``sweep_spectrum`` on
the module before any job runs; a renamed entry point, parameter or field
would fail every benchmark run, so each one is pinned here.
"""

import functools

import numpy as np

from scatzip import ensembles, oscillation as osc, transfer, weyl, zipper as zp

from conftest import random_unitary


def test_a_transfer_factory_is_the_table_seam_of_f_matrix_and_log_radius_norm(rng):
    z = ensembles.finite_zipper(3, 2, 6)
    sem = ensembles.semi_infinite_zipper(3, 2)
    fac, sem_fac = transfer.TransferFactory(z), transfer.TransferFactory(sem)
    w, v = 0.3 + 0.2j, random_unitary(rng, 2)
    assert np.array_equal(weyl.f_matrix(z, w, v_boundary=v, factory=fac), weyl.f_matrix(z, w, v_boundary=v))
    assert np.array_equal(weyl.f_matrix(sem, w, v_boundary=v, upto=8, factory=sem_fac),
                          weyl.f_matrix(sem, w, v_boundary=v, upto=8))
    lr = weyl.log_radius_norm(z, w, z.N, factory=fac)
    assert lr == weyl.log_radius_norm(z, w, z.N) and np.isfinite(lr)


def test_limit_f_carries_the_fields_the_benchmark_reads():
    res = weyl.limit_f(ensembles.semi_infinite_zipper(1, 1), 0.3, 1.0)  # 10 sites
    assert res.n_used == 10 and res.f_value.shape == (1, 1)
    assert res.certified_error > 0 and res.posterior_error > 0


def test_dense_spectrum_of_a_fiber():
    z = ensembles.periodic_zipper(2, 2, 4)
    assert zp.dense_spectrum(zp.fiber(z, 0.3)).total_multiplicity == 8


def test_oscillation_entry_points_are_looked_up_at_call_time(monkeypatch):
    # the benchmark replaces these three names on the module with counting
    # wrappers (functools.wraps); spectra and bands must call through them,
    # and its traced round reads total_multiplicity off every sweep_spectrum return
    hits = dict.fromkeys(("prufer", "prufer_periodic", "sweep_spectrum"), 0)
    sweeps = []
    for name in hits:
        def guard(fn, name=name):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                hits[name] += 1
                out = fn(*args, **kwargs)
                if name == "sweep_spectrum":
                    sweeps.append(out)
                return out
            return counted
        monkeypatch.setattr(osc, name, guard(getattr(osc, name)))
    finite, periodic = ensembles.finite_zipper(3, 1, 4), ensembles.periodic_zipper(3, 1, 2)
    assert osc.spectrum_by_oscillation(finite).total_multiplicity == 4
    assert osc.bands(periodic, 2).eigenphase_table().shape == (2, 2)
    assert hits["sweep_spectrum"] == 2 and hits["prufer"] > 0 and hits["prufer_periodic"] > 0
    assert [r.total_multiplicity for r in sweeps] == [4, 2 * 2]  # N L eigenvalues at each of 2 momenta
