"""Stacked site tables: batched draws, stacked phi, the E-chain on the phi table."""

import gc
import tracemalloc

import numpy as np
import pytest

from scatzip import ensembles, fileio, matrix_core as mc, scattering as sc, transfer as tr, weyl
from scatzip import zipper as zp
from scatzip.errors import SingularDenominatorError


def _reference_draw(rng, L, ensemble, alpha_max=ensembles.DEFAULT_ALPHA_MAX):
    """(alpha, U, V) of one block drawn site by site with plain numpy calls."""
    def unitary():
        g = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
        q, r = np.linalg.qr(g)
        d = r.diagonal()
        return q * (d / np.abs(d))

    one = np.eye(L, dtype=complex)
    if ensemble == "free":
        return np.zeros((L, L), dtype=complex), one, one
    if L == 1:
        r = alpha_max * np.sqrt(rng.uniform())
        alpha = np.array([[r * np.exp(2j * np.pi * rng.uniform())]])
    else:
        s = alpha_max * rng.uniform(size=L)
        alpha = unitary() @ np.diag(s).astype(complex) @ unitary()
    if ensemble == "cmv":
        return alpha, one, one
    return alpha, unitary(), unitary()


@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("ensemble", ensembles.ENSEMBLES)
def test_stacked_draws_equal_per_site_draws(L, ensemble):
    seed = 31 + L
    sites = range(57, 81)  # a range that starts mid-way
    stacks = ensembles.random_blocks((np.random.default_rng([seed, n]) for n in sites), L, ensemble)
    # a phi table grown in two ranges equals one drawn at once
    sem = ensembles.semi_infinite_zipper(seed, L, ensemble)
    sem.phi_table(60)
    whole = ensembles.semi_infinite_zipper(seed, L, ensemble).phi_table(80)
    assert np.array_equal(sem.phi_table(80), whole)
    for i, n in enumerate(sites):
        ref = _reference_draw(np.random.default_rng([seed, n]), L, ensemble)
        single = ensembles.random_block(np.random.default_rng([seed, n]), L, ensemble)
        block = sem.block(n)
        for x, r, b, s in zip((stacks[0][i], stacks[1][i], stacks[2][i]), ref,
                              (block.alpha, block.u_gauge, block.v_gauge),
                              (single.alpha, single.u_gauge, single.v_gauge)):
            assert np.array_equal(x, r) and np.array_equal(b, r) and np.array_equal(s, r)
        assert np.array_equal(block.matrix, single.matrix)


@pytest.mark.parametrize("ensemble", ensembles.ENSEMBLES)
def test_finite_draws_share_one_generator_site_after_site(ensemble):
    for L in (1, 2, 3):
        z = ensembles.finite_zipper(9, L, 8, ensemble, 0.95)
        rng = np.random.default_rng(9)
        if ensemble == "haar-gauge":
            ensembles.random_unitary(rng, L), ensembles.random_unitary(rng, L)  # U, V
        for n in range(2, 9):
            ref = _reference_draw(rng, L, ensemble, 0.95)
            b = z.blocks[n]
            assert all(np.array_equal(x, r) for x, r in zip((b.alpha, b.u_gauge, b.v_gauge), ref))


@pytest.mark.parametrize("L", [1, 2, 3])
def test_stacked_phi_equals_per_block_phi(L):
    for ensemble in ("cmv", "haar-gauge"):
        z = ensembles.finite_zipper(40 + L, L, 24, ensemble, 0.95)
        blocks = [z.blocks[n] for n in range(2, 25)]
        stacked = sc.phi(np.stack([b.matrix for b in blocks]))
        single = np.stack([sc.phi(b) for b in blocks])
        if L == 1:
            assert np.array_equal(stacked, single)
        else:
            assert np.abs(stacked - single).max() <= 1e-14 * np.abs(single).max()
        beta, gamma, delta = sc.normal_form(*(np.stack([getattr(b, f) for b in blocks])
                                              for f in ("alpha", "u_gauge", "v_gauge")))
        assert np.array_equal(beta, np.stack([b.beta for b in blocks]))
        assert np.array_equal(gamma, np.stack([b.gamma for b in blocks]))
        assert np.array_equal(delta, np.stack([b.delta for b in blocks]))
        table = z.phi_table()
        assert np.array_equal(table[1:], stacked)
        assert np.array_equal(table[0], tr.TransferFactory(z).phi_at(1))


def test_semi_infinite_phi_table_rows_are_phi_of_the_blocks():
    sem = ensembles.semi_infinite_zipper(12, 2, "haar-gauge")
    table = sem.phi_table(40)
    assert table.shape == (40, 4, 4)
    U = sem.boundary_u
    assert np.array_equal(table[0], mc.join_blocks(U, 0 * U, 0 * U, np.eye(2)))
    for n in range(2, 41):
        assert np.abs(table[n - 1] - sc.phi(sem.block(n))).max() <= 1e-14 * np.abs(table[n - 1]).max()


def test_phi_table_is_built_once_per_zipper(monkeypatch):
    calls = []

    def counting_phi(S, *args, **kw):
        calls.append(np.shape(S))
        return sc.phi(S, *args, **kw)

    monkeypatch.setattr(zp, "phi", counting_phi)
    z = ensembles.finite_zipper(3, 2, 16)
    for w in (0.1 + 0.2j, 0.5, -0.3j, 0.7 - 0.1j):
        weyl.f_matrix(z, w)
        weyl.g_matrix(z, w)
    weyl.f_matrix(z, 0.2, factory=tr.TransferFactory(z))
    assert calls == [(15, 4, 4)]


def _mobius_chain(zipper, z, V, N):
    """The backward chain one mc.mobius step per site, on transfers built per block."""
    L = zipper.L
    Z = mc.adj(V)
    for n in range(N, 1, -1):
        Z = mc.mobius(tr.transfer_inverse_at(zipper.block(n), n, z), Z, tol=1e-13)
    zero = np.zeros((L, L))
    return mc.mobius(mc.join_blocks(mc.adj(zipper.boundary_u), zero, zero, mc.eye(L)), Z, tol=1e-13)


@pytest.mark.parametrize("L", [1, 2, 3])
def test_e_matrix_equals_the_mobius_chain(L):
    rng = np.random.default_rng(L)
    for ensemble in ("cmv", "haar-gauge"):
        z = ensembles.finite_zipper(60 + L, L, 16, ensemble, 0.95)
        sem = ensembles.semi_infinite_zipper(60 + L, L, ensemble)
        V = ensembles.random_unitary(rng, L)
        for _ in range(8):
            w = 0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            assert np.array_equal(weyl.e_matrix(z, w), _mobius_chain(z, w, z.boundary_v, 16))
            E = weyl.e_matrix(sem, w, v_boundary=V, upto=20)
            assert np.array_equal(E, _mobius_chain(sem, w, V, 20))
            assert np.array_equal(E, weyl.e_matrix(sem.truncate(20, V), w))


def test_product_references_do_not_read_the_phi_table():
    # a corrupted table row moves the fast routes but none of the references
    # built on TransferFactory.product, so they can still catch it
    z = ensembles.finite_zipper(5, 2, 8)
    sem = ensembles.semi_infinite_zipper(5, 2, "haar-gauge")
    w = 0.4 + 0.3j
    fac, sem_fac = tr.TransferFactory(z), tr.TransferFactory(sem)
    E, E_closed = weyl.e_matrix(z, w), weyl.e_matrix_closed(z, w)
    Q, P = weyl._q_tilde(fac, w, 8), sem_fac.product(12, w)
    assert np.linalg.norm(E - E_closed, 2) < 1e-12
    for zipper in (z, sem):
        table = zipper.phi_table(12 if zipper is sem else 8).copy()
        table[3] = table[3] @ sc.phi(ensembles.random_block(np.random.default_rng(9), 2, "cmv"))
        zipper.__dict__["_phis"] = table
    assert np.linalg.norm(weyl.e_matrix(z, w) - E, 2) > 1e-3
    assert np.array_equal(weyl.e_matrix_closed(z, w), E_closed)
    assert np.array_equal(weyl._q_tilde(fac, w, 8), Q)
    assert np.array_equal(sem_fac.product(12, w), P)


class _HandBuiltTable:
    """Stands in for a TransferFactory: serves a given phi table."""

    def __init__(self, table):
        self.table = table

    def phi_table(self, upto):
        return self.table[:upto]


@pytest.mark.parametrize("b", [8.0, 8.0 + 1e-14])
def test_e_matrix_names_the_site_of_a_singular_denominator(b):
    # identity transfers at sites 1, 3 and 4; at z = 1/2 and V = 1 the chain
    # reaches site 2 with Z = 1/4, where phi_2 = [[1, b], [0, 1]] gives
    # C Z + D = -b/4 + 2: exactly zero for b = 8, 2.5e-15 for b = 8 + 1e-14
    table = np.repeat(np.eye(2, dtype=complex)[None], 4, axis=0)
    table[1] = [[1.0, b], [0.0, 1.0]]
    z = ensembles.finite_zipper(0, 1, 4, "free")
    with pytest.raises(SingularDenominatorError, match="at site 2"):
        weyl.e_matrix(z, 0.5, v_boundary=np.eye(1), upto=4, factory=_HandBuiltTable(table))
    table[1] = np.eye(2)
    E = weyl.e_matrix(z, 0.5, v_boundary=np.eye(1), upto=4, factory=_HandBuiltTable(table))
    assert np.allclose(E, 1 / 16)


def test_limit_f_zipper_retains_only_its_site_table():
    # 1 058 sites at L = 1: the phi table holds 64 B a site
    gc.collect()
    tracemalloc.start()
    try:
        sem = ensembles.semi_infinite_zipper(7, 1, "cmv")
        before = tracemalloc.get_traced_memory()[0]
        res = weyl.limit_f(sem, np.sqrt(0.13) * np.exp(0.4j), 1e-2)
        del res
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(sem.stored_sites) == 1057
    assert retained <= 0.2e6, f"{retained / 1e6:.2f} MB retained"


def test_stored_prefix_is_exactly_the_materialized_sites(tmp_path):
    sem = ensembles.semi_infinite_zipper(2, 1, "cmv")
    doc = fileio.zipper_to_dict(sem)
    assert doc["N"] == 0 and doc["blocks"] == []
    sem.block(5)
    doc = fileio.zipper_to_dict(sem)
    assert doc["N"] == 5 and [b["n"] for b in doc["blocks"]] == [2, 3, 4, 5]
    res = weyl.limit_f(sem, 0.3, 1e-2)
    doc = fileio.zipper_to_dict(sem)
    assert doc["N"] == res.n_used == 968
    assert [b["n"] for b in doc["blocks"]] == list(range(2, 969))
    path = tmp_path / "sem.json"
    path.write_text(fileio.dumps(doc))
    loaded = fileio.load_document(str(path))
    assert fileio.dumps(fileio.zipper_to_dict(loaded)) == fileio.dumps(doc)
    assert np.array_equal(loaded.phi_table(968), sem.phi_table(968))
