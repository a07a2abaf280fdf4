"""Command-line front end: determinism, formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scatzip import cli, ensembles, fileio, verify, weyl
from scatzip.scattering import decompose_block


def run_cli(*argv):
    return cli.main(list(argv))


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    built = []
    build_parser = cli.build_parser

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    out = tmp_path / "z.json"
    try:
        assert run_cli("gen", "--L", "1", "--N", "4", "--output", str(out)) == 0
        assert run_cli("spectrum", str(out), "--output", str(tmp_path / "s.json")) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_gen_deterministic(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    for p in (p1, p2):
        assert run_cli("gen", "--L", "2", "--N", "6", "--seed", "7", "--output", str(p)) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_gen_free_ensemble(tmp_path):
    p = tmp_path / "z.json"
    assert run_cli("gen", "--L", "2", "--N", "4", "--ensemble", "free",
                   "--output", str(p)) == 0
    z = fileio.load_document(str(p))
    for n in range(2, 5):
        assert np.allclose(z.block(n).alpha, 0)


def test_gen_blocks_are_effective(tmp_path):
    p = tmp_path / "z.json"
    assert run_cli("gen", "--L", "3", "--N", "6", "--seed", "5", "--output", str(p)) == 0
    z = fileio.load_document(str(p))
    for n in range(2, 7):
        alpha, _, _ = decompose_block(z.block(n).matrix)  # raises if not effective
        assert np.linalg.norm(alpha, 2) < 1


def test_gen_rejects_odd_n(tmp_path):
    assert run_cli("gen", "--L", "1", "--N", "5", "--output", str(tmp_path / "z.json")) == 2


def test_bad_arguments_exit_2(tmp_path, capsys):
    zper = tmp_path / "zper.json"
    zfin = tmp_path / "zfin.json"
    run_cli("gen", "--L", "1", "--N", "4", "--flavor", "periodic", "--output", str(zper))
    run_cli("gen", "--L", "1", "--N", "4", "--output", str(zfin))
    capsys.readouterr()
    to_zipper = ["measure", "--direction", "to-zipper"]
    bad_tol = [(["spectrum", str(zfin), "--tol", tol],
                f"refine tolerance must lie in (0, 2 pi / 32), got {float(tol)}")
               for tol in ("nan", "5", "0", "-1")]
    bad_tol.append((["bands", str(zper), "--tol", "nan"],
                    "refine tolerance must lie in (0, 2 pi / 32), got nan"))
    for argv, message in [(["gen", "--L", "0", "--N", "4"], "L must be >= 1, got 0"),
                          (["gen", "--L", "1", "--N", "4", "--alpha-max", "1.5"],
                           "alpha_max must lie in [0, 1), got 1.5"),
                          (["gen", "--L", "1", "--N", "4", "--alpha-max", "-0.5"],
                           "alpha_max must lie in [0, 1), got -0.5"),
                          (["bands", str(zper), "--grid", "0"], "momentum grid size must be an integer >= 1, got 0"),
                          (to_zipper + ["--uniform-grid", "0", "--L", "1"],
                           "the uniform grid needs m >= 1 atoms, got 0"),
                          (to_zipper + ["--uniform-grid", "-3", "--L", "1"],
                           "the uniform grid needs m >= 1 atoms, got -3"),
                          (to_zipper + ["--uniform-grid", "4", "--L", "0"], "L must be >= 1, got 0"),
                          (["weyl", str(zfin), "--grid", "nan:0.5:3,0:0.1:2"],
                           "4 grid points outside the punctured unit disc, e.g. nan"),
                          (["weyl", str(zfin), "--grid", "0.1:0.8:0,0:0.5:5"],
                           "the grid needs nr, ni >= 1 points, got 0, 5"),
                          (["weyl", str(zfin), "--grid", "0.1:0.8:3,0:0.5:0"],
                           "the grid needs nr, ni >= 1 points, got 3, 0"),
                          *bad_tol]:
        assert run_cli(*argv, "--output", str(tmp_path / "out")) == 2
        assert f"error: {message}" in capsys.readouterr().err


def test_python_m_scatzip_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "scatzip", "verify", "--suite", "measures"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "0 failed" in done.stdout


def test_spectrum_both_methods_agree(tmp_path):
    zfile = tmp_path / "z.json"
    out = tmp_path / "spec.json"
    run_cli("gen", "--L", "1", "--N", "4", "--ensemble", "free", "--output", str(zfile))
    assert run_cli("spectrum", str(zfile), "--method", "both", "--output", str(out)) == 0
    report = json.loads(out.read_text())
    assert len(report["dense"]) == 4
    assert report["comparison"]["multiplicities_agree"]
    assert report["comparison"]["max_eigenvalue_discrepancy"] < 1e-7


def test_spectrum_seeded_instance(tmp_path):
    zfile = tmp_path / "z.json"
    out = tmp_path / "spec.json"
    run_cli("gen", "--L", "2", "--N", "6", "--seed", "9", "--output", str(zfile))
    assert run_cli("spectrum", str(zfile), "--method", "both", "--output", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["comparison"]["max_eigenvalue_discrepancy"] < 1e-7


def test_spectrum_seam_eigenvalue(tmp_path):
    # the free L=2, N=16 zipper has the double eigenvalue 1, which the dense
    # oracle meets just below theta = 2 pi and the sweep just above 0
    zfile = tmp_path / "z.json"
    out = tmp_path / "spec.json"
    run_cli("gen", "--L", "2", "--N", "16", "--ensemble", "free", "--output", str(zfile))
    assert run_cli("spectrum", str(zfile), "--output", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["comparison"]["multiplicities_agree"]
    assert report["comparison"]["max_eigenvalue_discrepancy"] < 1e-7
    for route in ("dense", "oscillation"):
        assert all(0.0 <= e["theta"] < 2 * np.pi for e in report[route])


def test_spectrum_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"L": 1,\n  "broken"')
    assert run_cli("spectrum", str(bad)) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_weyl_sweep_bound_column(tmp_path):
    zfile = tmp_path / "z.json"
    out = tmp_path / "sweep.csv"
    run_cli("gen", "--L", "1", "--N", "8", "--seed", "3", "--output", str(zfile))
    assert run_cli("weyl", str(zfile), "--grid", "0.1:0.7:3,0.0:0.5:3",
                   "--output", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    head = lines[0].split(",")
    i_r, i_b = head.index("norm_R"), head.index("bound")
    assert len(lines) == 10
    for row in lines[1:]:
        vals = row.split(",")
        assert float(vals[i_r]) <= float(vals[i_b]) + 1e-12


def test_weyl_default_grid_inside_disc(tmp_path):
    # the default grid must lie in the punctured unit disc: 5 x 5 rows
    zfile = tmp_path / "z.json"
    out = tmp_path / "sweep.csv"
    run_cli("gen", "--L", "1", "--N", "8", "--seed", "3", "--output", str(zfile))
    assert run_cli("weyl", str(zfile), "--output", str(out)) == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 25


def test_weyl_center_near_i_for_small_z(tmp_path):
    zfile = tmp_path / "z.json"
    out = tmp_path / "sweep.csv"
    run_cli("gen", "--L", "1", "--N", "8", "--seed", "3", "--output", str(zfile))
    run_cli("weyl", str(zfile), "--grid", "0.05:0.05:1,0.0:0.0:1",
            "--output", str(out))
    head, row = [ln.split(",") for ln in out.read_text().strip().splitlines()]
    center = float(row[head.index("center_re_0_0")]) + 1j * float(row[head.index("center_im_0_0")])
    assert abs(center - 1j) < 0.2


def test_weyl_halving_with_doubled_n(tmp_path):
    # one zipper, two truncation lengths: the radius can only shrink
    from scatzip import weyl

    sem = ensembles.semi_infinite_zipper(4, 1, "cmv")
    z = sem.truncate(12, np.eye(1))
    r6 = weyl.radial_central(z, 0.4 + 0.2j, upto=6).radius_norms()[0]
    r12 = weyl.radial_central(z, 0.4 + 0.2j, upto=12).radius_norms()[0]
    assert r12 <= 2.0 * (r6 / 2.0)


def test_weyl_pinned_disc_instance(tmp_path):
    # L = 2, N = 64, ||alpha|| <= 0.99 up to |z| = 0.99: the whole grid is one
    # batched disc read, and every row reports its center reflection defect
    zfile = tmp_path / "z.json"
    out = tmp_path / "sweep.csv"
    run_cli("gen", "--L", "2", "--N", "64", "--alpha-max", "0.99", "--seed", "0",
            "--output", str(zfile))
    assert run_cli("weyl", str(zfile), "--grid", "0.05:0.97:8,0:0.2:8",
                   "--output", str(out)) == 0
    head, *rows = [ln.split(",") for ln in out.read_text().strip().splitlines()]
    assert len(rows) == 64
    assert head[-1] == "identity_defect" and head[-2] == "center_im_1_1"
    assert max(float(r[-1]) for r in rows) <= 1e-8


def test_weyl_grid_outside_disc(tmp_path):
    zfile = tmp_path / "z.json"
    run_cli("gen", "--L", "1", "--N", "4", "--output", str(zfile))
    assert run_cli("weyl", str(zfile), "--grid", "0.5:1.5:3,0.0:0.0:1") == 2


def _finite_doc(alpha):
    """A finite L = 1 zipper document whose S_2 has the given alpha entries."""
    doc = fileio.zipper_to_dict(ensembles.finite_zipper(4, 1, 4, "cmv"))
    doc["blocks"][0]["alpha"] = alpha
    return doc


def _finite_doc_with_block(n, like):
    """The finite L = 1, N = 4 document with one more block S_n, a copy of block ``like``."""
    doc = _finite_doc([[[0.1, 0.0]]])
    doc["blocks"].append(dict(doc["blocks"][like], n=n))
    return doc


def _finite_doc_with(n, key, value):
    """The finite L = 1, N = 4 document with entry ``key`` of block S_n replaced."""
    doc = _finite_doc([[[0.1, 0.0]]])
    doc["blocks"][n - 2][key] = value
    return doc


_ROWS_OF_EYE3 = [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                 [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]]  # the first two rows of the 3 x 3 identity
_WIDE_BOUNDARY = dict(fileio.zipper_to_dict(ensembles.finite_zipper(4, 2, 4, "cmv")),
                      boundary_U=_ROWS_OF_EYE3)
_NAN_MEASURE = {"L": 1, "atoms": [{"xi": [float("nan"), 0.0], "weight": [[[0.5, 0.0]]]},
                                  {"xi": [1.0, 0.0], "weight": [[[0.5, 0.0]]]}]}
_RAGGED_MEASURE = {"L": 1, "atoms": [{"xi": [1.0, 0.0], "weight": _ROWS_OF_EYE3},
                                     {"xi": [-1.0, 0.0], "weight": [[[0.0, 0.0]]]}]}


@pytest.mark.parametrize("doc, argv, message", [
    (_finite_doc([[[float("nan"), 0.0]]]), ["spectrum"], "matrix has non-finite entries"),
    (_finite_doc([[[0.1, 0.0], [0.2, 0.0]]]), ["spectrum"],
     "alpha, u_gauge, v_gauge must share the same L x L shape"),
    (_WIDE_BOUNDARY, ["spectrum"], "boundary_u has shape (2, 3), expected (2, 2)"),
    (dict(_finite_doc([[[0.1, 0.0]]]), N="four"), ["spectrum"], "malformed zipper document: invalid literal"),
    (_NAN_MEASURE, ["measure", "--direction", "to-zipper"], "atoms must lie on the unit circle"),
    (_RAGGED_MEASURE, ["measure", "--direction", "to-zipper"], "malformed measure document: "),
    (_finite_doc_with_block(5, 0), ["spectrum"], "block S_5 is not one of S_2, ..., S_4"),
    (_finite_doc_with_block(2, -1), ["spectrum"], "block S_2 is given twice"),
    (_finite_doc_with(3, "u", [[[2.0, 0.0]]]), ["spectrum"], "block S_3: u has unitarity defect 3.0e+00"),
    (_finite_doc_with(3, "u", [[[2.0, 0.0]]]), ["weyl", "--grid", "0.1:0.5:3,0.0:0.2:2"],
     "block S_3: u has unitarity defect 3.0e+00"),
    (_finite_doc_with(3, "u", [[[2.0, 0.0]]]), ["measure", "--direction", "roundtrip"],
     "block S_3: u has unitarity defect 3.0e+00"),
    (_finite_doc_with(4, "v", [[[0.0, 1.0 + 1e-5]]]), ["spectrum"], "block S_4: v has unitarity defect 2.0e-05"),
    (_finite_doc_with(3, "alpha", [[[1.5, 0.0]]]), ["spectrum"], "block S_3: ||alpha|| = 1.500 is not < 1"),
    (_finite_doc_with(2, "alpha", [[[0.0, -1.0]]]), ["measure", "--direction", "roundtrip"],
     "block S_2: ||alpha|| = 1.000 is not < 1"),
], ids=["nan-alpha", "alpha-1x2-at-L1", "boundary-2x3-at-L2", "n-not-an-integer",
        "nan-atom", "ragged-weights", "extra-block-n5", "duplicate-block-n2",
        "u-not-unitary-spectrum", "u-not-unitary-weyl", "u-not-unitary-roundtrip",
        "v-off-by-1e-5", "alpha-1.5", "alpha-on-the-circle"])
def test_bad_input_files_exit_2(tmp_path, capsys, doc, argv, message):
    path = tmp_path / "bad.json"
    path.write_text(fileio.dumps(doc))
    assert run_cli(argv[0], str(path), *argv[1:]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, seed", [
    (["gen", "--L", "1", "--N", "4"], "-1"),
    (["gen", "--L", "1", "--N", "4", "--flavor", "semi-infinite"], "-3"),
    (["measure", "--direction", "to-zipper", "--uniform-grid", "4", "--L", "1"], "-2"),
    (["verify", "--suite", "all"], "-1"),
], ids=["gen-finite", "gen-semi-infinite", "measure", "verify"])
def test_negative_seeds_exit_2(capsys, argv, seed):
    assert run_cli(*argv, "--seed", seed) == 2
    assert f"error: seed must be >= 0, got {seed}" in capsys.readouterr().err


def test_recovered_zipper_files_pass_the_gauge_check(tmp_path):
    # the gauges that to-zipper recovers here are unitary only to ~6e-9, so
    # the load check must stay well above 1e-9 for its files to load
    zfile, mu, rz = (tmp_path / name for name in ("z.json", "mu.json", "rz.json"))
    zfile.write_text(fileio.dumps(fileio.zipper_to_dict(ensembles.finite_zipper(0, 2, 32, "haar-gauge"))))
    assert run_cli("measure", str(zfile), "--direction", "to-measure", "--output", str(mu)) == 0
    assert run_cli("measure", str(mu), "--direction", "to-zipper", "--output", str(rz)) == 0
    gauges = [fileio.complex_matrix_from_json(b[k]) for b in json.loads(rz.read_text())["blocks"] for k in "uv"]
    assert max(np.abs(g.conj().T @ g - np.eye(2)).max() for g in gauges) > 1e-9
    assert fileio.load_document(str(rz)).L == 2


def test_file_format_is_pinned(tmp_path):
    # SHA-256 of outputs written before the site tables replaced per-block
    # objects (to-zipper: since both Gram-Schmidt families run stacked and the
    # stop reason names its step; the batched passes moved its entries by at
    # most 2.2e-16, the stacking flipped the sign of 7 of its 240 zero
    # entries and moved no value); the draws run through LAPACK QR and
    # eigh, so another numpy or LAPACK build may round differently and need
    # the hashes recomputed
    runs = {
        "finite": (["gen", "--L", "2", "--N", "8", "--ensemble", "haar-gauge", "--seed", "7"],
                   "f185703252b6ec6dc348a78186160201d0fc40677a9cdd00dcb7c2edf5bc51ec"),
        "periodic": (["gen", "--L", "1", "--N", "4", "--flavor", "periodic", "--ensemble", "cmv"],
                     "18526d31546a1694a9ee6491a82ce098516ad93bea35e0c10871b58e691f448a"),
        "semi-infinite": (["gen", "--L", "1", "--N", "12", "--flavor", "semi-infinite",
                           "--ensemble", "cmv"],
                          "1103df69fafff3a0052fbe1e2a84a51bc9a8bedd70e3ca5e867435c1c2545759"),
        "to-zipper": (["measure", "--direction", "to-zipper", "--uniform-grid", "16", "--L", "2"],
                      "96487ba471561be70be1d6167cc7209aee8fb7c34d6f985300fc50eccfd8b58f"),
    }
    for name, (argv, digest) in runs.items():
        out = tmp_path / f"{name}.json"
        assert run_cli(*argv, "--output", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, name


def test_underflowed_radius_exits_3(tmp_path, capsys):
    # ||R|| at z = 0.05 is e^-893 at this instance, below the smallest normal double
    zfile = tmp_path / "z.json"
    z = ensembles.semi_infinite_zipper(79, 1, "cmv").truncate(256, np.eye(1))
    zfile.write_text(fileio.dumps(fileio.zipper_to_dict(z)))
    assert run_cli("weyl", str(zfile), "--grid", "0.05:0.05:1,0:0:1") == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical breakdown: radius norm at z = ")
    assert "is not a normal float" in err


def test_measure_roundtrip_report(tmp_path):
    zfile = tmp_path / "z.json"
    out = tmp_path / "report.json"
    run_cli("gen", "--L", "1", "--N", "6", "--ensemble", "cmv", "--seed", "21",
            "--output", str(zfile))
    assert run_cli("measure", str(zfile), "--direction", "roundtrip",
                   "--output", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["max_alpha_error"] < 1e-6
    assert report["max_f_match_error"] < 1e-6


def test_measure_roundtrip_reports_gauge_invariant_alpha_error(tmp_path):
    # at L = 2 alpha_n depends on the gauge the measure cannot see; its singular values do not
    zfile, out = tmp_path / "z.json", tmp_path / "report.json"
    zfile.write_text(fileio.dumps(fileio.zipper_to_dict(ensembles.finite_zipper(0, 2, 16, "haar-gauge"))))
    assert run_cli("measure", str(zfile), "--direction", "roundtrip", "--output", str(out)) == 0
    assert json.loads(out.read_text())["max_alpha_singular_value_error"] < 1e-8


@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_measure_n_max_below_one_exits_2(capsys, n_max):
    assert run_cli("measure", "--direction", "to-zipper", "--uniform-grid", "4", "--L", "1",
                   "--n-max", n_max) == 2
    assert f"error: --n-max must be >= 1, got {n_max}" in capsys.readouterr().err


def test_measure_matrix_f_match(tmp_path, monkeypatch):
    zfile = tmp_path / "z.json"
    out = tmp_path / "report.json"
    run_cli("gen", "--L", "2", "--N", "6", "--seed", "22", "--output", str(zfile))
    e_matrix, points = weyl.e_matrix, []

    def counted(zipper, z, *args, **kwargs):
        points.append(np.shape(z))
        return e_matrix(zipper, z, *args, **kwargs)

    monkeypatch.setattr(weyl, "e_matrix", counted)
    assert run_cli("measure", str(zfile), "--direction", "roundtrip",
                   "--output", str(out)) == 0
    assert json.loads(out.read_text())["max_f_match_error"] < 1e-6
    assert points == [(10,)]  # the F-match is one chain over all sample points


def test_measure_to_zipper_two_atoms(tmp_path):
    mfile = tmp_path / "mu.json"
    out = tmp_path / "rebuilt.json"
    mu_doc = {"L": 1, "atoms": [
        {"xi": [1.0, 0.0], "weight": [[[0.5, 0.0]]]},
        {"xi": [-1.0, 0.0], "weight": [[[0.5, 0.0]]]},
    ]}
    mfile.write_text(json.dumps(mu_doc))
    assert run_cli("measure", str(mfile), "--direction", "to-zipper",
                   "--output", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["stop_step"] == 3
    assert doc["n_available"] == 2


def test_measure_to_measure_roundtrip_file(tmp_path):
    zfile = tmp_path / "z.json"
    mfile = tmp_path / "mu.json"
    run_cli("gen", "--L", "2", "--N", "4", "--seed", "1", "--output", str(zfile))
    assert run_cli("measure", str(zfile), "--direction", "to-measure",
                   "--output", str(mfile)) == 0
    mu = fileio.load_document(str(mfile))
    assert np.linalg.norm(mu.weights.sum(axis=0) - np.eye(2), 2) < 1e-8


def test_bands_free_coverage_and_k0(tmp_path):
    zfile = tmp_path / "zper.json"
    out = tmp_path / "bands.csv"
    run_cli("gen", "--L", "1", "--N", "2", "--flavor", "periodic", "--ensemble", "free",
            "--output", str(zfile))
    assert run_cli("bands", str(zfile), "--grid", "64", "--output", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 65
    phases = np.sort(np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]]).ravel())
    gaps = np.diff(np.concatenate([phases, [phases[0] + 2 * np.pi]]))
    assert gaps.max() < 2 * np.pi / 64


def test_bands_deterministic(tmp_path):
    zfile = tmp_path / "zper.json"
    run_cli("gen", "--L", "1", "--N", "4", "--flavor", "periodic", "--seed", "6",
            "--output", str(zfile))
    outs = []
    for name in ("b1.csv", "b2.csv"):
        out = tmp_path / name
        assert run_cli("bands", str(zfile), "--grid", "8", "--output", str(out)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_sweeps_call_pruefer_functions_by_module_name(tmp_path, monkeypatch):
    # spectrum and bands must look prufer, prufer_periodic and sweep_spectrum
    # up on the oscillation module at call time, so that a wrapper set there
    # (an evaluation counter or cap) sees every sweep and every evaluation
    from scatzip import oscillation as osc

    hits = dict.fromkeys(("prufer", "prufer_periodic", "sweep_spectrum"), 0)
    for name in hits:
        def counted(*args, _fn=getattr(osc, name), _name=name, **kwargs):
            hits[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(osc, name, counted)
    zfin, zper = tmp_path / "z.json", tmp_path / "zper.json"
    run_cli("gen", "--L", "1", "--N", "4", "--seed", "3", "--output", str(zfin))
    run_cli("gen", "--L", "1", "--N", "2", "--flavor", "periodic", "--seed", "3",
            "--output", str(zper))
    for argv, used in [(("spectrum", str(zfin)), ("prufer", "sweep_spectrum")),
                       (("spectrum", str(zper)), ("prufer_periodic", "sweep_spectrum")),
                       (("bands", str(zper), "--grid", "2"), ("prufer_periodic", "sweep_spectrum"))]:
        before = dict(hits)
        assert run_cli(*argv, "--output", str(tmp_path / "out")) == 0
        assert all(hits[name] > before[name] for name in used), argv
    # one sweep per spectrum, and bands sweeps both of its momenta in one
    assert hits["sweep_spectrum"] == 3


def test_verify_all_passes(capsys):
    assert run_cli("verify", "--seed", "0") == 0
    out = capsys.readouterr().out
    assert "0 failed" in out


def test_verify_module_filter(capsys):
    assert run_cli("verify", "--suite", "scattering") == 0
    out = capsys.readouterr().out
    assert "scattering." in out and "zipper." not in out


def test_verify_detects_injected_fault():
    results = verify.scattering_checks(seed=0, corruption=1e-3)
    assert any(not r.passed for r in results)


def test_semi_infinite_gen_roundtrip(tmp_path):
    zfile = tmp_path / "sem.json"
    assert run_cli("gen", "--L", "1", "--N", "8", "--flavor", "semi-infinite",
                   "--ensemble", "cmv", "--seed", "2", "--output", str(zfile)) == 0
    sem = fileio.load_document(str(zfile))
    direct = ensembles.semi_infinite_zipper(2, 1, "cmv")
    for n in range(2, 9):
        assert np.allclose(sem.block(n).matrix, direct.block(n).matrix, atol=1e-15)
