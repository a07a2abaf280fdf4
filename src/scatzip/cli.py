"""Command-line front end.

Subcommands: gen (seeded instances), spectrum (oscillation and/or dense),
weyl (disc sweep over a z-grid), measure (zipper <-> measure conversions and
roundtrip reports), bands (Bloch-Floquet band structure), verify (invariant
suite).  Outputs are deterministic for fixed (command, seed, config).

Exit codes: 0 success, 2 validation error, 3 numerical breakdown,
4 verification failure.

Formats: zippers and measures as JSON with complex entries serialized as
[re, im] pairs; disc sweeps and bands as CSV (column order fixed, see the
writers in fileio).  Grids: the weyl command takes a cartesian grid spec
"re0:re1:nr,im0:im1:ni"; every grid point must lie in the punctured open
unit disc.  Every command runs serially in the calling thread.

The spectrum comparison pairs the two sorted eigenphase lists cyclically,
with the shift that minimizes the largest circular distance, so that an
eigenvalue near 1 seen at theta just below 2 pi by one route and just above
0 by the other is one pair.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import ensembles, fileio, matrix_core as mc, measures as ms
from . import oscillation as osc, verify, weyl, zipper as zp
from .errors import (
    GridOutsideDiscError,
    NumericalBreakdownError,
    ValidationError,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


def _write_output(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_gen(args) -> int:
    if args.N % 2:
        raise ValidationError(f"N must be even, got {args.N}")
    if args.flavor == "finite":
        z = ensembles.finite_zipper(args.seed, args.L, args.N, args.ensemble, args.alpha_max)
    elif args.flavor == "periodic":
        z = ensembles.periodic_zipper(args.seed, args.L, args.N, args.ensemble, args.alpha_max)
    else:
        z = ensembles.semi_infinite_zipper(args.seed, args.L, args.ensemble, args.alpha_max)
        z.extend(args.N)  # materialize the stored prefix
    _write_output(args.output, fileio.dumps(fileio.zipper_to_dict(z)))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    z = fileio.load_document(args.input)
    if not isinstance(z, zp.Zipper):
        raise ValidationError("spectrum needs a finite or periodic zipper file")
    report = {"L": z.L, "N": z.N, "flavor": z.flavor, "method": args.method}
    osc_spec = dense_spec = None
    if args.method in ("oscillation", "both"):
        osc_spec = osc.spectrum_by_oscillation(z, grid_size=args.grid, refine_tol=args.tol)
        report["oscillation"] = fileio.spectrum_to_dict(osc_spec)
    if args.method in ("dense", "both"):
        op = zp.assemble_finite(z) if z.flavor == "finite" else zp.assemble_periodic(z)
        dense_spec = zp.dense_spectrum(op)
        report["dense"] = fileio.spectrum_to_dict(dense_spec)
    if args.method == "both":
        _, discrepancy = _cyclic_pairing(dense_spec.expanded_thetas(), osc_spec.expanded_thetas())
        agree = len(dense_spec.thetas) == len(osc_spec.thetas)
        if agree:
            shift, _ = _cyclic_pairing(dense_spec.thetas, osc_spec.thetas)
            agree = np.array_equal(dense_spec.multiplicities, np.roll(osc_spec.multiplicities, -shift))
        report["comparison"] = {
            "max_eigenvalue_discrepancy": discrepancy,
            "multiplicities_agree": bool(agree),
        }
    _write_output(args.output, fileio.dumps(report))
    return EXIT_OK


def _cyclic_pairing(a: np.ndarray, b: np.ndarray):
    """(k, d): the shift k minimizing the largest circular distance d between a[i] and b[(i + k) % n]."""
    n = len(a)
    if n == 0:
        return 0, 0.0
    d = np.abs(a[:, None] - b[None, :]) % (2 * np.pi)
    d = np.minimum(d, 2 * np.pi - d)
    i = np.arange(n)
    worst = [d[i, (i + k) % n].max() for k in range(n)]
    k = int(np.argmin(worst))
    return k, float(worst[k])


def _parse_grid(spec: str) -> np.ndarray:
    try:
        re_part, im_part = spec.split(",")
        r0, r1, nr = re_part.split(":")
        i0, i1, ni = im_part.split(":")
        res = np.linspace(float(r0), float(r1), int(nr))
        ims = np.linspace(float(i0), float(i1), int(ni))
    except ValueError:
        raise ValidationError(
            f"bad grid spec {spec!r}; expected 're0:re1:nr,im0:im1:ni'") from None
    return (res[:, None] + 1j * ims[None, :]).ravel()


def cmd_weyl(args) -> int:
    z = fileio.load_document(args.input)
    if not isinstance(z, zp.Zipper) or z.flavor != "finite":
        raise ValidationError("weyl needs a finite zipper file")
    grid = _parse_grid(args.grid)
    bad = [w for w in grid if abs(w) >= 1.0 or w == 0]
    if bad:
        raise GridOutsideDiscError(
            f"{len(bad)} grid points outside the punctured unit disc, e.g. {bad[0]:.4f}")
    discs = weyl.radial_central(z, grid)
    _write_output(args.output, fileio.weyl_csv_rows(discs))
    return EXIT_OK


def cmd_measure(args) -> int:
    if args.uniform_grid:
        # quadrature helper for absolutely continuous measures: equispaced
        # atoms with equal weights, usable as input for to-zipper
        if args.L is None:
            raise ValidationError("--uniform-grid needs --L")
        doc = ms.uniform_grid_measure(args.L, args.uniform_grid)
    elif args.input is None:
        raise ValidationError("an input file is required unless --uniform-grid is given")
    else:
        doc = fileio.load_document(args.input)
    rng = np.random.default_rng(args.seed)
    sample_z = 0.9 * np.sqrt(rng.uniform(size=10)) * np.exp(2j * np.pi * rng.uniform(size=10))

    if args.direction == "to-measure":
        if isinstance(doc, ms.MatrixMeasure):
            mu = doc
        elif isinstance(doc, zp.Zipper) and doc.flavor == "finite":
            mu = ms.spectral_measure_finite(doc)
        else:
            raise ValidationError("to-measure needs a finite zipper file")
        _write_output(args.output, fileio.dumps(fileio.measure_to_dict(mu)))
        return EXIT_OK

    if args.direction == "to-zipper":
        if not isinstance(doc, ms.MatrixMeasure):
            raise ValidationError("to-zipper needs a measure file")
        rebuilt = ms.zipper_from_measure(doc, mc.eye(doc.L), args.n_max)
        rebuilt.zipper.extend(rebuilt.n_available)  # materialize for serialization
        out = fileio.zipper_to_dict(rebuilt.zipper)
        out["n_available"] = rebuilt.n_available
        if rebuilt.gram.stop_step is not None:
            out["stop_step"] = rebuilt.gram.stop_step
            out["stop_reason"] = rebuilt.gram.stop_reason
        _write_output(args.output, fileio.dumps(out))
        return EXIT_OK

    # roundtrip: zipper -> measure -> recursion data -> report
    if not isinstance(doc, zp.Zipper) or doc.flavor != "finite":
        raise ValidationError("roundtrip needs a finite zipper file")
    mu = ms.spectral_measure_finite(doc)
    rebuilt = ms.zipper_from_measure(mu, doc.boundary_u, doc.N + 2)
    alpha_err = 0.0
    for n in range(2, min(rebuilt.n_available, doc.N) + 1):
        alpha_err = max(alpha_err, float(np.abs(
            rebuilt.gram.entries[n].alpha - doc.blocks[n].alpha).max()))
    f_err = max(float(np.linalg.norm(ms.caratheodory(mu, w) - weyl.f_matrix(doc, w), 2))
                for w in sample_z)
    report = {
        "n_available": rebuilt.n_available,
        "max_alpha_error": alpha_err,
        "max_f_match_error": f_err,
        "stop_step": rebuilt.gram.stop_step,
        "stop_reason": rebuilt.gram.stop_reason,
    }
    _write_output(args.output, fileio.dumps(report))
    return EXIT_OK


def cmd_bands(args) -> int:
    z = fileio.load_document(args.input)
    if not isinstance(z, zp.Zipper) or z.flavor != "periodic":
        raise ValidationError("bands needs a periodic zipper file")
    bs = osc.bands(z, args.grid, refine_tol=args.tol)
    _write_output(args.output, fileio.bands_csv(bs))
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run(args.suite, args.seed)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(r.line())
    print(f"{len(results) - len(failed)} passed, {len(failed)} failed")
    return EXIT_VERIFY if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="scatzip",
        description="Scattering-zipper operators: spectra, Weyl discs, circle measures, bands.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a seeded random zipper JSON file")
    g.add_argument("--L", type=int, required=True, help="channel half-count")
    g.add_argument("--N", type=int, required=True, help="even site count (prefix length for semi-infinite)")
    g.add_argument("--flavor", choices=["finite", "periodic", "semi-infinite"], default="finite")
    g.add_argument("--ensemble", choices=list(ensembles.ENSEMBLES), default="haar-gauge",
                   help="free: alpha=0; cmv: random alpha, trivial gauges; haar-gauge: Haar gauges")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--alpha-max", type=float, default=ensembles.DEFAULT_ALPHA_MAX,
                   help="cap on the contraction singular values")
    g.add_argument("--output", default="-")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("spectrum", help="eigenvalues by oscillation theory and/or the dense oracle")
    s.add_argument("input")
    s.add_argument("--method", choices=["oscillation", "dense", "both"], default="both")
    s.add_argument("--grid", type=int, default=None, help="theta grid size (default 8 N L)")
    s.add_argument("--tol", type=float, default=1e-10, help="crossing refinement width in theta")
    s.add_argument("--output", default="-")
    s.set_defaults(func=cmd_spectrum)

    w = sub.add_parser("weyl", help="Weyl-disc sweep over a z-grid (CSV)")
    w.add_argument("input")
    w.add_argument("--grid", default="0.1:0.8:5,0.0:0.5:5",
                   help="cartesian grid 're0:re1:nr,im0:im1:ni' inside the punctured disc")
    w.add_argument("--output", default="-")
    w.set_defaults(func=cmd_weyl)

    m = sub.add_parser("measure", help="zipper <-> spectral measure conversions")
    m.add_argument("input", nargs="?", default=None,
                   help="zipper JSON (to-measure, roundtrip) or measure JSON (to-zipper)")
    m.add_argument("--direction", choices=["to-measure", "to-zipper", "roundtrip"],
                   default="roundtrip")
    m.add_argument("--n-max", type=int, default=64, help="recursion depth cap for to-zipper")
    m.add_argument("--seed", type=int, default=0, help="seed for the F-match sample points")
    m.add_argument("--uniform-grid", type=int, default=None, metavar="M",
                   help="use the M-point equal-weight quadrature of Lebesgue measure as input")
    m.add_argument("--L", type=int, default=None, help="channel count for --uniform-grid")
    m.add_argument("--output", default="-")
    m.set_defaults(func=cmd_measure)

    b = sub.add_parser("bands", help="Bloch-Floquet band structure of a periodic zipper (CSV)")
    b.add_argument("input")
    b.add_argument("--grid", type=int, default=64, help="momentum grid size")
    b.add_argument("--tol", type=float, default=1e-10, help="crossing refinement width in theta")
    b.add_argument("--output", default="-")
    b.set_defaults(func=cmd_bands)

    v = sub.add_parser("verify", help="run the module invariant suites")
    v.add_argument("--suite", default="all",
                   help="'all' or one of: " + ", ".join(sorted(verify.ALL_SUITES)))
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalBreakdownError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
