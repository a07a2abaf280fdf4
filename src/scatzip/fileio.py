"""JSON and CSV interchange formats.

Complex matrices are serialized as nested arrays of [re, im] pairs.  A zipper
document carries {L, N, flavor, boundary_U, boundary_V, blocks:[{n, alpha, u,
v}]} with the boundaries present only for the flavors that have them and one
block for each n = first, ..., N (first = 1 for a periodic zipper, else 2); a
measure document carries {L, atoms:[{xi, weight}]}.  Serialization is
byte-deterministic (sorted keys, fixed float formatting) so identical inputs
produce identical files.
"""

from __future__ import annotations

import json

import numpy as np

from . import matrix_core as mc
from .errors import ValidationError
from .measures import MatrixMeasure
from .zipper import SemiInfiniteZipper, Zipper, site_stacks, stored_block_fn


def complex_matrix_to_json(m) -> list:
    m = mc.as_cmatrix(m)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def complex_matrix_from_json(obj) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"bad complex matrix: {exc}") from None
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValidationError(f"bad complex matrix: expected [re, im] pair entries, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def zipper_to_dict(zipper) -> dict:
    if isinstance(zipper, SemiInfiniteZipper):
        stored = zipper.stored_sites
        N = stored[-1] if stored else 0
    else:
        N = zipper.N
    doc = {
        "L": zipper.L,
        "N": N,
        "flavor": zipper.flavor,
        "blocks": [{"n": n,
                    "alpha": complex_matrix_to_json(alpha),
                    "u": complex_matrix_to_json(u),
                    "v": complex_matrix_to_json(v)}
                   for n, alpha, u, v in zip(range(zipper.first, N + 1), *zipper.sites)],
    }
    if zipper.flavor != "periodic":
        doc["boundary_U"] = complex_matrix_to_json(zipper.boundary_u)
    if zipper.flavor == "finite":
        doc["boundary_V"] = complex_matrix_to_json(zipper.boundary_v)
    return doc


_FIRST_BLOCK = {"finite": 2, "periodic": 1, "semi-infinite": 2}
# Largest ||g* g - 1||_2 of a stored gauge; those that to-zipper recovers are unitary to ~1e-8.
GAUGE_TOL = 1e-6


def zipper_from_dict(doc: dict):
    try:
        L, N, flavor = int(doc["L"]), int(doc["N"]), doc["flavor"]
        rows = [(int(b["n"]), [complex_matrix_from_json(b[k]) for k in ("alpha", "u", "v")])
                for b in doc["blocks"]]
        u = complex_matrix_from_json(doc["boundary_U"]) if flavor in ("finite", "semi-infinite") else None
        v = complex_matrix_from_json(doc["boundary_V"]) if flavor == "finite" else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed zipper document: {exc}") from None
    if flavor not in _FIRST_BLOCK:
        raise ValidationError(f"unknown flavor {flavor!r}")
    sites = _site_stacks(rows, _FIRST_BLOCK[flavor], N, L)
    if flavor == "semi-infinite":
        z = SemiInfiniteZipper(L, u, stored_block_fn(sites, "the stored prefix"))
        z.extend(N)  # the stored prefix is materialized, as when it was written
        return z
    return Zipper(L, N, flavor, sites, u, v)


def _site_stacks(rows, first: int, N: int, L: int) -> tuple:
    """The (alpha, U, V) stacks of the blocks S_first, ..., S_N, each given exactly once,
    with unitary gauges (to GAUGE_TOL) and ||alpha|| < 1."""
    by_site = {}
    for n, (alpha, u, v) in rows:
        if n in by_site:
            raise ValidationError(f"block S_{n} is given twice")
        if not first <= n <= N:
            raise ValidationError(f"block S_{n} is not one of S_{first}, ..., S_{N}")
        if not alpha.shape == u.shape == v.shape == alpha.shape[::-1]:
            raise ValidationError("alpha, u_gauge, v_gauge must share the same L x L shape")
        if alpha.shape != (L, L):
            raise ValidationError(f"block S_{n} has L={alpha.shape[0]}, expected {L}")
        by_site[n] = (alpha, u, v)
    for n in range(first, N + 1):
        if n not in by_site:
            raise ValidationError(f"missing block S_{n}")
    alpha, u, v = (mc.as_cstack(x) for x in site_stacks([by_site[n] for n in range(first, N + 1)], L))
    defects = [(name, np.linalg.norm(mc.adj(g) @ g - mc.eye(L), 2, axis=(-2, -1))) for name, g in (("u", u), ("v", v))]
    norms = np.linalg.norm(alpha, 2, axis=(-2, -1))
    for i, n in enumerate(range(first, N + 1)):
        for name, defect in defects:
            if not defect[i] <= GAUGE_TOL:
                raise ValidationError(f"block S_{n}: {name} has unitarity defect {defect[i]:.1e}")
        if not norms[i] < 1.0:
            raise ValidationError(f"block S_{n}: ||alpha|| = {norms[i]:.3f} is not < 1")
    return alpha, u, v


def measure_to_dict(mu: MatrixMeasure) -> dict:
    return {
        "L": mu.L,
        "atoms": [
            {"xi": [float(x.real), float(x.imag)],
             "weight": complex_matrix_to_json(W)}
            for x, W in zip(mu.atoms, mu.weights)
        ],
    }


def measure_from_dict(doc: dict) -> MatrixMeasure:
    try:
        atoms = np.array([a["xi"][0] + 1j * a["xi"][1] for a in doc["atoms"]])
        weights = np.array([complex_matrix_from_json(a["weight"]) for a in doc["atoms"]])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValidationError(f"malformed measure document: {exc}") from None
    return MatrixMeasure(atoms, weights)


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None


def load_document(path: str):
    """Load a zipper or a measure file, sniffing by its keys."""
    doc = load_json(path)
    if "blocks" in doc:
        return zipper_from_dict(doc)
    if "atoms" in doc:
        return measure_from_dict(doc)
    raise ValidationError(f"{path}: neither a zipper nor a measure document")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def weyl_csv_rows(results) -> str:
    """CSV for a Weyl-disc sweep: one row per z with radii, the bound, center and identity defect."""
    lines = []
    for disc in results:
        L = disc.center.shape[0]
        if not lines:
            head = ["re_z", "im_z", "N", "norm_R", "norm_R_reflected", "bound"]
            head += [f"center_{p}_{i}_{j}" for i in range(L) for j in range(L) for p in ("re", "im")]
            head.append("identity_defect")
            lines.append(",".join(head))
        nl, nr = disc.radius_norms()
        row = [_fmt(disc.z.real), _fmt(disc.z.imag), str(disc.n),
               _fmt(nl), _fmt(nr), _fmt(disc.radius_bound())]
        for i in range(L):
            for j in range(L):
                row += [_fmt(disc.center[i, j].real), _fmt(disc.center[i, j].imag)]
        row.append(_fmt(disc.identity_defect))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def bands_csv(band_structure) -> str:
    """CSV with one row per momentum: k followed by all N L eigenphases."""
    table = band_structure.eigenphase_table()
    head = ["k"] + [f"eigenphase_{i + 1}" for i in range(table.shape[1])]
    lines = [",".join(head)]
    for k, row in zip(band_structure.ks, table):
        lines.append(",".join([_fmt(k)] + [_fmt(t) for t in row]))
    return "\n".join(lines) + "\n"


def spectrum_to_dict(spec) -> list:
    return [{"theta": float(t), "multiplicity": int(m)}
            for t, m in zip(spec.thetas, spec.multiplicities)]
