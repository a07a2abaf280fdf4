"""JSON and CSV interchange formats.

Complex matrices are serialized as nested arrays of [re, im] pairs.  A zipper
document carries {L, N, flavor, boundary_U, boundary_V, blocks:[{n, alpha, u,
v}]} with the boundaries present only for the flavors that have them; a
measure document carries {L, atoms:[{xi, weight}]}.  Serialization is
byte-deterministic (sorted keys, fixed float formatting) so identical inputs
produce identical files.
"""

from __future__ import annotations

import json

import numpy as np

from . import matrix_core as mc
from .errors import ParseError
from .measures import MatrixMeasure
from .scattering import ScatteringBlock
from .zipper import SemiInfiniteZipper, Zipper, stored_block_fn


def complex_matrix_to_json(m) -> list:
    m = mc.as_cmatrix(m)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def complex_matrix_from_json(obj) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise ValueError(f"expected [re, im] pair entries, got shape {arr.shape}")
        return arr[..., 0] + 1j * arr[..., 1]
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad complex matrix: {exc}") from None


def zipper_to_dict(zipper) -> dict:
    if isinstance(zipper, SemiInfiniteZipper):
        stored = zipper.stored_sites
        doc = {
            "L": zipper.L,
            "N": stored[-1] if stored else 0,
            "flavor": "semi-infinite",
            "boundary_U": complex_matrix_to_json(zipper.boundary_u),
            "blocks": [_block_to_dict(n, zipper.block(n)) for n in stored],
        }
        return doc
    doc = {
        "L": zipper.L,
        "N": zipper.N,
        "flavor": zipper.flavor,
        "blocks": [_block_to_dict(n, b) for n, b in sorted(zipper.blocks.items())],
    }
    if zipper.flavor == "finite":
        doc["boundary_U"] = complex_matrix_to_json(zipper.boundary_u)
        doc["boundary_V"] = complex_matrix_to_json(zipper.boundary_v)
    return doc


def _block_to_dict(n: int, block: ScatteringBlock) -> dict:
    return {
        "n": int(n),
        "alpha": complex_matrix_to_json(block.alpha),
        "u": complex_matrix_to_json(block.u_gauge),
        "v": complex_matrix_to_json(block.v_gauge),
    }


def zipper_from_dict(doc: dict):
    try:
        L = int(doc["L"])
        flavor = doc["flavor"]
        blocks = {
            int(b["n"]): ScatteringBlock(
                complex_matrix_from_json(b["alpha"]),
                complex_matrix_from_json(b["u"]),
                complex_matrix_from_json(b["v"]),
            )
            for b in doc["blocks"]
        }
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed zipper document: {exc}") from None
    if flavor == "finite":
        return Zipper(L, int(doc["N"]), "finite", blocks,
                      complex_matrix_from_json(doc["boundary_U"]),
                      complex_matrix_from_json(doc["boundary_V"]))
    if flavor == "periodic":
        return Zipper(L, int(doc["N"]), "periodic", blocks)
    if flavor == "semi-infinite":
        u = complex_matrix_from_json(doc["boundary_U"])
        block_fn = stored_block_fn(blocks, lambda n: ParseError(f"block S_{n} is beyond the stored prefix"))
        z = SemiInfiniteZipper(L, u, block_fn)
        z.extend(len(blocks) + 1)  # the stored prefix is materialized, as when it was written
        return z
    raise ParseError(f"unknown flavor {flavor!r}")


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
    except (KeyError, TypeError, IndexError) as exc:
        raise ParseError(f"malformed measure document: {exc}") from None
    return MatrixMeasure(atoms, weights)


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None


def load_document(path: str):
    """Load a zipper or a measure file, sniffing by its keys."""
    doc = load_json(path)
    if "blocks" in doc:
        return zipper_from_dict(doc)
    if "atoms" in doc:
        return measure_from_dict(doc)
    raise ParseError(f"{path}: neither a zipper nor a measure document")


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
