"""Seeded random zipper instances.

Every generator is a pure function of a 64-bit seed (and, for semi-infinite
zippers, the site index), so instances are replayable across runs and safe to
evaluate concurrently.  Ensembles:

    free        alpha = 0, trivial gauges (the shift-like reference case)
    cmv         random contraction alpha, trivial gauges and boundaries
    haar-gauge  random contraction alpha, Haar-distributed gauges/boundaries

Contractions are drawn with singular values uniform in [0, alpha_max); the
default cap keeps the events comfortably effective.
"""

from __future__ import annotations

import numpy as np

from . import matrix_core as mc
from .errors import OddNError, ValidationError
from .scattering import ScatteringBlock
from .zipper import SemiInfiniteZipper, Zipper, block_dict

ENSEMBLES = ("free", "cmv", "haar-gauge")
DEFAULT_ALPHA_MAX = 0.85


def _gaussian(rng: np.random.Generator, L: int) -> np.ndarray:
    return rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))


def _haar(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from complex Gaussian matrices (the last two axes) by phase-fixed QR."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_unitary(rng: np.random.Generator, L: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a complex Gaussian."""
    return _haar(_gaussian(rng, L))


def random_contraction(rng: np.random.Generator, L: int, alpha_max: float) -> np.ndarray:
    """Strict contraction with singular values uniform in [0, alpha_max)."""
    return random_blocks([rng], L, "cmv", alpha_max)[0][0]


def random_blocks(rngs, L: int, ensemble: str, alpha_max: float = DEFAULT_ALPHA_MAX):
    """Normal-form stacks (alpha, U, V), each (n, L, L), of one random block per generator.

    The generators are drawn from in order, each for one whole block, so
    row i is exactly the block ``random_block(rngs[i], ...)`` would give
    with the generators in the same state; passing one generator n times
    draws n consecutive blocks.  ``rngs`` may be any iterable; it is read
    once, so a generator expression keeps one generator alive at a time.
    Only the draws run per site; the Haar QRs and the contractions of all
    rows are batched.
    """
    if ensemble not in ENSEMBLES:
        raise ValidationError(f"unknown ensemble {ensemble!r}; choose from {ENSEMBLES}")
    if ensemble == "free":  # draws nothing
        one = np.repeat(mc.eye(L)[None], sum(1 for _ in rngs), axis=0)
        return np.zeros_like(one), one, one
    # per site: the contraction's uniforms (radius and phase at L = 1, the
    # singular values otherwise) and Gaussians of its two Haar factors
    # (L > 1), then the Gaussians of the two haar-gauge gauges
    m = (2 if L > 1 else 0) + (2 if ensemble == "haar-gauge" else 0)
    uniforms, gaussians = [], []
    for rng in rngs:
        uniforms.append(rng.uniform(size=L if L > 1 else 2))
        gaussians.append([_gaussian(rng, L) for _ in range(m)])
    uniforms = np.array(uniforms)
    factors = _haar(np.array(gaussians, dtype=complex).reshape(len(uniforms), m, L, L))
    if L == 1:  # uniform in the disc of radius alpha_max
        r = alpha_max * np.sqrt(uniforms[:, 0])
        alpha = (r * np.exp(2j * np.pi * uniforms[:, 1])).reshape(-1, 1, 1)
    else:
        s = np.zeros((len(uniforms), L, L), dtype=complex)
        s[:, np.arange(L), np.arange(L)] = alpha_max * uniforms
        alpha = factors[:, 0] @ s @ factors[:, 1]
    if ensemble == "cmv":
        one = np.repeat(mc.eye(L)[None], len(alpha), axis=0)
        return alpha, one, one
    return alpha, factors[:, -2], factors[:, -1]


def random_block(rng: np.random.Generator, L: int, ensemble: str,
                 alpha_max: float = DEFAULT_ALPHA_MAX) -> ScatteringBlock:
    return ScatteringBlock(*(x[0] for x in random_blocks([rng], L, ensemble, alpha_max)))


def _boundary(rng: np.random.Generator, L: int, ensemble: str) -> np.ndarray:
    return random_unitary(rng, L) if ensemble == "haar-gauge" else mc.eye(L)


def finite_zipper(seed: int, L: int, N: int, ensemble: str = "haar-gauge",
                  alpha_max: float = DEFAULT_ALPHA_MAX) -> Zipper:
    """Seeded finite zipper: boundaries U, V and blocks S_2, ..., S_N."""
    if N % 2 or N < 2:
        raise OddNError(f"N must be even and >= 2, got {N}")
    rng = np.random.default_rng(seed)
    u = _boundary(rng, L, ensemble)
    v = _boundary(rng, L, ensemble)
    blocks = block_dict(2, random_blocks([rng] * (N - 1), L, ensemble, alpha_max))
    return Zipper(L, N, "finite", blocks, u, v)


def periodic_zipper(seed: int, L: int, N: int, ensemble: str = "haar-gauge",
                    alpha_max: float = DEFAULT_ALPHA_MAX) -> Zipper:
    """Seeded periodic zipper: blocks S_1, ..., S_N with S_1 around the corner."""
    if N % 2 or N < 2:
        raise OddNError(f"N must be even and >= 2, got {N}")
    rng = np.random.default_rng(seed)
    blocks = block_dict(1, random_blocks([rng] * N, L, ensemble, alpha_max))
    return Zipper(L, N, "periodic", blocks)


def semi_infinite_zipper(seed: int, L: int, ensemble: str = "cmv",
                         alpha_max: float = DEFAULT_ALPHA_MAX) -> SemiInfiniteZipper:
    """Seeded half-infinite zipper; block n is a pure function of (seed, n).

    Site n draws its block from its own generator ``default_rng([seed, n])``
    (the boundary U from ``default_rng([seed, 1])``), so a range of sites is
    drawn in one ``random_blocks`` call and gives the same blocks in any
    order of requests.
    """
    boundary_rng = np.random.default_rng([int(seed), 1])
    u = _boundary(boundary_rng, L, ensemble)

    def block_fn(start: int, stop: int):
        rngs = (np.random.default_rng([int(seed), n]) for n in range(start, stop))
        return random_blocks(rngs, L, ensemble, alpha_max)

    return SemiInfiniteZipper(L, u, block_fn)
