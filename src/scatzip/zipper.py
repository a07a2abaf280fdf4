"""Assembly of scattering-zipper operators.

A zipper couples N sites of C^L by alternating layers of scattering events:
the operator is the product of a block-diagonal layer carrying the even-index
blocks (sites (1,2), (3,4), ...) and a layer carrying the odd-index blocks
shifted by one site, closed off either by boundary unitaries U, V (finite
flavor) or by wrapping the block S_1 around the corner (periodic flavor).
The result is unitary and five-diagonal in L x L blocks.

Also provides the dense spectral oracle used to cross-check the
oscillation-theory solvers: eigenvalues of the unitary are obtained by
simultaneous diagonalization of the commuting Hermitian pair
H = (X + X*)/2 and K = (X - X*)/(2i).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import matrix_core as mc
from .errors import (
    CapExceededError,
    DimensionMismatchError,
    MissingBlockError,
    MissingS1Error,
    NotUnitaryError,
    OddNError,
    ValidationError,
)
from .scattering import ScatteringBlock, normal_form, phi

DENSE_CAP = 512  # largest N*L the dense routines will touch by default
TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Zipper:
    """A finite or periodic scattering zipper.

    Finite flavor: boundary unitaries U (site 1) and V (site N) plus blocks
    S_n for n = 2..N, where S_n couples sites (n-1, n).  Periodic flavor: no
    boundaries, blocks S_n for n = 1..N with S_1 wrapping sites (N, 1).
    """

    L: int
    N: int
    flavor: str
    blocks: dict = field(repr=False)
    boundary_u: Optional[np.ndarray] = field(default=None, repr=False)
    boundary_v: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.flavor not in ("finite", "periodic"):
            raise ValidationError(f"unknown flavor {self.flavor!r}")
        if self.N % 2 or self.N < 2:
            raise OddNError(f"N must be even and >= 2, got {self.N}")
        first = 2 if self.flavor == "finite" else 1
        for n in range(first, self.N + 1):
            if n not in self.blocks:
                if n == 1:
                    raise MissingS1Error("periodic zipper needs the corner block S_1")
                raise MissingBlockError(f"missing block S_{n}")
            if self.blocks[n].L != self.L:
                raise DimensionMismatchError(f"block S_{n} has L={self.blocks[n].L}, expected {self.L}")
        if self.flavor == "finite":
            for name, b in (("boundary_u", self.boundary_u), ("boundary_v", self.boundary_v)):
                if b is None:
                    raise ValidationError(f"finite zipper needs {name}")
                b = mc.as_cmatrix(b)
                if mc.unitary_defect(b) > 1e-9:
                    raise NotUnitaryError(f"{name} is not unitary")
                object.__setattr__(self, name, b)

    def block(self, n: int) -> ScatteringBlock:
        return self.blocks[n]

    def phi_table(self, upto: Optional[int] = None) -> np.ndarray:
        """The z-independent site transfers of sites 1, ..., upto (default N) as one stack.

        Row n - 1 holds site n: T_1 = diag(U, 1) for a finite zipper and
        phi(S_1) for a periodic one, phi(S_n) for n >= 2.  The table is
        built once per zipper object, in one batched ``phi`` call, and
        shared by every transfer factory, frame propagation and E-chain.
        """
        n = self.N if upto is None else upto
        if n > self.N:
            raise MissingBlockError(f"missing block S_{n}")
        return self._phis[:n]

    @cached_property
    def _phis(self) -> np.ndarray:
        first = 2 if self.flavor == "finite" else 1
        table = phi(np.stack([self.blocks[n].matrix for n in range(first, self.N + 1)]))
        if self.flavor == "finite":
            table = np.concatenate([_boundary_transfer(self.boundary_u)[None], table])
        return table

    def with_boundary_v(self, v) -> "Zipper":
        """Same zipper with the right boundary condition replaced."""
        if self.flavor != "finite":
            raise ValidationError("only finite zippers carry a right boundary")
        return Zipper(self.L, self.N, "finite", self.blocks, self.boundary_u, mc.as_cmatrix(v))


def _boundary_transfer(u: np.ndarray) -> np.ndarray:
    """T_1 = diag(U, 1), the first transfer, which carries the left boundary U."""
    zero = np.zeros_like(u)
    return mc.join_blocks(u, zero, zero, mc.eye(u.shape[0]))


class SemiInfiniteZipper:
    """Lazily generated half-infinite zipper: boundary U plus blocks S_n, n >= 2.

    ``block_fn(start, stop)`` returns the normal-form stacks (alpha, U, V),
    each (stop - start, L, L), of the sites start, ..., stop - 1.  It must
    be a pure function of the site index, so that a site does not depend on
    which ranges were requested before it.  The zipper stores the sites
    generated so far as one prefix S_2, ..., S_n, held as its phi table
    (``phi_table``, sites 1, ..., n, sized exactly): a request past the
    prefix draws the missing range with one ``block_fn`` call and maps it
    with one batched ``normal_form`` and ``phi``.  The (alpha, U, V) stacks
    are not kept, since only ``block(n)``, ``truncate`` and serialization
    need them; ``block(n)`` draws site n again and builds its
    ScatteringBlock on demand.  Growing the prefix holds a lock, so
    concurrent requests see one consistent table.
    """

    def __init__(self, L: int, boundary_u, block_fn: Callable[[int, int], tuple]):
        self.L = L
        self.boundary_u = mc.as_cmatrix(boundary_u)
        if mc.unitary_defect(self.boundary_u) > 1e-9:
            raise NotUnitaryError("boundary_u is not unitary")
        self._block_fn = block_fn
        self._phis = _boundary_transfer(self.boundary_u)[None]
        self._lock = threading.Lock()
        self.flavor = "semi-infinite"

    @property
    def stored_sites(self) -> range:
        """The sites of the stored prefix, 2, ..., n (empty before any is generated)."""
        return range(2, len(self._phis) + 1)

    def _draw(self, start: int, stop: int) -> list:
        stacks = [mc.as_cstack(x) for x in self._block_fn(start, stop)]
        if any(x.shape != (stop - start, self.L, self.L) for x in stacks):
            raise DimensionMismatchError(
                f"block_fn gave shapes {[x.shape for x in stacks]} for sites {start}..{stop - 1}")
        return stacks

    def extend(self, upto: int):
        """Generate the stored prefix up to site ``upto`` (a no-op if it is already there)."""
        with self._lock:
            stored = len(self._phis)
            if upto > stored:
                alpha, u, v = self._draw(stored + 1, upto + 1)
                phis = phi(mc.join_blocks(alpha, *normal_form(alpha, u, v)))
                self._phis = np.concatenate([self._phis, phis])

    def block(self, n: int) -> ScatteringBlock:
        """Block S_n; generates the prefix up to site n first if needed."""
        if n < 2:
            raise MissingBlockError("semi-infinite blocks start at n = 2")
        self.extend(n)
        return ScatteringBlock(*(x[0] for x in self._draw(n, n + 1)))

    def phi_table(self, upto: int) -> np.ndarray:
        """The site transfers of sites 1, ..., upto (see ``Zipper.phi_table``), T_1 = diag(U, 1)."""
        self.extend(upto)
        return self._phis[:upto]

    def truncate(self, N: int, boundary_v) -> Zipper:
        """Finite zipper made of the first N sites with right boundary V."""
        self.extend(N)
        return Zipper(self.L, N, "finite", block_dict(2, self._draw(2, N + 1)),
                      self.boundary_u, boundary_v)


def block_dict(first: int, stacks) -> dict:
    """{first + i: S(alpha_i, U_i, V_i)} from (alpha, U, V) stacks."""
    return {first + i: ScatteringBlock(*row) for i, row in enumerate(zip(*stacks))}


def stored_block_fn(blocks: dict, beyond: Callable[[int], Exception]):
    """A ``block_fn`` serving a stored prefix {2: S_2, ..., n: S_n} of blocks.

    A request past S_n raises ``beyond(m)`` with m the last site requested.
    """
    sites = sorted(blocks)
    if sites != list(range(2, len(sites) + 2)):
        raise MissingBlockError("stored semi-infinite blocks must be the prefix S_2, ..., S_n")
    stacks = [np.array([getattr(blocks[n], f) for n in sites], dtype=complex)
              for f in ("alpha", "u_gauge", "v_gauge")]

    def block_fn(start: int, stop: int):
        if stop - 2 > len(sites):
            raise beyond(stop - 1)
        return tuple(x[start - 2:stop - 2] for x in stacks)

    return block_fn


def direct_sum(z1: Zipper, z2: Zipper) -> Zipper:
    """Sitewise direct sum of two zippers of equal N and flavor."""
    if z1.N != z2.N or z1.flavor != z2.flavor:
        raise DimensionMismatchError("direct sum needs matching N and flavor")

    def dsum(a, b):
        out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
        out[: a.shape[0], : a.shape[1]] = a
        out[a.shape[0]:, a.shape[1]:] = b
        return out

    blocks = {
        n: ScatteringBlock(
            dsum(z1.blocks[n].alpha, z2.blocks[n].alpha),
            dsum(z1.blocks[n].u_gauge, z2.blocks[n].u_gauge),
            dsum(z1.blocks[n].v_gauge, z2.blocks[n].v_gauge),
        )
        for n in z1.blocks
    }
    if z1.flavor == "finite":
        return Zipper(z1.L + z2.L, z1.N, "finite", blocks,
                      dsum(z1.boundary_u, z2.boundary_u), dsum(z1.boundary_v, z2.boundary_v))
    return Zipper(z1.L + z2.L, z1.N, "periodic", blocks)


# -- block-banded operators --------------------------------------------------

@dataclass
class BlockBandedUnitary:
    """Unitary stored as L x L blocks indexed by 1-based (row_site, col_site).

    Finite operators have |row - col| <= 2; periodic ones additionally carry
    corner blocks wrapping around site N.
    """

    L: int
    N: int
    blocks: dict
    periodic: bool = False

    @property
    def dim(self) -> int:
        return self.L * self.N

    def to_dense(self) -> np.ndarray:
        M = np.zeros((self.dim, self.dim), dtype=complex)
        L = self.L
        for (i, j), b in self.blocks.items():
            M[(i - 1) * L: i * L, (j - 1) * L: j * L] = b
        return M

    def block_bandwidth(self) -> int:
        """Largest |row - col| distance (cyclic for periodic operators)."""
        width = 0
        for (i, j) in self.blocks:
            d = abs(i - j)
            if self.periodic:
                d = min(d, self.N - d)
            width = max(width, d)
        return width


def _block_dict_product(P: dict, Q: dict) -> dict:
    """Product of two operators given as {(i, j): block} dicts."""
    by_row: dict[int, list] = {}
    for (i, k), b in P.items():
        by_row.setdefault(i, []).append((k, b))
    cols: dict[int, list] = {}
    for (k, j), b in Q.items():
        cols.setdefault(k, []).append((j, b))
    out: dict = {}
    for i, row in by_row.items():
        for k, bik in row:
            for j, bkj in cols.get(k, ()):
                key = (i, j)
                prod = bik @ bkj
                if key in out:
                    out[key] = out[key] + prod
                else:
                    out[key] = prod
    # drop blocks that are identically zero to keep the band structure clean
    return {k: v for k, v in out.items() if np.any(np.abs(v) > 1e-14)}


def _place(blocks: dict, i: int, S: ScatteringBlock):
    """Put the four L x L blocks of S on the site pair (i, i + 1)."""
    blocks[(i, i)] = S.alpha
    blocks[(i, i + 1)] = S.beta
    blocks[(i + 1, i)] = S.gamma
    blocks[(i + 1, i + 1)] = S.delta


def _even_layer(zipper: Zipper) -> dict:
    """Block-diagonal layer of S_2, S_4, ..., S_N on site pairs (1,2),...,(N-1,N)."""
    blocks = {}
    for n in range(2, zipper.N + 1, 2):
        _place(blocks, n - 1, zipper.blocks[n])
    return blocks


def _odd_layer_finite(zipper: Zipper) -> dict:
    """Layer with U at site 1, S_3, ..., S_{N-1} shifted by one site, V at site N."""
    blocks = {(1, 1): zipper.boundary_u, (zipper.N, zipper.N): zipper.boundary_v}
    for n in range(3, zipper.N, 2):
        _place(blocks, n - 1, zipper.blocks[n])
    return blocks


def _odd_layer_periodic(zipper: Zipper) -> dict:
    """Like the finite odd layer but with S_1 wrapped around the corner."""
    S1 = zipper.blocks[1]
    N = zipper.N
    blocks = {(1, 1): S1.delta, (1, N): S1.gamma, (N, 1): S1.beta, (N, N): S1.alpha}
    for n in range(3, N, 2):
        _place(blocks, n - 1, zipper.blocks[n])
    return blocks


def assemble_finite(zipper: Zipper) -> BlockBandedUnitary:
    """Product of the even layer and the boundary-closed odd layer."""
    if zipper.flavor != "finite":
        raise ValidationError("assemble_finite needs a finite zipper")
    prod = _block_dict_product(_even_layer(zipper), _odd_layer_finite(zipper))
    return BlockBandedUnitary(zipper.L, zipper.N, prod, periodic=False)


def assemble_periodic(zipper: Zipper) -> BlockBandedUnitary:
    """Product of the even layer and the corner-wrapped odd layer."""
    if zipper.flavor != "periodic":
        raise ValidationError("assemble_periodic needs a periodic zipper")
    if 1 not in zipper.blocks:
        raise MissingS1Error("periodic zipper needs S_1")
    prod = _block_dict_product(_even_layer(zipper), _odd_layer_periodic(zipper))
    return BlockBandedUnitary(zipper.L, zipper.N, prod, periodic=True)


def fiber_zipper(zipper: Zipper, k: float) -> Zipper:
    """The periodic zipper whose assembly is the Bloch-Floquet fiber at momentum k.

    Each block gets its beta scaled by exp(-ik) and gamma by exp(+ik), which
    is the gauge twist (U, V) -> (exp(-ik) U, exp(ik) V); at k = 0 this is the
    plain periodic zipper.
    """
    if zipper.flavor != "periodic":
        raise ValidationError("fibering applies to periodic zippers")
    phase = np.exp(1j * float(k))
    twisted = {n: b.gauge_twisted(phase) for n, b in zipper.blocks.items()}
    return Zipper(zipper.L, zipper.N, "periodic", twisted)


def fiber(zipper: Zipper, k: float) -> BlockBandedUnitary:
    """Bloch-Floquet fiber at momentum k of a periodic zipper (see fiber_zipper)."""
    return assemble_periodic(fiber_zipper(zipper, k))


def apply(op: BlockBandedUnitary, vec: np.ndarray) -> np.ndarray:
    """Matrix-vector (or matrix-block) product using only the stored blocks."""
    vec = np.asarray(vec, dtype=complex)
    flat = vec.ndim == 1
    if flat:
        vec = vec.reshape(-1, 1)
    if vec.shape[0] != op.dim:
        raise DimensionMismatchError(f"vector length {vec.shape[0]} != {op.dim}")
    out = np.zeros_like(vec)
    L = op.L
    for (i, j), b in op.blocks.items():
        out[(i - 1) * L: i * L] += b @ vec[(j - 1) * L: j * L]
    return out.ravel() if flat else out


# -- dense spectral oracle ----------------------------------------------------

@dataclass
class SpectrumResult:
    """Unit-circle eigenvalues with multiplicities (theta sorted in [0, 2pi))."""

    thetas: np.ndarray
    multiplicities: np.ndarray

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.exp(1j * self.thetas)

    @property
    def total_multiplicity(self) -> int:
        return int(self.multiplicities.sum())

    def expanded_thetas(self) -> np.ndarray:
        """All eigenphases repeated by multiplicity, sorted."""
        return np.sort(np.repeat(self.thetas, self.multiplicities))


def _fold(thetas) -> np.ndarray:
    """Phases reduced to [0, 2 pi); 2 pi itself, the reduction of a tiny negative angle, goes to 0."""
    t = np.mod(np.asarray(thetas, dtype=float), TWO_PI)
    return np.where(t < TWO_PI, t, 0.0)


def _cluster_sorted(values: np.ndarray, tol: float) -> list:
    """Group indices of sorted real values into clusters with gaps <= tol."""
    groups = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tol:
            groups.append(list(range(start, i)))
            start = i
    return groups


def _circular_clusters(thetas, window: float):
    """Cluster phases on the circle into eigenvalues with multiplicities.

    Neighbouring phases within ``window`` of each other, also across the
    0 / 2 pi seam, form one eigenvalue at their circular mean.  Returns the
    SpectrumResult and, per eigenvalue, the indices of its input phases.
    """
    t = _fold(thetas)
    order = np.argsort(t)
    groups = _cluster_sorted(t[order], window)
    if len(groups) > 1 and t[order[0]] + TWO_PI - t[order[-1]] <= window:
        groups[0] = groups.pop() + groups[0]
    groups = [order[g] for g in groups]
    centers = _fold([np.angle(np.mean(np.exp(1j * t[g]))) for g in groups])
    rank = np.argsort(centers)
    mults = np.array([len(groups[i]) for i in rank], dtype=int)
    return SpectrumResult(centers[rank], mults), [groups[i] for i in rank]


def eig_unitary(U: np.ndarray):
    """Eigen-decomposition of a (numerically) unitary matrix.

    Diagonalizes H = (U + U*)/2 by eigh, then the compression of
    K = (U - U*)/(2i) inside each H-eigenspace; eigenvalues are recombined as
    Rayleigh quotients h + i k, which puts them on the unit circle to
    roundoff.  Returns (eigenvalues, orthonormal eigenvector matrix).
    """
    U = mc.as_cmatrix(U)
    H = mc.hermitize(0.5 * (U + mc.adj(U)))
    K = mc.hermitize((U - mc.adj(U)) / 2j)
    hw, hv = np.linalg.eigh(H)
    vectors = np.zeros_like(hv)
    # group nearby h eigenvalues conservatively; K separates conjugate pairs
    for group in _cluster_sorted(hw, 1e-8):
        Q = hv[:, group]
        _, kv = np.linalg.eigh(mc.hermitize(mc.adj(Q) @ K @ Q))
        vectors[:, group] = Q @ kv
    hh = np.einsum("ij,ij->j", vectors.conj(), H @ vectors).real
    kk = np.einsum("ij,ij->j", vectors.conj(), K @ vectors).real
    return hh + 1j * kk, vectors


def dense_spectrum(op: BlockBandedUnitary, cap: int = DENSE_CAP,
                   tol_cluster: float = 1e-7, want_projections: bool = False):
    """Full spectrum of the assembled unitary via the Hermitian-pair oracle.

    With ``want_projections`` also returns, per distinct eigenvalue, the list
    of orthonormal eigenvectors (as columns), for spectral-projection use.
    """
    if op.dim > cap:
        raise CapExceededError(f"dim {op.dim} exceeds dense cap {cap}")
    lam, vectors = eig_unitary(op.to_dense())
    result, groups = _circular_clusters(np.angle(lam), tol_cluster)
    if want_projections:
        return result, [vectors[:, g] for g in groups]
    return result
