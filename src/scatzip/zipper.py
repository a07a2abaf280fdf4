"""Assembly of scattering-zipper operators.

A zipper couples N sites of C^L by alternating layers of scattering events:
the operator is the product of a block-diagonal layer carrying the even-index
blocks (sites (1,2), (3,4), ...) and a layer carrying the odd-index blocks
shifted by one site, closed off either by boundary unitaries U, V (finite
flavor) or by wrapping the block S_1 around the corner (periodic flavor).
The result is unitary and five-diagonal in L x L blocks, and is stored as
one band stack: the rows of each site pair (2p+1, 2p+2) against the four
sites 2p, ..., 2p+3, made for all pairs by two stacked block products.

A zipper holds its blocks S_n = S(alpha_n, U_n, V_n) as one site table: an
(alpha, U, V) triple of (n, L, L) stacks and one (n, 2L, 2L) stack of the
block matrices, from which the layers, the phi table and the Bloch-Floquet
twists are read.  A ScatteringBlock is built only when ``block(n)`` asks
for one.

The band stack alone also gives eigenvalue counts on arcs (``arc_counts``)
and the shifted solves of inverse iteration (``shifted_solve``): both are
one streamed LDL* of a Hermitian part of the operator, block tridiagonal in
the superblocks of the band rows (``_eliminate``).

Also provides the dense spectral oracle used to cross-check the
oscillation-theory solvers: eigenvalues of the unitary are obtained by
simultaneous diagonalization of the commuting Hermitian pair
H = (X + X*)/2 and K = (X - X*)/(2i).
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import matrix_core as mc
from .errors import NumericalBreakdownError, ValidationError
from .scattering import ScatteringBlock, normal_form, phi

DENSE_CAP = 512  # largest N*L the dense routines will touch by default
DENSE_CLUSTER_TOL = 1e-7  # eigenphases of dense_spectrum closer than this are one eigenvalue
TWO_PI = 2.0 * np.pi
# Smallest |scalar pivot| of its LDL* that ``arc_counts`` reads as a sign.
PIVOT_TOL = 1e-14
# Most factor entries one ``shifted_solve`` pass keeps for its back substitution.
SOLVE_BLOCK = 2 ** 21
# Most entries of the diagonal and coupling blocks ``_eliminate`` builds at once.
STREAM_BLOCK = 2 ** 16


@dataclass(frozen=True)
class Zipper:
    """A finite or periodic scattering zipper.

    Finite flavor: boundary unitaries U (site 1) and V (site N) plus blocks
    S_n for n = 2..N, where S_n couples sites (n-1, n).  Periodic flavor: no
    boundaries, blocks S_n for n = 1..N with S_1 wrapping sites (N, 1).

    ``sites`` holds the blocks S_first, ..., S_N as one normal-form triple
    (alpha, U, V) of (N - first + 1, L, L) stacks; ``matrices`` holds their
    2L x 2L matrices as one stack, built at construction by one batched
    ``normal_form``.  ``block(n)`` builds the ScatteringBlock of one site
    from its row on request, with its own normal form.
    """

    L: int
    N: int
    flavor: str
    sites: tuple = field(repr=False)
    boundary_u: Optional[np.ndarray] = field(default=None, repr=False)
    boundary_v: Optional[np.ndarray] = field(default=None, repr=False)
    matrices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.flavor not in ("finite", "periodic"):
            raise ValidationError(f"unknown flavor {self.flavor!r}")
        if self.N % 2 or self.N < 2:
            raise ValidationError(f"N must be even and >= 2, got {self.N}")
        shape = (self.N - self.first + 1, self.L, self.L)
        sites = tuple(mc.as_cstack(x) for x in self.sites)
        if len(sites) != 3 or any(x.shape != shape for x in sites):
            raise ValidationError(
                f"sites must be three {shape} stacks (alpha, U, V), got {[x.shape for x in sites]}")
        if self.flavor == "finite":
            for name, b in (("boundary_u", self.boundary_u), ("boundary_v", self.boundary_v)):
                if b is None:
                    raise ValidationError(f"finite zipper needs {name}")
                object.__setattr__(self, name, _boundary_unitary(name, b, self.L))
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "matrices", mc.join_blocks(sites[0], *normal_form(*sites)))

    @property
    def first(self) -> int:
        """Index of the first block: 2 for a finite zipper, 1 for a periodic one."""
        return 2 if self.flavor == "finite" else 1

    def block(self, n: int) -> ScatteringBlock:
        """Block S_n, built from row n - first of ``sites``."""
        if not self.first <= n <= self.N:
            raise ValidationError(f"missing block S_{n}")
        return ScatteringBlock(*(x[n - self.first] for x in self.sites))

    def phi_table(self, upto: Optional[int] = None) -> np.ndarray:
        """The z-independent site transfers of sites 1, ..., upto (default N) as one stack.

        Row n - 1 holds site n: T_1 = diag(U, 1) for a finite zipper and
        phi(S_1) for a periodic one, phi(S_n) for n >= 2.  The table is
        built once per zipper object, in one batched ``phi`` call on
        ``matrices``, and read by the frame propagation, the Pruefer chains
        and the E-chain unless a ``factory=`` object serves one in its place.
        """
        n = self.N if upto is None else upto
        _check_site_count(n)
        if n > self.N:
            raise ValidationError(f"missing block S_{n}")
        return self._phis[:n]

    @cached_property
    def _phis(self) -> np.ndarray:
        table = phi(self.matrices)
        if self.flavor == "finite":
            table = np.concatenate([_boundary_transfer(self.boundary_u)[None], table])
        return table


def _boundary_unitary(name: str, b, L: int) -> np.ndarray:
    """The boundary ``b`` as an L x L unitary matrix."""
    b = mc.as_cmatrix(b)
    if b.shape != (L, L):
        raise ValidationError(f"{name} has shape {b.shape}, expected ({L}, {L})")
    if mc.unitary_defect(b) > 1e-9:
        raise ValidationError(f"{name} is not unitary")
    return b


def _check_site_count(n: int):
    if n < 1:
        raise ValidationError(f"the site count must be >= 1, got {n}")


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
    are not kept: ``sites`` and ``truncate`` draw the stored range again in
    one call, and ``block(n)`` draws site n and builds its ScatteringBlock.
    Growing the prefix holds a lock, so concurrent requests see one
    consistent table.
    """

    first = 2

    def __init__(self, L: int, boundary_u, block_fn: Callable[[int, int], tuple]):
        self.L = L
        self.boundary_u = _boundary_unitary("boundary_u", boundary_u, L)
        self._block_fn = block_fn
        self._phis = _boundary_transfer(self.boundary_u)[None]
        self._lock = threading.Lock()
        self.flavor = "semi-infinite"

    @property
    def stored_sites(self) -> range:
        """The sites of the stored prefix, 2, ..., n (empty before any is generated)."""
        return range(2, len(self._phis) + 1)

    @property
    def sites(self) -> tuple:
        """The (alpha, U, V) stacks of the stored sites 2, ..., n, drawn in one ``block_fn`` call."""
        return self._draw(2, len(self._phis) + 1)

    def _draw(self, start: int, stop: int) -> tuple:
        if stop <= start:
            return site_stacks([], self.L)
        stacks = tuple(mc.as_cstack(x) for x in self._block_fn(start, stop))
        if any(x.shape != (stop - start, self.L, self.L) for x in stacks):
            raise ValidationError(
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
            raise ValidationError("semi-infinite blocks start at n = 2")
        self.extend(n)
        return ScatteringBlock(*(x[0] for x in self._draw(n, n + 1)))

    def phi_table(self, upto: int) -> np.ndarray:
        """The site transfers of sites 1, ..., upto (see ``Zipper.phi_table``), T_1 = diag(U, 1)."""
        _check_site_count(upto)
        self.extend(upto)
        return self._phis[:upto]

    def truncate(self, N: int, boundary_v) -> Zipper:
        """Finite zipper made of the first N sites with right boundary V."""
        self.extend(N)
        return Zipper(self.L, N, "finite", self._draw(2, N + 1), self.boundary_u, boundary_v)


def site_stacks(rows, L: int) -> tuple:
    """The (alpha, U, V) stacks, each (len(rows), L, L), of a list of (alpha, U, V) rows."""
    return tuple(np.array([row[i] for row in rows], dtype=complex).reshape(-1, L, L)
                 for i in range(3))


def stored_block_fn(sites: tuple, beyond: str):
    """A ``block_fn`` serving stored (alpha, U, V) stacks of the sites 2, ..., n.

    A request past S_n raises "block S_m is beyond <beyond>", m the last site requested.
    """
    def block_fn(start: int, stop: int):
        if stop - 2 > len(sites[0]):
            raise ValidationError(f"block S_{stop - 1} is beyond {beyond}")
        return tuple(x[start - 2:stop - 2] for x in sites)

    return block_fn


def direct_sum(z1: Zipper, z2: Zipper) -> Zipper:
    """Sitewise direct sum of two zippers of equal N and flavor."""
    if z1.N != z2.N or z1.flavor != z2.flavor:
        raise ValidationError("direct sum needs matching N and flavor")

    def dsum(a, b):
        out = np.zeros(a.shape[:-2] + (a.shape[-2] + b.shape[-2], a.shape[-1] + b.shape[-1]),
                       dtype=complex)
        out[..., : a.shape[-2], : a.shape[-1]] = a
        out[..., a.shape[-2]:, a.shape[-1]:] = b
        return out

    sites = tuple(dsum(a, b) for a, b in zip(z1.sites, z2.sites))
    if z1.flavor == "finite":
        return Zipper(z1.L + z2.L, z1.N, "finite", sites,
                      dsum(z1.boundary_u, z2.boundary_u), dsum(z1.boundary_v, z2.boundary_v))
    return Zipper(z1.L + z2.L, z1.N, "periodic", sites)


# -- block-banded operators --------------------------------------------------

@dataclass
class BlockBandedUnitary:
    """Unitary stored as one band stack ``band`` of shape (N/2, 2L, 4L).

    Row band p holds the rows of sites 2p+1 and 2p+2 (1-based); its four
    L x L column blocks belong to the sites 2p, ..., 2p+3, taken cyclically.
    A finite operator carries exact zero blocks where a periodic one wraps
    around site N.  At N = 2 the columns alias, so readers add the blocks.
    """

    L: int
    N: int
    band: np.ndarray
    periodic: bool = False

    @property
    def dim(self) -> int:
        return self.L * self.N

    def _column_sites(self) -> np.ndarray:
        """(N/2, 4) 0-based sites of the band columns."""
        return (2 * np.arange(self.N // 2)[:, None] + np.arange(4) - 1) % self.N

    def to_dense(self) -> np.ndarray:
        L, P = self.L, self.N // 2
        M = np.zeros((P, 2 * L, self.N, L), dtype=complex)
        blocks = self.band.reshape(P, 2 * L, 4, L).transpose(0, 2, 1, 3)
        np.add.at(M, (np.arange(P)[:, None], slice(None), self._column_sites()), blocks)
        return M.reshape(self.dim, self.dim)

    def block_bandwidth(self) -> int:
        """Largest |row - col| site distance of a block above 1e-14 (cyclic for periodic operators)."""
        L, P = self.L, self.N // 2
        live = np.abs(self.band.reshape(P, 2, L, 4, L)).max(axis=(0, 2, 4)) > 1e-14
        d = np.abs(np.arange(2)[:, None] + 1 - np.arange(4))
        if self.periodic:
            d = np.minimum(d % self.N, self.N - d % self.N)
        return int(d[live].max(initial=0))


def _assemble(zipper: Zipper, corner: np.ndarray, periodic: bool) -> BlockBandedUnitary:
    """The even layer times the odd layer, as one band stack.

    The even layer holds S_2, S_4, ..., S_N on the site pairs (1, 2), ...,
    (N-1, N); the odd layer holds ``corner`` on the pair (N, 1) and S_3,
    ..., S_{N-1} on (2, 3), ..., (N-2, N-1).  Each band block is one
    L x L product of an even block and an odd block.
    """
    L, P, f = zipper.L, zipper.N // 2, zipper.first
    even = _quarters(zipper.matrices[2 - f::2])
    odd = _quarters(np.concatenate([corner[None], zipper.matrices[3 - f::2]]))
    left = even[:, :, 0, None] @ odd[:, None, 1]
    right = even[:, :, 1, None] @ np.roll(odd, -1, axis=0)[:, None, 0]
    band = np.concatenate([left, right], axis=2).transpose(0, 1, 3, 2, 4).reshape(P, 2 * L, 4 * L)
    return BlockBandedUnitary(L, zipper.N, band, periodic)


def _quarters(S: np.ndarray) -> np.ndarray:
    """A stack of 2L x 2L matrices as (n, 2, 2, L, L) blocks [row half, column half]."""
    n, L = len(S), S.shape[-1] // 2
    return S.reshape(n, 2, L, 2, L).transpose(0, 1, 3, 2, 4)


def assemble_finite(zipper: Zipper) -> BlockBandedUnitary:
    """Product of the even layer and the odd layer closed by diag(V, U) on the sites (N, 1)."""
    if zipper.flavor != "finite":
        raise ValidationError("assemble_finite needs a finite zipper")
    zero = np.zeros_like(zipper.boundary_u)
    corner = mc.join_blocks(zipper.boundary_v, zero, zero, zipper.boundary_u)
    return _assemble(zipper, corner, periodic=False)


def assemble_periodic(zipper: Zipper) -> BlockBandedUnitary:
    """Product of the even layer and the odd layer wrapping S_1 around the sites (N, 1)."""
    if zipper.flavor != "periodic":
        raise ValidationError("assemble_periodic needs a periodic zipper")
    return _assemble(zipper, zipper.matrices[0], periodic=True)


def fiber_zipper(zipper: Zipper, k: float) -> Zipper:
    """The periodic zipper whose assembly is the Bloch-Floquet fiber at momentum k.

    Every block gets its beta scaled by exp(-ik) and gamma by exp(+ik): the
    gauge twist (U, V) -> (exp(-ik) U, exp(ik) V) on the site stacks, which
    leaves alpha and delta untouched; at k = 0 this is the plain periodic
    zipper.
    """
    if zipper.flavor != "periodic":
        raise ValidationError("fibering applies to periodic zippers")
    phase = np.exp(1j * float(k))
    alpha, u, v = zipper.sites
    return Zipper(zipper.L, zipper.N, "periodic", (alpha, np.conj(phase) * u, phase * v))


def fiber(zipper: Zipper, k: float) -> BlockBandedUnitary:
    """Bloch-Floquet fiber at momentum k of a periodic zipper (see fiber_zipper)."""
    return assemble_periodic(fiber_zipper(zipper, k))


def _eliminate(op: BlockBandedUnitary, phi: np.ndarray, cos_delta, rhs: Optional[np.ndarray] = None) -> tuple:
    """Scalar LDL* of A = Re(e^(-i phi_j) U) - cos_delta_j for every column j, streamed by superblocks.

    A is block tridiagonal in the 2L x 2L superblocks of the band rows,
    read cyclically: B_I = A[I, I] from ``band[I, :, L:3L]``, and C_I =
    A[I, I-1] from ``band[I, :, :L]`` (second-site columns) and the
    adjoint of ``band[I-1, :, 3L:]`` (first-site columns), with C_0 the
    corner A[0, P-1] (P = N/2), exact zero for a finite operator.  Step I
    eliminates the 2L scalar pivots of D_I (D_0 = B_0) on a window that
    holds D_I, the next superblock and, for a periodic operator, the border
    superblock P-1, as a (w, w, columns) array of which only the lower
    triangle is read.  So B_(I+1) becomes the Schur complement D_(I+1) =
    B_(I+1) - C_(I+1) D_I^(-1) C_(I+1)*, the border row G_I* (G_0* = C_0*,
    plus C_(P-1) at I = P-2) becomes -G_I* D_I^(-1) C_(I+1)*, and the
    border block, eliminated last, takes every -G_I* D_I^(-1) G_I
    (Haynsworth, Linear Algebra Appl. 1, 1968).  At P = 2 the border row
    aliases into C_0* + C_1, and P = 1 adds C_0 + C_0* to its one block.
    Every superblock is taken in the basis of ``_mixing(2L)``, which
    changes the scalar pivots but neither the number of positive ones nor
    the solution.  Memory does not grow with N.

    Returns the number of positive scalar pivots and the smallest |pivot|
    (NaN if one is NaN) per column; with ``rhs``, a (P, 2L, columns)
    stack, also the solution of A x = rhs in that shape: the forward
    substitution runs in the same windows, which keep their multipliers
    for the back substitution.
    """
    L, P = op.L, len(op.band)
    m = 2 * L
    border = op.periodic and P > 1
    t = np.exp(-1j * phi)
    half = 0.5 * np.stack([t, np.conj(t)])  # (2, columns)
    lower = np.zeros((P, m, m), dtype=complex)  # U[I, I-1]
    lower[:, :, L:] = op.band[:, :, :L]
    upper = np.zeros_like(lower)  # U[I-1, I]*
    upper[:, :L] = mc.adj(np.roll(op.band, 1, axis=0)[:, :, 3 * L:])
    R = _mixing(m)
    lower, upper, diagonal = (mc.adj(R) @ X @ R for X in (lower, upper, op.band[:, :, L:3 * L]))
    coupling = np.stack([lower, upper], axis=-1)  # (P, m, m, 2): C_I = coupling[I] @ half
    diagonal = np.stack([diagonal, mc.adj(diagonal)], axis=-1)
    shift = np.eye(m)[:, :, None] * cos_delta

    def adjoint(C):
        return C.conj().transpose(1, 0, 2)

    def superblocks():  # (B_I, C_I) for I = 1, ..., P - 1 - border, built a few superblocks at a time
        step = max(1, STREAM_BLOCK // (m * m * len(phi)))
        for start in range(1, P - border, step):
            part = slice(start, min(start + step, P - border))
            yield from zip(diagonal[part] @ half - shift, coupling[part] @ half)

    positive = np.zeros(len(phi), dtype=int)
    smallest = np.full(len(phi), np.inf)
    stream = superblocks()
    cur = diagonal[0] @ half - shift
    if P == 1:
        cur += coupling[0] @ half + adjoint(coupling[0] @ half)
    if border:
        edge, corner = adjoint(coupling[0] @ half), diagonal[P - 1] @ half - shift
    if rhs is not None:
        rhs = np.einsum("ji,Pjn->Pin", R.conj(), rhs)
        factors, y, y_border = [], rhs[0], rhs[P - 1]
    diagonal_entries = (np.arange(m), np.arange(m))
    with np.errstate(all="ignore"):  # a zero pivot gives inf or NaN, read by the callers
        for I in range(P):
            nxt = I + 1 < P - border  # a superblock follows that is not the border
            carry = border and I < P - 1  # the border superblock rides along
            w = m * (1 + nxt + carry)
            W = np.empty((w, w, len(phi)), dtype=complex)
            W[:m, :m] = cur
            if nxt:
                W[m:2 * m, m:2 * m], W[m:2 * m, :m] = next(stream)
            if carry:
                W[w - m:, :m] = edge + coupling[P - 1] @ half if I == P - 2 else edge
                W[w - m:, m:w - m] = 0.0
                W[w - m:, w - m:] = corner
            if rhs is not None:
                r = np.concatenate([y] + ([rhs[I + 1]] if nxt else []) + ([y_border] if carry else []))
            for k in range(m):
                d = W[k, k].real
                positive += d > 0
                smallest = np.minimum(smallest, np.abs(d))  # NaN stays NaN
                column = W[k + 1:, k].conj()
                W[k + 1:, k] /= d
                W[k + 1:, k + 1:] -= W[k + 1:, k, None] * column
                if rhs is not None:
                    r[k + 1:] -= W[k + 1:, k] * r[k]
            cur = W[m:2 * m, m:2 * m] if nxt else W[m:, m:]
            if carry and nxt:
                edge, corner = W[w - m:, m:2 * m], W[w - m:, w - m:]
            if rhs is not None:
                factors.append((W[:, :m].conj(), r[:m] / W[diagonal_entries].real))
                y = r[m:2 * m] if nxt else r[m:]
                y_border = r[w - m:]
    if rhs is None:
        return positive, smallest, None
    x = np.empty(rhs.shape, dtype=complex)
    for I in range(P - 1, -1, -1):  # back substitution: L* x = D^(-1) y, window by window
        multipliers, z = factors[I]  # conjugated
        later = ([x[I + 1]] if I + 1 < P - border else []) + ([x[P - 1]] if border and I < P - 1 else [])
        if later:
            z -= np.einsum("jkn,jn->kn", multipliers[m:], np.concatenate(later))
        for k in range(m - 2, -1, -1):
            z[k] -= np.einsum("jn,jn->n", multipliers[k + 1:m, k], z[k + 1:])
        x[I] = z
    return positive, smallest, np.einsum("ij,Pjn->Pin", R, x)


@functools.cache
def _mixing(m: int) -> np.ndarray:
    """A fixed m x m unitary that ``_eliminate`` works in on every superblock.

    The inertia and the solutions do not depend on the basis, but the
    scalar pivots do: a structured operator (the free zipper, say) can put
    an exact zero on the diagonal of an invertible pivot block, where an
    LDL* without pivoting would stop.  In a generic basis such a zero is
    not met; the seed only makes the basis repeat from run to run.
    """
    X = np.random.default_rng(m).standard_normal((2, m, m))
    R = np.linalg.qr(X[0] + 1j * X[1])[0]
    R.flags.writeable = False  # one array serves every call
    return R


def shifted_solve(op: BlockBandedUnitary, thetas, rhs) -> np.ndarray:
    """The solution x_j of H(theta_j) x_j = rhs_j for every column j of the (dim, n) ``rhs``.

    H(theta) = 1 - Re(e^(-i theta) U) = (U - e^(i theta))* (U - e^(i theta)) / 2
    is Hermitian, positive semidefinite and block tridiagonal on the
    superblocks of the band, so ``_eliminate`` factors it as it counts, at
    cos(delta) = 1; near an eigenvalue e^(i theta) it is nearly singular,
    which is what inverse iteration wants.  The columns are solved in
    chunks whose kept factors hold at most SOLVE_BLOCK entries.  Reads
    ``op.band`` only; a column whose elimination meets a zero pivot comes
    back inf or NaN.
    """
    thetas = np.asarray(thetas, dtype=float)
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.shape != (op.dim, len(thetas)):
        raise ValidationError(f"rhs must have shape ({op.dim}, {len(thetas)}), got {rhs.shape}")
    P, m = op.N // 2, 2 * op.L
    chunk = max(1, SOLVE_BLOCK // (3 * P * m * m))
    x = np.empty_like(rhs)
    for i in range(0, len(thetas), chunk):
        part = rhs[:, i:i + chunk].reshape(P, m, -1)
        x[:, i:i + chunk] = -_eliminate(op, thetas[i:i + chunk], 1.0, part)[2].reshape(op.dim, -1)
    return x


def arc_counts(op: BlockBandedUnitary, centers, halfwidths) -> np.ndarray:
    """Number of eigenvalues e^(i theta) with |theta - phi| < delta, for every arc (phi, delta).

    U is normal, so A = Re(e^(-i phi) U) - cos(delta) has the eigenvalues
    cos(theta_j - phi) - cos(delta), and the count is the number of
    positive ones: by Sylvester's law of inertia, the number of positive
    scalar pivots of its LDL*, which ``_eliminate`` streams one superblock
    at a time for all arcs at once, in memory that grows with the arcs
    but not with N.  Reads ``op.band`` only.  A scalar pivot within
    PIVOT_TOL of zero (an eigenvalue on an arc edge, or a singular leading
    block) is a breakdown, never a count.  Scalar pivots can be smaller
    than the eigenvalues of their block: on 18 388 arcs (the 8 N L + 2
    first-grid arcs of finite_zipper(0, 1, 1024, "haar-gauge", 0.85) and
    (0, 2, 512, "cmv", 0.5), and 2 000 random arcs of (0, 3, 40,
    "haar-gauge", 0.99)) the smallest was 9.7e-10, where the nearest
    eigenvalue to an edge lay 5.0e-7 away, and every count equalled the
    eigenvalues of the Schur-complement blocks.
    """
    phi = np.asarray(centers, dtype=float)
    delta = np.asarray(halfwidths, dtype=float)
    if phi.ndim != 1 or phi.shape != delta.shape:
        raise ValidationError(f"centers and halfwidths must be 1-D of one length, got shapes "
                              f"{phi.shape} and {delta.shape}")
    if not np.all(np.isfinite(phi)):
        raise ValidationError("arc centers must be finite")
    if not np.all((0.0 < delta) & (delta < np.pi)):  # also false for NaN
        raise ValidationError("arc half-widths must lie in (0, pi)")
    positive, smallest, _ = _eliminate(op, phi, np.cos(delta))
    small = ~(smallest > PIVOT_TOL)  # NaN is small
    if np.any(small):
        i = int(np.argmax(small))
        raise NumericalBreakdownError(f"zero pivot on the arc ({phi[i]:.6g}, {delta[i]:.6g}): "
                                      f"an eigenvalue lies on its edge")
    return positive


def apply(op: BlockBandedUnitary, vec: np.ndarray) -> np.ndarray:
    """Matrix-vector (or matrix-block) product using only the band: one gathered stacked matmul."""
    vec = np.asarray(vec, dtype=complex)
    if vec.ndim not in (1, 2) or len(vec) != op.dim:
        raise ValidationError(f"vector length must be {op.dim}, got shape {vec.shape}")
    m = vec[0].size  # columns per site block: 1 for a vector
    cols = vec.reshape(op.N, op.L, m)[op._column_sites()].reshape(op.N // 2, 4 * op.L, m)
    return (op.band @ cols).reshape(vec.shape)


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
    if len(t) == 0:
        return SpectrumResult(t, np.zeros(0, dtype=int)), []
    starts = np.flatnonzero(np.diff(t[order]) > window) + 1
    if len(starts) and t[order[0]] + TWO_PI - t[order[-1]] <= window:
        # the last group wraps onto the first: rotate it to the front
        order = np.roll(order, len(t) - starts[-1])
        starts = starts[:-1] + len(t) - starts[-1]
    starts = np.r_[0, starts]
    mults = np.diff(np.r_[starts, len(t)])
    centers = _fold(np.angle(np.add.reduceat(np.exp(1j * t[order]), starts) / mults))
    rank = np.argsort(centers)
    groups = np.split(order, starts[1:])
    return SpectrumResult(centers[rank], mults[rank]), [groups[i] for i in rank]


def eig_unitary(U: np.ndarray):
    """Eigen-decomposition of a (numerically) unitary matrix.

    Diagonalizes H = (U + U*)/2 by eigh, then the compression of
    K = (U - U*)/(2i) inside each cluster of nearby H-eigenvalues; a cluster
    of one keeps its H-eigenvector, whose 1 x 1 compression has the
    eigenvector 1, so only clusters of two or more (conjugate pairs and
    multiple eigenvalues) run an eigh.  Eigenvalues are recombined as
    Rayleigh quotients h + i k, which puts them on the unit circle to
    roundoff.  Returns (eigenvalues, orthonormal eigenvector matrix).
    """
    U = mc.as_cmatrix(U)
    H = mc.hermitize(0.5 * (U + mc.adj(U)))
    K = mc.hermitize((U - mc.adj(U)) / 2j)
    hw, hv = np.linalg.eigh(H)
    vectors = hv + 0.0  # a copy whose zeros are all +0.0, as a 1 x 1 compression's product gives
    # group nearby h eigenvalues conservatively; K separates conjugate pairs
    for group in _cluster_sorted(hw, 1e-8):
        if len(group) == 1:
            continue
        Q = hv[:, group]
        _, kv = np.linalg.eigh(mc.hermitize(mc.adj(Q) @ K @ Q))
        vectors[:, group] = Q @ kv
    hh = np.einsum("ij,ij->j", vectors.conj(), H @ vectors).real
    kk = np.einsum("ij,ij->j", vectors.conj(), K @ vectors).real
    return hh + 1j * kk, vectors


def dense_spectrum(op: BlockBandedUnitary, cap: int = DENSE_CAP, want_projections: bool = False):
    """Full spectrum of the assembled unitary via the Hermitian-pair oracle.

    With ``want_projections`` also returns, per distinct eigenvalue, the list
    of orthonormal eigenvectors (as columns), for spectral-projection use.
    """
    if op.dim > cap:
        raise ValidationError(f"dim {op.dim} exceeds dense cap {cap}")
    lam, vectors = eig_unitary(op.to_dense())
    result, groups = _circular_clusters(np.angle(lam), DENSE_CLUSTER_TOL)
    if want_projections:
        return result, [vectors[:, g] for g in groups]
    return result
