"""Irrep labels, group elements, Wigner D-matrices, Clebsch-Gordan
coefficients, representation assembly, generators and Haar quadrature for
SU(2) and Z_N, and the Z_N reference frame (its regular representation).

Conventions:
  * Half-integers are stored as doubled integers (two_j, two_m) so irrep
    bookkeeping is exact.
  * Irrep carrier bases are ordered by descending weight m = j, j-1, ..., -j.
  * Clebsch-Gordan coefficients are real in the Condon-Shortley convention.
  * SU(2) elements are zyz Euler triples (alpha, beta, gamma) with
    beta in [0, pi]; alpha, gamma live mod 4*pi (double cover).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

SU2 = "su2"
ZN = "zn"

_GIMBAL_EPS = 1e-12


@dataclass(frozen=True)
class IrrepLabel:
    kind: str
    two_j: int = 0          # SU(2) spin, doubled
    charge: int = 0         # Z_N charge, stored reduced mod N
    modulus: int = 0        # N for Z_N

    def __post_init__(self):
        if self.kind == SU2:
            if self.two_j < 0:
                raise ValueError("two_j must be non-negative")
        elif self.kind == ZN:
            if self.modulus <= 0:
                raise ValueError("Z_N modulus must be positive")
            object.__setattr__(self, "charge", self.charge % self.modulus)
        else:
            raise ValueError(f"unknown group kind {self.kind!r}")
        # hashed once: every Diagram key rehashes three labels.  Integers
        # only, so the hash does not depend on the process's string seed
        object.__setattr__(self, "_hash", hash(
            (self.kind == ZN, self.two_j, self.charge, self.modulus)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def su2(two_j: int) -> "IrrepLabel":
        return IrrepLabel(SU2, two_j=two_j)

    @staticmethod
    def zn(charge: int, modulus: int) -> "IrrepLabel":
        return IrrepLabel(ZN, charge=charge, modulus=modulus)

    @property
    def dim(self) -> int:
        return self.two_j + 1 if self.kind == SU2 else 1

    @property
    def code(self) -> int:
        """The integer code of the irrep: its doubled spin or its charge (a
        Z_N label has two_j = 0, an SU(2) label charge = 0)."""
        return self.two_j + self.charge

    @property
    def is_trivial(self) -> bool:
        return self.two_j == 0 and self.charge == 0

    def dual(self) -> "IrrepLabel":
        """Dual (conjugate) irrep label."""
        if self.kind == SU2:
            return self
        return IrrepLabel.zn(-self.charge, self.modulus)

    def components(self) -> list[int]:
        """Component indices: doubled weights for SU(2), [0] for Z_N."""
        if self.kind == SU2:
            return list(range(self.two_j, -self.two_j - 2, -2))
        return [0]


@dataclass(frozen=True)
class GroupElement:
    kind: str
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    g: int = 0
    modulus: int = 0

    def __post_init__(self):
        if self.kind == ZN:
            if self.modulus <= 0:
                raise ValueError("Z_N modulus must be positive")
            object.__setattr__(self, "g", self.g % self.modulus)
        elif self.kind != SU2:
            raise ValueError(f"unknown group kind {self.kind!r}")

    @staticmethod
    def su2(alpha: float, beta: float, gamma: float) -> "GroupElement":
        return GroupElement(SU2, alpha=alpha, beta=beta, gamma=gamma)

    @staticmethod
    def zn(g: int, modulus: int) -> "GroupElement":
        return GroupElement(ZN, g=g, modulus=modulus)


@lru_cache(maxsize=None)
def _fact(n: int) -> int:
    return math.factorial(n)


@lru_cache(maxsize=None)
def _jy_eigensystem(two_j: int):
    """(w, V, V^dag, m): J_y = V diag(w) V^dag, m the descending weights."""
    w, V = np.linalg.eigh(_spin_matrices(two_j)[1])
    m = np.arange(two_j, -two_j - 1, -2) / 2.0
    return w, V, V.conj().T, m


def wigner_D(j: IrrepLabel, g: GroupElement) -> np.ndarray:
    """Unitary irrep matrix in the descending-weight basis.

    For SU(2): D^j(a,b,c) = exp(-i a J_z) exp(-i b J_y) exp(-i c J_z).  The
    real orthogonal d^j(b) = V diag(exp(-i b w)) V^dag comes from the exact
    diagonalisation of J_y, so D is unitary for every j.
    Spin 1/2 takes the closed form of ``su2_matrix``; the eigen-route
    (through ``wigner_d(1, betas)``) is its oracle in the tests.
    For Z_N:   the 1x1 phase omega^(charge * g), omega = exp(2 pi i / N).
    """
    if j.kind != g.kind:
        raise ValueError("group kind mismatch between irrep and element")
    if j.kind == ZN:
        return np.array([[np.exp(2j * np.pi * j.charge * g.g / j.modulus)]])
    if j.two_j == 1:
        return su2_matrix(g)
    w, V, Vh, m = _jy_eigensystem(j.two_j)
    d = ((V * np.exp(-1j * g.beta * w)) @ Vh).real
    return np.exp(-1j * g.alpha * m)[:, None] * d * np.exp(-1j * g.gamma * m)


def wigner_d(two_j: int, betas) -> np.ndarray:
    """The real d^j(beta) = exp(-i beta J_y) for each beta, stacked into
    shape (len(betas), 2j + 1, 2j + 1); the same eigen-route as wigner_D."""
    w, V, Vh, _ = _jy_eigensystem(two_j)
    phases = np.exp(-1j * np.asarray(betas, dtype=float)[:, None, None] * w)
    return ((V * phases) @ Vh).real


def dual_sign_permutation(j: IrrepLabel) -> np.ndarray:
    """Intertwiner Y with D(g)^* = Y D(g) Y^{-1} in the descending basis.

    For SU(2), Y_{rk} pairs weight m with -m carrying the phase (-1)^(j-m);
    a tensor family S_k := sum_r Y_{kr} T_r transforms in the dual irrep.
    For Z_N irreps (1-dimensional) the dual is a different label and Y = [1].
    """
    if j.kind == ZN:
        return np.eye(1)
    ms = j.components()
    n = len(ms)
    Y = np.zeros((n, n))
    for r, two_m in enumerate(ms):
        Y[ms.index(-two_m), r] = (-1.0) ** ((j.two_j - two_m) // 2)
    return Y


def su2_matrix(g: GroupElement) -> np.ndarray:
    """Fundamental (spin-1/2) matrix of an SU(2) element, the Cayley-Klein
    matrix in the descending-weight basis:

        [[e^(-i(a+c)/2) cos(b/2), -e^(-i(a-c)/2) sin(b/2)],
         [ e^( i(a-c)/2) sin(b/2),  e^( i(a+c)/2) cos(b/2)]]

    for (a, b, c) = (alpha, beta, gamma), built from scalar half-angle
    phases as D^(1/2) = diag(e^(-i a m)) d^(1/2)(b) diag(e^(-i c m))."""
    if g.kind != SU2:
        raise ValueError("su2_matrix needs an SU(2) element")
    a, c = cmath.exp(-0.5j * g.alpha), cmath.exp(-0.5j * g.gamma)
    cb, sb = math.cos(0.5 * g.beta), math.sin(0.5 * g.beta)
    diag, off = a * c, a * c.conjugate()
    return np.array([[diag * cb, -off * sb],
                     [off.conjugate() * sb, diag.conjugate() * cb]])


def su2_from_matrix(U: np.ndarray) -> GroupElement:
    """Euler extraction from a 2x2 SU(2) matrix.

    Gimbal cases beta in {0, pi} use the convention gamma = 0.  The returned
    triple reconstructs U exactly (as an SU(2) element, alpha mod 4*pi).
    """
    U = np.asarray(U, dtype=complex)
    c, s = abs(U[0, 0]), abs(U[1, 0])
    beta = 2.0 * math.atan2(s, c)
    if s <= _GIMBAL_EPS:
        return GroupElement.su2(-2.0 * np.angle(U[0, 0]), 0.0, 0.0)
    if c <= _GIMBAL_EPS:
        return GroupElement.su2(2.0 * np.angle(U[1, 0]), math.pi, 0.0)
    apg = -2.0 * np.angle(U[0, 0])
    amg = 2.0 * np.angle(U[1, 0])
    return GroupElement.su2((apg + amg) / 2.0, beta, (apg - amg) / 2.0)


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Group composition g1 * g2."""
    if g1.kind != g2.kind:
        raise ValueError("group kind mismatch")
    if g1.kind == ZN:
        if g1.modulus != g2.modulus:
            raise ValueError("Z_N modulus mismatch")
        return GroupElement.zn(g1.g + g2.g, g1.modulus)
    return su2_from_matrix(su2_matrix(g1) @ su2_matrix(g2))


def inverse(g: GroupElement) -> GroupElement:
    if g.kind == ZN:
        return GroupElement.zn(-g.g, g.modulus)
    return su2_from_matrix(su2_matrix(g).conj().T)


def random_su2(rng: np.random.Generator) -> GroupElement:
    """Haar-distributed SU(2) element."""
    z = rng.normal(size=4)
    z /= np.linalg.norm(z)
    a, b = z[0] + 1j * z[1], z[2] + 1j * z[3]
    return su2_from_matrix(np.array([[a, -np.conj(b)], [b, np.conj(a)]]))


@lru_cache(maxsize=None)
def _cgc_doubled(two_j1: int, two_m1: int, two_j2: int, two_m2: int,
                 two_J: int, two_M: int) -> float:
    if two_M != two_m1 + two_m2:
        return 0.0
    if abs(two_m1) > two_j1 or abs(two_m2) > two_j2 or abs(two_M) > two_J:
        return 0.0
    if (two_j1 + two_m1) % 2 or (two_j2 + two_m2) % 2 or (two_J + two_M) % 2:
        return 0.0
    if two_J < abs(two_j1 - two_j2) or two_J > two_j1 + two_j2:
        raise ValueError("J outside the Clebsch-Gordan series of j1 x j2")
    if (two_j1 + two_j2 + two_J) % 2:
        return 0.0

    def h(x: int) -> int:
        return x // 2

    # Racah's closed form; all factorial arguments are exact integers.
    norm = Fraction(
        (two_J + 1)
        * _fact(h(two_J + two_j1 - two_j2))
        * _fact(h(two_J - two_j1 + two_j2))
        * _fact(h(two_j1 + two_j2 - two_J)),
        _fact(h(two_j1 + two_j2 + two_J) + 1),
    ) * Fraction(
        _fact(h(two_J + two_M)) * _fact(h(two_J - two_M))
        * _fact(h(two_j1 - two_m1)) * _fact(h(two_j1 + two_m1))
        * _fact(h(two_j2 - two_m2)) * _fact(h(two_j2 + two_m2)),
        1,
    )
    total = Fraction(0)
    k_min = max(0, h(two_j2 - two_J - two_m1), h(two_j1 - two_J + two_m2))
    k_max = min(
        h(two_j1 + two_j2 - two_J),
        h(two_j1 - two_m1),
        h(two_j2 + two_m2),
    )
    for k in range(k_min, k_max + 1):
        denom = (
            _fact(k)
            * _fact(h(two_j1 + two_j2 - two_J) - k)
            * _fact(h(two_j1 - two_m1) - k)
            * _fact(h(two_j2 + two_m2) - k)
            * _fact(h(two_J - two_j2 + two_m1) + k)
            * _fact(h(two_J - two_j1 - two_m2) + k)
        )
        total += Fraction((-1) ** k, denom)
    if total == 0:
        return 0.0
    sign = 1.0 if total > 0 else -1.0
    return sign * math.sqrt(float(norm * total * total))


def cgc(j1: IrrepLabel, m1: int, j2: IrrepLabel, m2: int,
        J: IrrepLabel, M: int) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M>.

    m arguments are doubled weights for SU(2) and ignored (0) for Z_N, where
    the coefficient is 1 when J = j1 + j2 mod N and 0 otherwise.
    """
    kinds = {j1.kind, j2.kind, J.kind}
    if len(kinds) != 1:
        raise ValueError("mixed group kinds in CGC")
    if j1.kind == ZN:
        if J.charge == (j1.charge + j2.charge) % j1.modulus:
            return 1.0
        raise ValueError("J outside the Clebsch-Gordan series of j1 x j2")
    return _cgc_doubled(j1.two_j, m1, j2.two_j, m2, J.two_j, M)


# The Clebsch-Gordan blocks solved so far: (two_j1, two_j2) -> read-only
# arrays (data, column, rows), the one copy of the coefficients.  Rows run
# over J ascending from |j1 - j2|, M descending within each J; columns over
# (m1, m2) row-major, both descending, column = m1 index * d2 + m2 index.
# Every (J, M, m1, m2) with m1 + m2 = M is stored, row by row and columns
# ascending: per entry its value and int32 column, and per row the int32
# (entry count, doubled J, doubled M) as the three rows of ``rows``.
_CG_BLOCKS: dict = {}

# The bytes the working arrays of one batch of cold Clebsch-Gordan solves
# may hold (see _cg_batches); a block larger than this is solved alone.
_CG_BATCH_BYTES = 16 << 20


def cg_rows(two_j1: int, two_j2: int, two_J: int) -> np.ndarray:
    """The coefficients <j1 m1; j2 m2 | J M> of one total spin J as a dense
    (2J + 1, d1 d2) array: M descending down the rows, (m1, m2) row-major
    and both descending along the columns."""
    data, column, (count, J, _) = cg_blocks([(two_j1, two_j2)])[0]
    mine = J == two_J
    if not mine.any():
        raise ValueError("J outside the Clebsch-Gordan series of j1 x j2")
    keep = mine.repeat(count)
    out = np.zeros((two_J + 1, (two_j1 + 1) * (two_j2 + 1)))
    out[np.arange(two_J + 1).repeat(count[mine]), column[keep]] = data[keep]
    return out


def cg_blocks(pairs) -> list:
    """The cached arrays (data, column, rows) of each (two_j1, two_j2) of
    ``pairs`` (see _CG_BLOCKS).  The blocks not yet cached are solved
    together, in batches (see _cg_batches and _solve_cg_blocks)."""
    pairs = list(pairs)
    for batch, _ in _cg_batches({p for p in pairs if p not in _CG_BLOCKS}):
        _solve_cg_blocks(batch)
    return [_CG_BLOCKS[p] for p in pairs]


def _cg_batches(pairs):
    """Yield (batch, bytes): the distinct ``pairs`` in order of their
    longest row k = min(d1, d2), cut into batches before the bytes one
    would hold pass _CG_BATCH_BYTES.  A batch's rows are the columns of
    (K, rows) arrays, K its largest k; it holds about 44 bytes per entry
    of them and 400 per row, as traced over 2j up to 78."""
    batch, rows = [], 0
    for a, b in sorted(pairs, key=lambda p: (min(p), p)):
        k, n = min(a, b) + 1, (a + 1) * (b + 1)
        if batch and (rows + n) * (44 * k + 400) > _CG_BATCH_BYTES:
            yield batch, rows * (44 * k_top + 400)
            batch, rows = [], 0
        batch.append((a, b))
        rows, k_top = rows + n, k
    if batch:
        yield batch, rows * (44 * k_top + 400)


def cg_batch_bytes(pairs) -> int:
    """The most bytes one batch of ``cg_blocks`` holds when it solves the
    distinct ``pairs`` cold."""
    return max((held for _, held in _cg_batches(pairs)), default=0)


def _pivots(d, off2, count, reverse=False):
    """Overwrite the diagonal ``d`` of each column's tridiagonal with its
    LDL^T pivots, d_q - off2_{q-1} / d_{q-1} down axis 0, or up it when
    ``reverse``, and return it.  The squared off-diagonal off2_q (q to
    q + 1) is zero from a column's last position on, and the columns
    running at position q are the first count[q].  A zero pivot is
    floored at 1e-300, which keeps off2 / pivot finite for off2 < 1e8."""
    for q in range(len(d) - 2, -1, -1) if reverse else range(1, len(d)):
        c, before = count[q], q + 1 if reverse else q - 1
        pivot = d[before, :c]
        pivot[pivot == 0] = 1e-300
        d[q, :c] -= off2[min(q, before), :c] / pivot
    d[d == 0] = 1e-300
    return d


def _solve_cg_blocks(pairs: list):
    """Solve the blocks of ``pairs`` and cache them.

    On each weight-M subspace J^2 is tridiagonal with the eigenvalues
    J(J + 1).  Each |J M> is one twisted factorisation of the exact
    J^2 - J(J + 1) (Fernando, SIAM J. Matrix Anal. Appl. 18, 1013
    (1997)): the pivots d+ down and d- up, the twist r where
    |d+_r + d-_r - (J^2 - J(J + 1))_rr| is least, and ratios outward
    from z_r = 1.  The Condon-Shortley sign makes the largest-m1 entry
    positive: there m1 = j1 or m2 = -j2, so Racah's sum has one term, and
    a product of ratios has an exact sign at any magnitude.  Each step,
    the norm's sum included, runs down axis 0 of (K, rows) arrays, one
    vector per column and longest first, so no bits depend on the batch.
    """
    t1, t2 = np.array(pairs).T
    d1, d2 = t1 + 1, t2 + 1
    k_pair = np.minimum(d1, d2)
    # subspace g is subspace s of block p, of two_M = two_top - 2 s; it
    # holds J = two_min / 2 + t for skip <= t < k, and its position i is
    # (m1 index a = first + i, m2 index b = s - a) for i < size
    n_sub = d1 + d2 - 1
    start = n_sub.cumsum() - n_sub
    p = np.arange(len(pairs)).repeat(n_sub)
    s = np.arange(len(p)) - start[p]
    two_min, two_top, k = np.abs(t1 - t2)[p], (t1 + t2)[p], k_pair[p]
    skip = (np.maximum(two_min, np.abs(two_top - 2 * s)) - two_min) // 2
    size = k - skip
    first = np.maximum(0, s - d2[p] + 1)
    # rows (J ascending, M descending) are each block's (t, s) in C order
    i = t = np.arange(k_pair.max())
    row_g, row_t = np.nonzero((t >= skip[:, None]) & (t < k[:, None]))
    order = np.argsort(p[row_g] * len(i) + row_t, kind="stable")
    row_g, row_t = row_g[order], row_t[order]
    two_J = two_min[row_g] + 2 * row_t
    # J^2 on each subspace, position-major: its diagonal and the squared
    # J1_- J2_+ from position i to i + 1, exact in quarters
    q = i[:, None]
    u1, u2, a = t1[p], t2[p], first + q
    b = s - a
    diag = (u1 * (u1 + 2) + u2 * (u2 + 2)
            + 2 * (u1 - 2 * a) * (u2 - 2 * b)) / 4
    off2 = np.where(q < size - 1, (u1 - a) * (a + 1) * b * (u2 - b + 1), 0.0)
    # column v is the vector of row by_length[v], longest first, in the
    # exact J^2 - J(J + 1) of its subspace
    by_length = np.argsort(-size[row_g], kind="stable")
    g, J, n = row_g[by_length], two_J[by_length], size[row_g][by_length]
    count = (q < n).sum(axis=1).tolist()
    shifted = diag.take(g, axis=1) - J * (J + 2) / 4
    off2_g = off2.take(g, axis=1)
    d_up = _pivots(shifted.copy(), off2_g, count)
    d_down = _pivots(shifted.copy(), off2_g, count, reverse=True)
    del off2_g
    twist = np.where(q < n, np.abs(d_up + d_down - shifted),
                     np.inf).argmin(axis=0)
    del shifted
    # z_q = -off_q / d+_q z_{q+1} above the twist and -off_{q-1} / d-_q
    # z_{q-1} below it: each a product of ratios outward from z_r = 1
    off = -np.sqrt(off2).take(g, axis=1)
    up, down = np.ones_like(off), np.ones_like(off)
    np.divide(off, d_up, out=up, where=q < twist)
    np.divide(off[:-1], d_down[1:], out=down[1:], where=q[1:] > twist)
    del off, d_up, d_down
    z = np.cumprod(up[::-1], axis=0)[::-1] * np.cumprod(down, axis=0)
    del up, down
    z /= np.copysign(np.sqrt((z * z).sum(axis=0)), z[0])
    # a row holds the positions i < size of its subspace, in the columns
    # a d2 + b = (first + i)(d2 - 1) + s
    keep = i < size[row_g, None]
    data = z.T[np.argsort(by_length)][keep]
    # an entry beside a floored zero pivot comes out near 1e-300: Racah's 0
    data[np.abs(data) < 1e-150] = 0.0
    step = d2[p[row_g]] - 1
    column = ((first[row_g] * step + s[row_g])[:, None]
              + step[:, None] * i)[keep].astype(np.int32)
    rows = np.stack((size[row_g], two_J,
                     two_top[row_g] - 2 * s[row_g])).astype(np.int32)
    # block p holds the d1 d2 rows from r0 and the entries from nz0
    r0 = np.append(0, (d1 * d2).cumsum())
    nz0 = np.append(0, rows[0].cumsum()[r0[1:] - 1])
    for arr in (data, column, rows):
        arr.setflags(write=False)
    for pair, r, r1, lo, hi in zip(pairs, r0.tolist(), r0[1:].tolist(),
                                   nz0.tolist(), nz0[1:].tolist()):
        _CG_BLOCKS[pair] = (data[lo:hi], column[lo:hi], rows[:, r:r1])


def cg_layout(two_j1: np.ndarray, two_j2: np.ndarray) -> tuple:
    """The Clebsch-Gordan blocks of (two_j1[i], two_j2[i]) laid end to end,
    as flat arrays (data, m1 index, m2 index, row_nnz, two_J, two_M, nnz):
    per stored entry its value and its column's (m1, m2) indices; per row
    its entry count and (doubled J, doubled M); per block its entry count.
    Each distinct block is read once and gathered to its places."""
    radix = two_j2.max() + 1
    keys = two_j1 * radix + two_j2
    # the distinct keys, ascending, and each one's place
    seen = np.zeros(keys.max() + 1, dtype=bool)
    seen[keys] = True
    keys, block_of = np.flatnonzero(seen), (seen.cumsum() - 1)[keys]
    t1, t2 = np.divmod(keys, radix)
    blocks = cg_blocks(zip(t1.tolist(), t2.tolist()))
    data, column, rows = (np.concatenate(part, axis=-1)
                          for part in zip(*blocks))
    nnz = np.array([len(block[0]) for block in blocks])
    n_rows = (t1 + 1) * (t2 + 1)
    m1, m2 = np.divmod(column, (t2 + 1).repeat(nnz))
    at = ragged_ranges((nnz.cumsum() - nnz)[block_of], nnz[block_of])
    row_nnz, two_J, two_M = rows[:, ragged_ranges(
        (n_rows.cumsum() - n_rows)[block_of], n_rows[block_of])]
    return (data[at], m1[at], m2[at], row_nnz, two_J, two_M,
            nnz[block_of])


def ragged_ranges(starts, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[i] + (0, ..., lengths[i] - 1), end to end: the
    gather that lays out one copy of a block per placement."""
    ends = lengths.cumsum()
    return (np.repeat(starts - ends + lengths, lengths)
            + np.arange(ends[-1] if len(ends) else 0))


@dataclass(frozen=True)
class RepSpec:
    """An ordered direct sum of irreps, optionally conjugated by a fixed
    intertwiner unitary applied after the block-diagonal canonical form."""

    kind: str
    blocks: tuple  # of IrrepLabel, one per block (an irrep in two blocks twice)
    intertwiner: np.ndarray | None = None

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("a rep needs at least one irrep block")
        if any(lab.kind != self.kind for lab in self.blocks):
            raise ValueError("block irrep kind mismatch")
        if len({lab.modulus for lab in self.blocks}) != 1:
            raise ValueError("Z_N blocks of different moduli")
        if self.intertwiner is not None:
            Q = np.asarray(self.intertwiner, dtype=complex)
            if Q.shape != (self.dim, self.dim):
                raise ValueError("intertwiner shape mismatch")
            if np.linalg.norm(Q @ Q.conj().T - np.eye(self.dim)) > 1e-12:
                raise ValueError("intertwiner is not unitary to 1e-12")
            object.__setattr__(self, "intertwiner", Q)

    @staticmethod
    def su2_spins(two_js, intertwiner=None) -> "RepSpec":
        return RepSpec(SU2, tuple(IrrepLabel.su2(t) for t in two_js),
                       intertwiner=intertwiner)

    @staticmethod
    def zn_charges(charges, modulus: int, intertwiner=None) -> "RepSpec":
        return RepSpec(ZN, tuple(IrrepLabel.zn(c, modulus) for c in charges),
                       intertwiner=intertwiner)

    @property
    def dim(self) -> int:
        return sum(lab.dim for lab in self.blocks)

    @property
    def modulus(self) -> int:
        if self.kind != ZN:
            raise ValueError("modulus only defined for Z_N reps")
        return self.blocks[0].modulus

    def irrep(self, code: int) -> IrrepLabel:
        """The irrep of the rep's group whose ``IrrepLabel.code`` is code."""
        if self.kind == SU2:
            return IrrepLabel.su2(code)
        return IrrepLabel.zn(code, self.modulus)

    @cached_property
    def weights(self) -> np.ndarray:
        """The diagonal of the canonical form: per basis vector its doubled
        J_z weight (SU(2)) or its charge (Z_N).  Read-only."""
        w = np.array([lab.charge + m for lab in self.blocks
                      for m in lab.components()])
        w.setflags(write=False)
        return w

    @cached_property
    def frame(self) -> np.ndarray:
        """The unitary taking the canonical block basis to the rep's basis:
        the intertwiner, or the identity."""
        Q = self.intertwiner
        return np.eye(self.dim) if Q is None else Q

    def from_canonical(self, X: np.ndarray) -> np.ndarray:
        """Q X Q^dag for the intertwiner Q, or X itself without one; X may
        be a stack of matrices."""
        Q = self.intertwiner
        return X if Q is None else Q @ X @ Q.conj().T

    def irrep_blocks(self):
        """Yield (IrrepLabel, block_index, offset) for each block."""
        off = 0
        for idx, lab in enumerate(self.blocks):
            yield lab, idx, off
            off += lab.dim


def rep_matrix(R: RepSpec, g: GroupElement) -> np.ndarray:
    """Unitary representation matrix: block-diagonal canonical form,
    conjugated by the intertwiner if present.  A rep of one block and no
    intertwiner is its Wigner matrix, returned as built."""
    if R.kind != g.kind:
        raise ValueError("group kind mismatch")
    if R.intertwiner is None and len(R.blocks) == 1:
        return wigner_D(R.blocks[0], g)
    return R.from_canonical(_block_diag([wigner_D(lab, g)
                                         for lab in R.blocks]))


def _block_diag(blocks) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    off = 0
    for b in blocks:
        d = b.shape[0]
        out[off:off + d, off:off + d] = b
        off += d
    return out


def _spin_matrices(two_j: int):
    """(Jx, Jy, Jz) for a single spin-j block, descending-weight basis."""
    j = two_j / 2.0
    dim = two_j + 1
    ms = [j - i for i in range(dim)]
    Jz = np.diag(ms).astype(complex)
    Jp = np.zeros((dim, dim), dtype=complex)
    for i in range(1, dim):
        m = ms[i]
        # J+ |j,m> = sqrt((j-m)(j+m+1)) |j,m+1>; raising moves up one row.
        Jp[i - 1, i] = math.sqrt((j - m) * (j + m + 1))
    Jm = Jp.conj().T
    Jx = (Jp + Jm) / 2
    Jy = (Jp - Jm) / 2j
    return Jx, Jy, Jz


def generators(R: RepSpec) -> list[np.ndarray]:
    """SU(2): (Jx, Jy, Jz); Z_N: the integer charge operator."""
    if R.kind == SU2:
        out = [_block_diag(parts) for parts in zip(
            *(_spin_matrices(lab.two_j) for lab in R.blocks))]
    else:
        out = [np.diag(R.weights.astype(complex))]
    return [R.from_canonical(J) for J in out]


@dataclass(frozen=True)
class HaarQuadrature:
    """Nodes and weights integrating matrix-coefficient products exactly.

    Exact for products f * conj(h) of matrix coefficients of irreps up to the
    bandlimit (doubled spin two_j for SU(2); always exact for Z_N).

    The rule is stored as its Euler factors; ``nodes``, their product, is
    formed on first read.  SU(2): alpha and gamma each run over the grid
    4 pi k / n_angle with weight 1 / n_angle, beta over ``betas`` with
    ``beta_weights``; ``nodes`` lists alpha outermost, gamma innermost.
    Z_N: the N elements g = 0, ..., N - 1 of ``modulus``, weight 1 / N each.
    """

    kind: str
    bandlimit: int
    n_angle: int = 0  # SU(2): 2 * bandlimit + 2
    betas: tuple = ()  # SU(2): arccos of the Gauss-Legendre nodes
    beta_weights: tuple = ()  # SU(2): Gauss-Legendre weights / 2, sum 1
    modulus: int = 0  # Z_N: N

    @cached_property
    def nodes(self) -> tuple:
        """Every node as a (GroupElement, float weight) pair."""
        if self.kind == ZN:
            return tuple((GroupElement.zn(k, self.modulus), 1.0 / self.modulus)
                         for k in range(self.modulus))
        n = self.n_angle
        grid = [4.0 * math.pi * k / n for k in range(n)]
        return tuple((GroupElement.su2(alpha, beta, gamma), wb / (n * n))
                     for alpha in grid
                     for beta, wb in zip(self.betas, self.beta_weights)
                     for gamma in grid)

    def integrate(self, f) -> complex:
        return sum(w * f(g) for g, w in self.nodes)


def haar_quadrature(kind: str, bandlimit: int, modulus: int = 0) -> HaarQuadrature:
    """SU(2): uniform alpha, gamma on [0, 4 pi) times Gauss-Legendre in
    cos(beta).  Z_N: the exact uniform sum over all N elements."""
    if kind == ZN:
        if modulus <= 0:
            raise ValueError("Z_N quadrature requires a modulus")
        return HaarQuadrature(ZN, bandlimit, modulus=modulus)
    if kind != SU2:
        raise ValueError(f"unknown group kind {kind!r}")
    two_b = max(int(bandlimit), 0)
    xs, ws = np.polynomial.legendre.leggauss(two_b + 1)
    betas = tuple(math.acos(float(np.clip(x, -1.0, 1.0))) for x in xs)
    return HaarQuadrature(SU2, two_b, 2 * two_b + 2, betas,
                          tuple(float(wb) / 2.0 for wb in ws))


@dataclass(frozen=True)
class LinkFrame:
    """The Z_N reference frame: the regular representation on basis |h>,
    shared by the gauge links and the catalytic ladder.  The shift is
    Delta|h> = |h+1 mod N>, the clock L_lam = sum_h omega^{lam h} |h><h|,
    and the Fourier frame states |theta_r> are the Delta eigenvectors."""

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("Z_N frame needs N >= 1")

    def delta_power(self, k: int) -> np.ndarray:
        """Delta^k: |h> -> |h + k mod N>; row i is the basis row i - k."""
        return np.eye(self.N, dtype=complex)[(np.arange(self.N) - k) % self.N]

    def charge_operator(self, lam: int) -> np.ndarray:
        """L_lambda = sum_h omega^{lambda h} |h><h|."""
        w = np.exp(2j * np.pi * (lam % self.N) * np.arange(self.N) / self.N)
        return np.diag(w)

    def frame_vector(self, r: int) -> np.ndarray:
        """|theta_r> = N^{-1/2} sum_h exp(-i 2 pi h r / N) |h>, a Delta
        eigenvector with eigenvalue exp(i 2 pi r / N)."""
        n = np.arange(self.N)
        return np.exp(-2j * np.pi * n * (r % self.N) / self.N) / math.sqrt(self.N)

    def frame_projector(self, r: int) -> np.ndarray:
        v = self.frame_vector(r)
        return np.outer(v, v.conj())

    def delta_profile(self, sigma: np.ndarray) -> np.ndarray:
        """The vector tr(Delta^k sigma) = sum_h sigma[h - k, h] for
        k = 0..N-1, gathered from sigma in one indexing step."""
        h = np.arange(self.N)
        return np.asarray(sigma)[(h - h[:, None]) % self.N, h].sum(axis=1)
