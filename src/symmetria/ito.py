"""Irreducible tensor operator (ITO) bases for B(H) of a RepSpec.

Construction: for each ordered pair of irrep blocks (bra block b2 carrying
j2, ket block b1 carrying j1) the matrix units |b1,m1><b2,m2| are first
recombined into operators transforming like the tensor-product kets
|j1,m1> (x) |j2,mu>,

    K_{m1,mu} = (-1)^(j2-mu) |b1,m1><b2,-mu|,

and then coupled with Clebsch-Gordan coefficients into families T^lam_k
satisfying the column-form covariance law

    U_g T^lam_k U_g^dag = sum_j D^lam(g)_{jk} T^lam_j.

For Z_N every block is one-dimensional with charge c and |b1><b2| is itself
an ITO of charge c1 - c2.

The global phase of each (lam, (b2, b1)) family makes the first nonzero
entry (row-major) of its highest-k component real positive.  That entry is
<j1 j1; j2 lam-j1 | lam lam> (-1)^(j1+j2-lam) at |b1,j1><b2,j1-lam|, and the
Condon-Shortley coefficient is positive, so the family sign is the closed
form (-1)^(j1+j2-lam): no phase is computed from an entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import ZN, IrrepLabel, RepSpec, cg_layout, ragged_ranges


@dataclass(frozen=True)
class ITOBasis:
    """The ITO basis of B(H) as one read-only (d^2, d, d) array: family f
    of ``families`` (keys (lam, (bra block, ket block))) is the next lam.dim
    matrices, in descending doubled weight ``k`` (0 for Z_N)."""

    rep: RepSpec
    matrices: np.ndarray  # (d^2, d, d) complex
    k: np.ndarray  # (d^2,) int

    @cached_property
    def families(self) -> tuple:
        """The family keys, formed from the rep on first read."""
        return tuple(family_keys(self.rep))


def block_pairs(rep: RepSpec) -> tuple:
    """Integer arrays (bra block, ket block) over the ordered pairs of
    blocks in basis order, bra block outermost, and each block's irrep
    code (``IrrepLabel.code``)."""
    n = len(rep.blocks)
    bra, ket = np.divmod(np.arange(n * n), n)
    return bra, ket, np.array([lab.code for lab in rep.blocks])


def family_table(rep: RepSpec) -> tuple:
    """Integer arrays (lam, bra block, ket block) over the ITO families of
    B(H) in basis order: the block pairs of ``block_pairs``, then lam
    ascending (the row order of a Clebsch-Gordan block, as
    ``groups.cg_layout`` lays it out).  lam is the doubled spin for SU(2),
    the charge for Z_N."""
    bra, ket, q = block_pairs(rep)
    if rep.kind == ZN:
        return (q[ket] - q[bra]) % rep.modulus, bra, ket
    t2, t1 = q[bra], q[ket]
    count = np.minimum(t1, t2) + 1
    lam = np.abs(t1 - t2).repeat(count) + 2 * ragged_ranges(0, count)
    return lam, bra.repeat(count), ket.repeat(count)


def family_keys(rep: RepSpec) -> list:
    """The ITO family keys (lam, (bra block, ket block)) of B(H) in basis
    order, from ``family_table``, one IrrepLabel per distinct lam."""
    lams, bras, kets = (a.tolist() for a in family_table(rep))
    irreps = {code: rep.irrep(code) for code in set(lams)}
    return [(irreps[lam], (b2, b1)) for lam, b2, b1 in zip(lams, bras, kets)]


def build_itos(rep: RepSpec) -> ITOBasis:
    d = rep.dim
    T = np.zeros((d * d, d, d), dtype=complex)
    if rep.kind == ZN:  # matrix b2 d + b1 is |b1><b2|
        k = np.zeros(d * d, dtype=int)
        b2, b1, _ = block_pairs(rep)
        T[np.arange(d * d), b1, b2] = 1.0
    else:
        # entry (J, M; m1 index a, mu index b) of the Clebsch-Gordan block
        # of block pair (b2, b1) lands on |b1,m1><b2,-mu| of matrix (J, M),
        # with the sign (-1)^(j2-mu) = (-1)^b times the family's
        # (-1)^(j1+j2-J); the blocks' rows laid end to end are the matrices
        bra, ket, spins = block_pairs(rep)
        offsets = spins.cumsum() + np.arange(len(spins)) - spins
        t2, t1, off2, off1 = spins[bra], spins[ket], offsets[bra], offsets[ket]
        data, a, b, row_nnz, two_lam, k, nnz = cg_layout(t1, t2)
        row = np.arange(d * d).repeat(row_nnz)
        t1, t2, off1, off2 = (x.repeat(nnz) for x in (t1, t2, off1, off2))
        odd = ((t1 + t2 - two_lam[row]) // 2 + b) % 2
        T[row, off1 + a, off2 + t2 - b] = np.where(odd, -data, data)
        k = k.astype(int)  # the cached weights are int32
    T = rep.from_canonical(T)
    T.setflags(write=False)
    k.setflags(write=False)
    return ITOBasis(rep, T, k)


def state_mode_project(rho: np.ndarray, basis: ITOBasis, lam: IrrepLabel) -> np.ndarray:
    """Orthogonal projection of rho onto the lam asymmetry mode:
    rho^lam = sum_{(b2, b1),k} T tr(T^dag rho)."""
    kept = np.repeat([key == lam for key, _ in basis.families],
                     [key.dim for key, _ in basis.families])
    if not kept.any():
        raise ValueError(f"irrep {lam} not present in the operator space")
    T = basis.matrices[kept]
    return np.tensordot(np.tensordot(T.conj(), rho, 2), T, 1)
