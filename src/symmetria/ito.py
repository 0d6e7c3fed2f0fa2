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
from itertools import product

import numpy as np

from .groups import ZN, IrrepLabel, RepSpec, cg_block, cg_rows


@dataclass(frozen=True)
class ITOBasis:
    """The ITO basis of B(H) as one read-only (d^2, d, d) array: family f
    of ``families`` (keys (lam, (bra block, ket block))) is the next lam.dim
    matrices, in descending doubled weight ``k`` (0 for Z_N)."""

    rep: RepSpec
    matrices: np.ndarray  # (d^2, d, d) complex
    families: tuple  # of (IrrepLabel, (bra block, ket block))
    k: np.ndarray  # (d^2,) int


def family_keys(rep: RepSpec) -> list:
    """The ITO family keys (lam, (bra block, ket block)) of B(H) in basis
    order: bra block outermost, then ket block, then lam ascending (the row
    order of ``cg_block``)."""
    pairs = product([(lab, b) for lab, b, _ in rep.irrep_blocks()], repeat=2)
    if rep.kind == ZN:
        return [(IrrepLabel.zn(lab1.charge - lab2.charge, rep.modulus),
                 (b2, b1)) for (lab2, b2), (lab1, b1) in pairs]
    return [(IrrepLabel.su2(t), (b2, b1)) for (lab2, b2), (lab1, b1) in pairs
            for t in range(abs(lab1.two_j - lab2.two_j),
                           lab1.two_j + lab2.two_j + 1, 2)]


def build_itos(rep: RepSpec) -> ITOBasis:
    d = rep.dim
    T = np.zeros((d * d, d, d), dtype=complex)
    k = np.zeros(d * d, dtype=int)
    if rep.kind == ZN:  # matrix b2 d + b1 is |b1><b2|
        b2, b1 = np.divmod(np.arange(d * d), d)
        T[np.arange(d * d), b1, b2] = 1.0
    else:
        first = 0
        for (lab2, _, off2), (lab1, _, off1) in product(rep.irrep_blocks(),
                                                        repeat=2):
            # entry (J, M; m1 index a, mu index b) of the Clebsch-Gordan
            # block lands on |b1,m1><b2,-mu| of matrix (J, M), with the
            # sign (-1)^(j2-mu) = (-1)^b times the family's (-1)^(j1+j2-J)
            t1, t2 = lab1.two_j, lab2.two_j
            C = cg_block(t1, t2)
            n = C.shape[0]
            two_lam, k[first:first + n] = cg_rows(t1, t2)
            r = np.repeat(np.arange(n), np.diff(C.indptr))
            a, b = np.divmod(C.indices, t2 + 1)
            odd = ((t1 + t2 - two_lam[r]) // 2 + b) % 2
            T[first + r, off1 + a, off2 + t2 - b] = np.where(odd, -C.data,
                                                             C.data)
            first += n
    if rep.intertwiner is not None:
        Q = rep.intertwiner
        T = Q @ T @ Q.conj().T
    T.setflags(write=False)
    k.setflags(write=False)
    return ITOBasis(rep, T, tuple(family_keys(rep)), k)


def state_mode_project(rho: np.ndarray, basis: ITOBasis, lam: IrrepLabel) -> np.ndarray:
    """Orthogonal projection of rho onto the lam asymmetry mode:
    rho^lam = sum_{(b2, b1),k} T tr(T^dag rho)."""
    kept = np.repeat([key == lam for key, _ in basis.families],
                     [key.dim for key, _ in basis.families])
    if not kept.any():
        raise ValueError(f"irrep {lam} not present in the operator space")
    T = basis.matrices[kept]
    return np.tensordot(np.tensordot(T.conj(), rho, 2), T, 1)
