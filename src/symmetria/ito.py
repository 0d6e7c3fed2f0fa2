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

The global phase of each (lam, multiplicity) family is fixed by making the
first nonzero entry (row-major) of the highest-k component real positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import ZN, IrrepLabel, RepSpec, cg_block


@dataclass(frozen=True)
class ItoElement:
    lam: IrrepLabel
    mult_index: tuple  # (input/bra block index, output/ket block index)
    k: int             # doubled component weight for SU(2), 0 for Z_N
    matrix: np.ndarray


@dataclass(frozen=True)
class ITOBasis:
    rep: RepSpec
    elements: tuple  # of ItoElement

    def select(self, lam: IrrepLabel | None = None, mult_index=None):
        out = []
        for e in self.elements:
            if lam is not None and e.lam != lam:
                continue
            if mult_index is not None and e.mult_index != mult_index:
                continue
            out.append(e)
        return out

    def lams(self) -> list[IrrepLabel]:
        seen = []
        for e in self.elements:
            if e.lam not in seen:
                seen.append(e.lam)
        return seen

    def families(self):
        """Yield ((lam, mult_index), [elements ordered by descending k])."""
        groups: dict = {}
        for e in self.elements:
            groups.setdefault((e.lam, e.mult_index), []).append(e)
        for key, elems in groups.items():
            elems.sort(key=lambda e: -e.k)
            yield key, elems


def _phase_fixed(mats: list[np.ndarray]) -> list[np.ndarray]:
    """Multiply the family by a unit phase so the first nonzero entry of the
    highest-k component (first element) is real positive."""
    top = mats[0]
    flat = top.reshape(-1)
    idx = np.flatnonzero(np.abs(flat) > 1e-12)
    if len(idx) == 0:
        return mats
    ph = flat[idx[0]] / abs(flat[idx[0]])
    return [m / ph for m in mats]


def build_itos(rep: RepSpec) -> ITOBasis:
    dim = rep.dim
    blocks = list(rep.irrep_blocks())  # (label, block_index, offset)
    elements = []
    # multiplicity ordered lexicographically by (bra block, ket block)
    for lab2, b2, off2 in blocks:      # bra / input side
        for lab1, b1, off1 in blocks:  # ket / output side
            if rep.kind == ZN:
                lam = IrrepLabel.zn(lab1.charge - lab2.charge, rep.modulus)
                m = np.zeros((dim, dim), dtype=complex)
                m[off1, off2] = 1.0
                elements.append(ItoElement(lam, (b2, b1), 0, m))
                continue
            # row (lam, k) of the Clebsch-Gordan block over (m1, mu) lands
            # on |b1,m1><b2,-mu| with the sign (-1)^(j2-mu)
            d1, d2 = lab1.dim, lab2.dim
            C = cg_block(lab1.two_j, lab2.two_j).toarray().reshape(-1, d1, d2)
            C = (C * (-1.0) ** np.arange(d2))[:, :, ::-1]
            row = 0
            for two_lam in range(abs(lab1.two_j - lab2.two_j),
                                 lab1.two_j + lab2.two_j + 2, 2):
                lam = IrrepLabel.su2(two_lam)
                mats = []
                for block in C[row:row + lam.dim]:
                    m = np.zeros((dim, dim), dtype=complex)
                    m[off1:off1 + d1, off2:off2 + d2] = block
                    mats.append(m)
                row += lam.dim
                mats = _phase_fixed(mats)
                for two_k, m in zip(lam.components(), mats):
                    elements.append(ItoElement(lam, (b2, b1), two_k, m))
    basis = ITOBasis(rep, tuple(elements))
    if rep.intertwiner is not None:
        Q = rep.intertwiner
        elements = tuple(
            ItoElement(e.lam, e.mult_index, e.k, Q @ e.matrix @ Q.conj().T)
            for e in basis.elements
        )
        basis = ITOBasis(rep, elements)
    return basis


def state_mode_project(rho: np.ndarray, basis: ITOBasis, lam: IrrepLabel) -> np.ndarray:
    """Orthogonal projection of rho onto the lam asymmetry mode:
    rho^lam = sum_{mult,k} T tr(T^dag rho)."""
    rho = np.asarray(rho, dtype=complex)
    if lam not in basis.lams():
        raise ValueError(f"irrep {lam} not present in the operator space")
    out = np.zeros_like(rho)
    for e in basis.select(lam=lam):
        out += e.matrix * np.trace(e.matrix.conj().T @ rho)
    return out
