"""Canonical irreducible tensor superoperators (process modes), mode
decomposition of superoperators, the group action on superoperators and
symmetry testing.

A canonical mode couples one input state-mode T^a and one output state-mode
T^atilde through a Clebsch-Gordan coefficient:

    Phi^{lam,(atilde,a)}_k(rho) = sum_{m,n} C(atilde m; a n | lam k)
                                  T^atilde_m tr(T^a_n rho).

With the ITO conventions of :mod:`symmetria.ito` these satisfy the
column-form covariance law

    U'_g o Phi_k o U_g^dag = sum_j D^lam(g)_{jk} Phi_j

and are orthonormal in the Choi (Hilbert-Schmidt) inner product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (SU2, ZN, GroupElement, HaarQuadrature, IrrepLabel,
                     RepSpec, cgc, rep_matrix, wigner_D)
from .ito import ITOBasis, build_itos
from .linalg_core import Superoperator, conjugate, hs_inner, vec


@dataclass(frozen=True)
class Diagram:
    """Diagram label of a canonical mode.

    ``a_in``/``a_out`` are (IrrepLabel, multiplicity-index) pairs referring
    to state-modes of the input/output operator spaces; ``lam`` is the irrep
    exchanged with the environment.
    """

    a_in: tuple
    a_out: tuple
    lam: IrrepLabel

    def __str__(self):
        (ai, mi), (ao, mo) = self.a_in, self.a_out
        return f"[{_lab(ai)}{mi} -> {_lab(self.lam)} -> {_lab(ao)}{mo}]"


def _lab(l: IrrepLabel) -> str:
    if l.kind == SU2:
        return f"j{l.two_j}/2" if l.two_j % 2 else f"j{l.two_j // 2}"
    return f"q{l.charge}"


@dataclass(frozen=True)
class Mode:
    diagram: Diagram
    k: int  # doubled component weight (SU(2)); 0 for Z_N
    op: Superoperator


@dataclass(frozen=True)
class ProcessModeBasis:
    rep_in: RepSpec
    rep_out: RepSpec
    modes: tuple  # of Mode
    itos_in: ITOBasis
    itos_out: ITOBasis

    def select(self, lam: IrrepLabel | None = None, diagram: Diagram | None = None):
        out = []
        for m in self.modes:
            if lam is not None and m.diagram.lam != lam:
                continue
            if diagram is not None and m.diagram != diagram:
                continue
            out.append(m)
        return out

    def diagrams(self) -> list[Diagram]:
        seen = []
        for m in self.modes:
            if m.diagram not in seen:
                seen.append(m.diagram)
        return seen

    def family(self, diagram: Diagram) -> list[Mode]:
        """Modes of one diagram ordered by descending k."""
        fam = self.select(diagram=diagram)
        fam.sort(key=lambda m: -m.k)
        return fam


@dataclass(frozen=True)
class ModeCoefficients:
    basis: ProcessModeBasis
    values: dict  # (Diagram, k) -> complex
    residual: float

    def reconstruct(self) -> Superoperator:
        out = Superoperator.zero(self.basis.rep_in.dim, self.basis.rep_out.dim)
        for m in self.basis.modes:
            out = out + self.values[(m.diagram, m.k)] * m.op
        return out

    def by_diagram(self, diagram: Diagram) -> np.ndarray:
        """Coefficient vector of one diagram, ordered by descending k."""
        fam = self.basis.family(diagram)
        return np.array([self.values[(diagram, m.k)] for m in fam])


def _mode_superop(itos_in, itos_out, in_fam, out_fam, lam, two_k,
                  dim_in, dim_out) -> Superoperator:
    K = np.zeros((dim_out**2, dim_in**2), dtype=complex)
    for e_out in out_fam:
        for e_in in in_fam:
            c = cgc(e_out.lam, e_out.k, e_in.lam, e_in.k, lam, two_k)
            if c == 0.0:
                continue
            K += c * np.outer(vec(e_out.matrix), vec(e_in.matrix.T))
    return Superoperator.from_transfer(K, dim_in, dim_out)


def build_canonical_modes(rep_in: RepSpec, rep_out: RepSpec) -> ProcessModeBasis:
    if rep_in.kind != rep_out.kind:
        raise ValueError("input and output reps must share the group kind")
    itos_in = build_itos(rep_in)
    itos_out = build_itos(rep_out)
    modes = []
    for (a_out_lam, a_out_mult), out_fam in itos_out.families():
        for (a_in_lam, a_in_mult), in_fam in itos_in.families():
            if rep_in.kind == ZN:
                lam_list = [IrrepLabel.zn(a_out_lam.charge + a_in_lam.charge,
                                          rep_in.modulus)]
            else:
                lam_list = [
                    IrrepLabel.su2(t)
                    for t in range(abs(a_out_lam.two_j - a_in_lam.two_j),
                                   a_out_lam.two_j + a_in_lam.two_j + 2, 2)
                ]
            diag_base = dict(a_in=(a_in_lam, a_in_mult), a_out=(a_out_lam, a_out_mult))
            for lam in lam_list:
                diagram = Diagram(lam=lam, **diag_base)
                for two_k in lam.components():
                    op = _mode_superop(itos_in, itos_out, in_fam, out_fam,
                                       lam, two_k, rep_in.dim, rep_out.dim)
                    modes.append(Mode(diagram, two_k, op))
    return ProcessModeBasis(rep_in, rep_out, tuple(modes), itos_in, itos_out)


def superop_group_action(S: Superoperator, g: GroupElement,
                         rep_in: RepSpec, rep_out: RepSpec) -> Superoperator:
    """The action E -> U'_g o E o U_g^dag on the transfer matrix."""
    if S.dim_in != rep_in.dim or S.dim_out != rep_out.dim:
        raise ValueError("superoperator/rep dimension mismatch")
    return conjugate(S, rep_matrix(rep_out, g), rep_matrix(rep_in, g))


def decompose(S: Superoperator, basis: ProcessModeBasis) -> ModeCoefficients:
    values = {}
    for m in basis.modes:
        values[(m.diagram, m.k)] = hs_inner(m.op, S)
    out = ModeCoefficients(basis, values, 0.0)
    residual = (S - out.reconstruct()).norm()
    return ModeCoefficients(basis, values, float(residual))


def project_isotypic(S: Superoperator, lam: IrrepLabel, quadrature: HaarQuadrature,
                     rep_in: RepSpec, rep_out: RepSpec) -> Superoperator:
    """Quadrature isotypic projector
    E^lam = dim(lam) * integral of conj(character_lam(g)) U'_g o E o U_g^dag.

    (The conjugated character is required for complex characters, e.g. Z_N;
    SU(2) characters are real so conjugation is a no-op there.)
    """
    acc = Superoperator.zero(S.dim_in, S.dim_out)
    for g, w in quadrature.nodes:
        ch = np.conj(np.trace(wigner_D(lam, g)))
        acc = acc + (w * lam.dim * ch) * superop_group_action(S, g, rep_in, rep_out)
    return acc


def project_isotypic_basis(S: Superoperator, lam: IrrepLabel,
                           basis: ProcessModeBasis) -> Superoperator:
    """Algebraic isotypic projection via the mode basis (primary route)."""
    acc = Superoperator.zero(S.dim_in, S.dim_out)
    for m in basis.select(lam=lam):
        acc = acc + hs_inner(m.op, S) * m.op
    return acc


def twirl(S: Superoperator, quadrature: HaarQuadrature,
          rep_in: RepSpec, rep_out: RepSpec) -> Superoperator:
    """Group average (G-twirl) of a superoperator."""
    acc = Superoperator.zero(S.dim_in, S.dim_out)
    for g, w in quadrature.nodes:
        acc = acc + w * superop_group_action(S, g, rep_in, rep_out)
    return acc


def is_symmetric(S: Superoperator, basis: ProcessModeBasis, tol: float = 1e-10) -> bool:
    """True iff all coefficients on nontrivial-lam diagrams are below tol."""
    coeffs = decompose(S, basis)
    triv = _trivial_label(basis.rep_in)
    for (diagram, k), v in coeffs.values.items():
        if diagram.lam != triv and abs(v) > tol:
            return False
    return True


def _trivial_label(rep: RepSpec) -> IrrepLabel:
    if rep.kind == SU2:
        return IrrepLabel.su2(0)
    return IrrepLabel.zn(0, rep.modulus)
