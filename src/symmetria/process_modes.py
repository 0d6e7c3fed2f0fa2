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
from functools import cached_property
from itertools import groupby

import numpy as np

from .groups import (SU2, ZN, GroupElement, HaarQuadrature, IrrepLabel,
                     RepSpec, cgc, rep_matrix, wigner_D)
from .ito import build_itos
from .linalg_core import Superoperator, conjugate, vec


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


# Largest mode stack build_canonical_modes allocates, 16 (d_in d_out)^4
# bytes: square carriers up to d = 10 build, d = 11 (3.4 GB) is refused.
MAX_STACK_BYTES = 2 << 30


@dataclass(frozen=True)
class ProcessModeBasis:
    """The process modes of (rep_in, rep_out), stored once as a matrix.

    Row i of the read-only ``stack`` is the vectorised transfer matrix of the
    mode labelled ``labels[i] = (Diagram, k)``.  The rows of one diagram are
    consecutive in descending k; ``spans`` maps each diagram to its slice.
    """

    rep_in: RepSpec
    rep_out: RepSpec
    labels: tuple  # of (Diagram, k), one per row of stack
    stack: np.ndarray  # (n_modes, d_out^2 * d_in^2)

    def __post_init__(self):
        self.stack.setflags(write=False)

    @cached_property
    def spans(self) -> dict:
        spans, start = {}, 0
        for diagram, rows in groupby(self.labels, key=lambda label: label[0]):
            stop = start + len(list(rows))
            spans[diagram] = slice(start, stop)
            start = stop
        return spans

    @cached_property
    def modes(self) -> tuple:
        """One Mode per row; each ``op.transfer`` is a view of its row."""
        d_in, d_out = self.rep_in.dim, self.rep_out.dim
        return tuple(
            Mode(diagram, k,
                 Superoperator(d_in, d_out, row.reshape(d_out**2, d_in**2)))
            for (diagram, k), row in zip(self.labels, self.stack)
        )

    def diagrams(self) -> list[Diagram]:
        return list(self.spans)

    def family(self, diagram: Diagram) -> tuple:
        """Modes of one diagram ordered by descending k."""
        return self.modes[self.spans[diagram]]


@dataclass(frozen=True)
class ModeCoefficients:
    basis: ProcessModeBasis
    values: np.ndarray  # one coefficient per row of basis.stack
    residual: float

    def reconstruct(self) -> Superoperator:
        d_in, d_out = self.basis.rep_in.dim, self.basis.rep_out.dim
        K = self.basis.stack.T @ self.values
        return Superoperator(d_in, d_out, K.reshape(d_out**2, d_in**2))

    def by_diagram(self, diagram: Diagram) -> np.ndarray:
        """Coefficient vector of one diagram, ordered by descending k."""
        return self.values[self.basis.spans[diagram]]

    def is_symmetric(self, tol: float = 1e-10) -> bool:
        """True iff all coefficients on nontrivial-lam diagrams are below tol."""
        return all(np.abs(self.values[span]).max() <= tol
                   for diagram, span in self.basis.spans.items()
                   if not diagram.lam.is_trivial)


def build_canonical_modes(rep_in: RepSpec, rep_out: RepSpec) -> ProcessModeBasis:
    if rep_in.kind != rep_out.kind:
        raise ValueError("input and output reps must share the group kind")
    n = (rep_in.dim * rep_out.dim) ** 2
    if 16 * n * n > MAX_STACK_BYTES:
        raise ValueError(f"the process-mode basis needs {16 * n * n / 2**30:.1f}"
                         " GiB, over the 2 GiB limit")
    itos_in = build_itos(rep_in)
    itos_out = build_itos(rep_out)
    stack = np.zeros((n, n), dtype=complex)
    labels = []
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
                    row = stack[len(labels)].reshape(rep_out.dim**2, rep_in.dim**2)
                    for e_out in out_fam:
                        for e_in in in_fam:
                            c = cgc(e_out.lam, e_out.k, e_in.lam, e_in.k, lam, two_k)
                            if c != 0.0:
                                row += c * np.outer(vec(e_out.matrix),
                                                    vec(e_in.matrix.T))
                    labels.append((diagram, two_k))
    return ProcessModeBasis(rep_in, rep_out, tuple(labels), stack)


def superop_group_action(S: Superoperator, g: GroupElement,
                         rep_in: RepSpec, rep_out: RepSpec) -> Superoperator:
    """The action E -> U'_g o E o U_g^dag on the transfer matrix."""
    if S.dim_in != rep_in.dim or S.dim_out != rep_out.dim:
        raise ValueError("superoperator/rep dimension mismatch")
    return conjugate(S, rep_matrix(rep_out, g), rep_matrix(rep_in, g))


def _mode_values(S: Superoperator, basis: ProcessModeBasis) -> np.ndarray:
    """The coefficients c_i = <mode_i, S>: one pass over the stack."""
    if (S.dim_in, S.dim_out) != (basis.rep_in.dim, basis.rep_out.dim):
        raise ValueError("superoperator/basis dimension mismatch")
    # conj(M) v computed as conj(M conj(v)): never copies the stack
    values = (basis.stack @ S.transfer.reshape(-1).conj()).conj()
    values.setflags(write=False)
    return values


def decompose(S: Superoperator, basis: ProcessModeBasis) -> ModeCoefficients:
    """Coefficients c_i = <mode_i, S> and the norm of what they leave out."""
    values = _mode_values(S, basis)
    residual = np.linalg.norm(S.transfer.reshape(-1) - basis.stack.T @ values)
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
    values = _mode_values(S, basis)
    kept = np.zeros_like(values)
    for diagram, span in basis.spans.items():
        if diagram.lam == lam:
            kept[span] = values[span]
    return ModeCoefficients(basis, kept, 0.0).reconstruct()


def twirl(S: Superoperator, quadrature: HaarQuadrature,
          rep_in: RepSpec, rep_out: RepSpec) -> Superoperator:
    """Group average (G-twirl) of a superoperator."""
    acc = Superoperator.zero(S.dim_in, S.dim_out)
    for g, w in quadrature.nodes:
        acc = acc + w * superop_group_action(S, g, rep_in, rep_out)
    return acc


def is_symmetric(S: Superoperator, basis: ProcessModeBasis, tol: float = 1e-10) -> bool:
    """``ModeCoefficients.is_symmetric`` without decompose's residual."""
    return ModeCoefficients(basis, _mode_values(S, basis), 0.0).is_symmetric(tol)
