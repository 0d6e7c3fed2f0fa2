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

A basis is stored in this factored form (the Wigner-Eckart structure of the
modes): the output and input ITO bases as two unitary matrices and the
Clebsch-Gordan coupling as one sparse matrix.  The dense matrix of all
modes is never needed; ``ProcessModeBasis.stack`` forms it for tests.  The
mode labels are integer row arrays (family pair, lam, k); the Diagram
objects are formed once per diagram, on first read of the labels, so
building, decomposing and testing symmetry create no per-mode Python
objects.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from .groups import (SU2, ZN, GroupElement, HaarQuadrature, IrrepLabel,
                     RepSpec, cg_batch_bytes, cg_blocks, cg_layout,
                     rep_matrix, wigner_d)
from .ito import build_itos, family_keys, family_table
from .linalg_core import Superoperator, conjugate


@dataclass(frozen=True)
class Diagram:
    """Diagram label of a canonical mode.

    ``a_in``/``a_out`` are ITO family keys (IrrepLabel, (bra block, ket
    block)) naming state-modes of the input/output operator spaces; ``lam``
    is the irrep exchanged with the environment.
    """

    a_in: tuple
    a_out: tuple
    lam: IrrepLabel

    def __str__(self):
        return _diagram_label(_family_label(self.a_in), _lab(self.lam),
                              _family_label(self.a_out))


def _lab(l: IrrepLabel) -> str:
    if l.kind == SU2:
        return f"j{l.two_j}/2" if l.two_j % 2 else f"j{l.two_j // 2}"
    return f"q{l.charge}"


def _family_label(key: tuple) -> str:
    """Text of an ITO family key (IrrepLabel, (bra block, ket block))."""
    irrep, blocks = key
    return f"{_lab(irrep)}{blocks}"


def _diagram_label(a_in: str, lam: str, a_out: str) -> str:
    """Text of a diagram from the texts of its families and irrep: the one
    label format, read by ``Diagram.__str__`` and ``diagram_labels``."""
    return f"[{a_in} -> {lam} -> {a_out}]"


@dataclass(frozen=True)
class Mode:
    diagram: Diagram
    k: int  # doubled component weight (SU(2)); 0 for Z_N
    # (ito_out, ito_in, coupling, row) of the basis holding this mode: the
    # factors, not the basis, so that a basis and its modes form no cycle
    source: tuple = field(repr=False, compare=False)

    @cached_property
    def op(self) -> Superoperator:
        """The mode's superoperator, formed from its coupling row once."""
        ito_out, ito_in = self.source[:2]
        return Superoperator(math.isqrt(ito_in.shape[0]),
                             math.isqrt(ito_out.shape[0]),
                             _mode_transfer(*self.source))


def _mode_transfer(ito_out, ito_in, coupling, row, out=None) -> np.ndarray:
    """Transfer matrix of one mode: the sum over its coupling entries
    c_(i,j) of c * outer(ito_out[i], ito_in[j]), i.e. ito_out^T Z ito_in."""
    lo, hi = coupling.indptr[row], coupling.indptr[row + 1]
    i, j = np.divmod(coupling.indices[lo:hi], ito_in.shape[0])
    return np.matmul(ito_out[i].T, coupling.data[lo:hi, None] * ito_in[j],
                     out=out)


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector while one object per mode or per
    diagram is made: they form no cycles, and for d^4 (or d^3) of them its
    passes would cost more than making them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# The memory budget of one library call or CLI command: build_canonical_modes
# refuses a basis whose predicted size (_basis_bytes) is over it, ``stack`` a
# dense matrix of 16 (d_in d_out)^4 bytes over it (square d >= 11), and every
# other predicted peak is refused through ``check_budget``.
MAX_STACK_BYTES = 2 << 30


def check_budget(need: int, what: str):
    """Raise ValueError if ``what`` is predicted to need more than
    MAX_STACK_BYTES; the one place the budget is compared."""
    if need > MAX_STACK_BYTES:
        raise ValueError(f"{what} needs about {need / 2**30:.3g} GiB, over "
                         f"the {MAX_STACK_BYTES / 2**30:g} GiB budget")


@dataclass(frozen=True)
class ProcessModeBasis:
    """The process modes of (rep_in, rep_out), stored once in factored form.

    Rows of ``ito_out`` are vec(T^atilde) over the output ITO basis, rows of
    ``ito_in`` are vec((T^a)^T) over the input ITO basis; both are unitary.
    Row i of the sparse ``coupling`` holds the coefficients of mode i over
    the (output ITO, input ITO) pairs, column i_out * d_in^2 + i_in.  The
    vectorised transfer matrices of all modes are the rows of
    coupling . (ito_out (x) ito_in), which is never formed.

    Mode i is labelled by three read-only integer arrays: ``pair[i]`` is its
    (output family, input family) pair, f_out * len(families[1]) + f_in,
    over the ITO family keys ``families`` = (output keys, input keys), each
    key (IrrepLabel, (bra block, ket block)) and formed from the reps on
    first read; ``lam[i]`` is the irrep it exchanges (doubled J for SU(2),
    charge for Z_N); ``k[i]`` its doubled component weight (0 for Z_N).
    The rows of one diagram are consecutive in descending k.
    ``diagram_rows`` (the change points of (pair, lam):
    each diagram's rows, families and lam as arrays) is formed from them on
    first read, and ``labels`` ((Diagram, k) per row), ``spans`` (each
    diagram's slice), ``diagrams()``, ``family()`` and ``modes`` from those,
    with one Diagram per diagram.  ``diagram_labels()`` (a report's text)
    forms no Diagram.
    """

    rep_in: RepSpec
    rep_out: RepSpec
    pair: np.ndarray  # (n_modes,) int32
    lam: np.ndarray  # (n_modes,) int32
    k: np.ndarray  # (n_modes,) int32
    ito_out: np.ndarray  # (d_out^2, d_out^2)
    ito_in: np.ndarray  # (d_in^2, d_in^2)
    coupling: sparse.csr_matrix  # (n_modes, d_out^2 * d_in^2)

    def __post_init__(self):
        for arr in (self.pair, self.lam, self.k, self.ito_out, self.ito_in,
                    self.coupling.data, self.coupling.indices,
                    self.coupling.indptr):
            arr.setflags(write=False)

    @cached_property
    def families(self) -> tuple:
        """(output family keys, input family keys)."""
        keys_out = tuple(family_keys(self.rep_out))
        if self.rep_in is self.rep_out:
            return keys_out, keys_out
        return keys_out, tuple(family_keys(self.rep_in))

    def _irrep(self, lam: int) -> IrrepLabel:
        """The irrep of a ``lam`` entry."""
        if self.rep_out.kind == SU2:
            return IrrepLabel.su2(lam)
        return IrrepLabel.zn(lam, self.rep_out.modulus)

    @cached_property
    def diagram_rows(self) -> tuple:
        """Read-only integer arrays (bounds, f_out, f_in, lam) over the
        diagrams in row order: diagram i holds rows bounds[i] to
        bounds[i + 1] (bounds ends with the row count), its output and input
        family indices into ``families`` and its ``lam``."""
        new = ((self.pair[1:] != self.pair[:-1])
               | (self.lam[1:] != self.lam[:-1]))
        bounds = np.concatenate(([0], np.flatnonzero(new) + 1, [len(self.k)]))
        starts = bounds[:-1]
        rows = (bounds, *np.divmod(self.pair[starts], len(self.families[1])),
                self.lam[starts])
        for arr in rows:
            arr.setflags(write=False)
        return rows

    @cached_property
    def spans(self) -> dict:
        """Each diagram's slice of rows, in row order."""
        bounds, f_out, f_in, lams = (a.tolist() for a in self.diagram_rows)
        irreps = {lam: self._irrep(lam) for lam in set(lams)}
        keys_out, keys_in = self.families
        with _collector_paused():
            diagrams = [Diagram(keys_in[i], keys_out[o], irreps[lam])
                        for o, i, lam in zip(f_out, f_in, lams)]
            return dict(zip(diagrams, map(slice, bounds[:-1], bounds[1:])))

    def diagram_labels(self) -> list[str]:
        """``str`` of each diagram in row order, joined from one text per
        family and per irrep: no Diagram is formed."""
        _, f_out, f_in, lams = (a.tolist() for a in self.diagram_rows)
        outs, ins = ([_family_label(key) for key in keys]
                     for keys in self.families)
        irreps = {lam: _lab(self._irrep(lam)) for lam in set(lams)}
        return [_diagram_label(ins[i], irreps[lam], outs[o])
                for o, i, lam in zip(f_out, f_in, lams)]

    @cached_property
    def labels(self) -> tuple:
        """(Diagram, k) of each row."""
        diagrams = np.empty(len(self.spans), dtype=object)
        diagrams[:] = list(self.spans)
        rows = [span.stop - span.start for span in self.spans.values()]
        with _collector_paused():
            return tuple(zip(np.repeat(diagrams, rows).tolist(),
                             self.k.tolist()))

    @cached_property
    def _coupling_t(self) -> sparse.csc_matrix:
        """The coupling's transpose, a view sharing its arrays."""
        return self.coupling.T

    @cached_property
    def _nontrivial(self) -> np.ndarray:
        """Mask of the modes whose diagram exchanges a nontrivial lam (the
        trivial irrep is lam = 0 for either group)."""
        mask = self.lam != 0
        mask.setflags(write=False)
        return mask

    @cached_property
    def modes(self) -> tuple:
        """One Mode per row; each ``op`` is formed on first access."""
        factors = (self.ito_out, self.ito_in, self.coupling)
        k = self.k.tolist()
        with _collector_paused():
            return tuple(Mode(diagram, k[row], factors + (row,))
                         for diagram, span in self.spans.items()
                         for row in range(span.start, span.stop))

    @cached_property
    def stack(self) -> np.ndarray:
        """Read-only dense (n_modes, d_out^2 d_in^2) matrix whose row i is
        the vectorised transfer matrix of mode i, bit-identical to
        ``modes[i].op``.  An oracle for tests: formed on first access, row
        by row, and refused over MAX_STACK_BYTES."""
        d_out2, d_in2 = self.ito_out.shape[0], self.ito_in.shape[0]
        n = self.coupling.shape[0]
        check_budget(16 * n * d_out2 * d_in2, "the dense mode stack")
        stack = np.empty((n, d_out2 * d_in2), dtype=complex)
        rows = stack.reshape(n, d_out2, d_in2)
        for row in range(n):
            _mode_transfer(self.ito_out, self.ito_in, self.coupling, row,
                           out=rows[row])
        stack.setflags(write=False)
        return stack

    def diagrams(self) -> list[Diagram]:
        return list(self.spans)

    def family(self, diagram: Diagram) -> tuple:
        """Modes of one diagram ordered by descending k."""
        return self.modes[self.spans[diagram]]


@dataclass(frozen=True)
class ModeCoefficients:
    basis: ProcessModeBasis
    values: np.ndarray  # one coefficient per mode
    residual: float

    def reconstruct(self) -> Superoperator:
        d_in, d_out = self.basis.rep_in.dim, self.basis.rep_out.dim
        return Superoperator(d_in, d_out, _transfer_of(self.values, self.basis))

    def by_diagram(self, diagram: Diagram) -> np.ndarray:
        """Coefficient vector of one diagram, ordered by descending k."""
        return self.values[self.basis.spans[diagram]]

    def is_symmetric(self, tol: float = 1e-10) -> bool:
        """True iff all coefficients on nontrivial-lam diagrams are below tol."""
        return bool(np.all(np.abs(self.values[self.basis._nontrivial]) <= tol))


def _cg_nnz(two_j1, two_j2):
    """Stored entries of the Clebsch-Gordan block of (two_j1, two_j2), as
    ``groups.cg_layout`` lays it out: the squared sizes of its weight
    subspaces, (d1 - 1) d1 (2 d1 - 1) / 3 + (d2 - d1 + 1) d1^2 for
    d1 <= d2.  Also elementwise on integer arrays."""
    gap = abs(two_j1 - two_j2)
    d1 = (two_j1 + two_j2 - gap) // 2 + 1
    return (d1 - 1) * d1 * (2 * d1 - 1) // 3 + (gap + 1) * d1 * d1


# Bytes of one row's entries in ``pair``, ``lam`` and ``k``; of one label
# (a 2-tuple and its slot in ``labels``, formed on first read) and of one
# Diagram with its instance dictionary, as measured on CPython 3.11.
_ROW_BYTES = 12
_LABEL_BYTES = 64
_DIAGRAM_BYTES = 104

# Coupling entries gathered in one pass of build_canonical_modes: a run of
# family pairs ends before the first pair that starts past a multiple of
# it.  A pass holds about _FILL_BYTES per entry, as traced.
_FILL_ENTRIES = 1 << 15
_FILL_BYTES = 96


def _family_spins(rep: RepSpec) -> dict:
    """{doubled spin: how many ITO families of ``rep`` have it}, read from
    ``family_table`` (every spin 0 for Z_N)."""
    lam = family_table(rep)[0] * (rep.kind == SU2)
    return {t: n for t, n in enumerate(np.bincount(lam).tolist()) if n}


def _cold_pairs(spins_out, spins_in, rep_in: RepSpec,
                rep_out: RepSpec) -> set:
    """The Clebsch-Gordan blocks a build reads, from the doubled spins of
    the ITO families on each side: each (output, input) family spin pair
    for the coupling, and each pair of one side's block spins for its ITO
    basis."""
    pairs = {(a, b) for a in spins_out for b in spins_in}
    for rep in (rep_out, rep_in):
        if rep.kind == SU2:
            spins = {lab.two_j for lab in rep.blocks}
            pairs |= {(a, b) for a in spins for b in spins}
    return pairs


def _cg_cache_bytes(pairs) -> int:
    """Bytes the Clebsch-Gordan cache holds for the blocks ``pairs``: 12
    per stored entry (its value and column) and 12 per row (its entry
    count, doubled J and doubled M)."""
    return sum(12 * (_cg_nnz(a, b) + (a + 1) * (b + 1)) for a, b in pairs)


def _basis_bytes(rep_in: RepSpec, rep_out: RepSpec) -> int:
    """Bytes build_canonical_modes holds for the basis of (rep_in, rep_out),
    predicted from the ITO family spins alone: per side its ITO array, the
    Clebsch-Gordan blocks read (cached by ``cg_blocks``, ITO and coupling
    blocks alike), the CSR coupling, the row arrays and the labels, and
    beside them the largest working set: the build's copy of each ITO
    array, its batch of cold Clebsch-Gordan solves, one pass of its
    coupling gather, or one ``decompose``'s three working arrays of n
    complex entries (its products, values and reconstruction)."""
    n = rep_in.dim ** 2 * rep_out.dim ** 2
    itos = rep_in.dim ** 4 + rep_out.dim ** 4
    spins_out = _family_spins(rep_out)
    spins_in = spins_out if rep_in is rep_out else _family_spins(rep_in)
    nnz = largest = diagrams = 0
    for a, count_a in spins_out.items():
        for b, count_b in spins_in.items():
            pairs, k = count_a * count_b, _cg_nnz(a, b)
            nnz, largest = nnz + pairs * k, max(largest, k)
            diagrams += pairs * (min(a, b) + 1)
    cold = _cold_pairs(spins_out, spins_in, rep_in, rep_out)
    fill = _FILL_BYTES * min(nnz, _FILL_ENTRIES + largest)
    index = 4 if max(n, nnz) < 2 ** 31 else 8
    return (16 * itos + max(16 * itos, 48 * n, cg_batch_bytes(cold), fill)
            + _cg_cache_bytes(cold) + (8 + index) * nnz + index * (n + 1)
            + (_ROW_BYTES + _LABEL_BYTES) * n + _DIAGRAM_BYTES * diagrams)


def build_canonical_modes(rep_in: RepSpec, rep_out: RepSpec) -> ProcessModeBasis:
    if rep_in.kind != rep_out.kind:
        raise ValueError("input and output reps must share the group kind")
    if rep_in.kind == ZN and rep_in.modulus != rep_out.modulus:
        raise ValueError("input and output Z_N reps must share the modulus")
    check_budget(_basis_bytes(rep_in, rep_out), "the process-mode basis")
    # each ITO family's lam: its doubled spin (SU(2)) or charge (Z_N)
    q_out = family_table(rep_out)[0]
    q_in = q_out if rep_in is rep_out else family_table(rep_in)[0]
    s_out, s_in = (q_out, q_in) if rep_out.kind == SU2 else (0 * q_out,
                                                             0 * q_in)
    # the blocks the build reads are solved in one batch, before any array
    # of the basis exists
    cg_blocks(_cold_pairs(set(s_out.tolist()), set(s_in.tolist()), rep_in,
                          rep_out))
    itos_out = build_itos(rep_out)
    itos_in = itos_out if rep_in is rep_out else build_itos(rep_in)
    # row i of ito_out is vec(T_i), of ito_in vec(T_i^T)
    ito_out = itos_out.matrices.reshape(len(itos_out.k), -1)
    ito_in = itos_in.matrices.transpose(0, 2, 1).reshape(len(itos_in.k), -1)
    n_in = len(ito_in)

    # one pair of families per block of rows, output family outermost; the
    # pairs of one spin pair share one Clebsch-Gordan block, whose entry
    # (m_out, m_in) lands in column (first_out + m_out, first_in + m_in)
    # and whose row (J, M) is the mode (pair, lam = J, k = M)
    first_out, first_in = (s.cumsum() + np.arange(len(s)) - s
                           for s in (s_out, s_in))
    f_out, f_in = np.divmod(np.arange(len(s_out) * len(s_in)), len(s_in))
    a, b = s_out[f_out], s_in[f_in]
    base = first_out[f_out] * n_in + first_in[f_in]
    nnz, n_rows = _cg_nnz(a, b), (a + 1) * (b + 1)
    nz0, row0 = nnz.cumsum() - nnz, n_rows.cumsum() - n_rows
    n_nz, n_modes = int(nz0[-1] + nnz[-1]), int(row0[-1] + n_rows[-1])
    index = np.int32 if max(n_modes, n_nz) < 2 ** 31 else np.int64
    data = np.empty(n_nz)
    indices = np.empty(n_nz, dtype=index)
    indptr = np.zeros(n_modes + 1, dtype=index)
    pair = np.arange(len(nnz), dtype=np.int32).repeat(n_rows)
    lam = np.empty(n_modes, dtype=np.int32)
    k = np.empty(n_modes, dtype=np.int32)
    # a run of pairs, gathered in one pass, ends before the first pair to
    # start past a multiple of _FILL_ENTRIES
    run = nz0 // _FILL_ENTRIES
    cuts = [0] + (np.flatnonzero(run[1:] != run[:-1]) + 1).tolist()
    for lo, hi in zip(cuts, cuts[1:] + [len(nnz)]):
        c_data, m_out, m_in, c_row_nnz, two_J, two_M, c_nnz = cg_layout(
            a[lo:hi], b[lo:hi])
        e0, r0 = nz0[lo], row0[lo]
        e1, r1 = e0 + len(c_data), r0 + len(two_J)
        data[e0:e1] = c_data
        indices[e0:e1] = m_out * n_in + m_in + base[lo:hi].repeat(c_nnz)
        indptr[r0 + 1:r1 + 1] = c_row_nnz
        lam[r0:r1], k[r0:r1] = two_J, two_M
    np.cumsum(indptr, dtype=index, out=indptr)
    coupling = sparse.csr_matrix((data, indices, indptr),
                                 shape=(n_modes, len(ito_out) * n_in))
    if rep_out.kind == ZN:  # one row per pair, of charge q_out + q_in
        lam[:] = (q_out[f_out] + q_in[f_in]) % rep_out.modulus
    return ProcessModeBasis(rep_in, rep_out, pair, lam, k, ito_out, ito_in,
                            coupling)


def superop_group_action(S: Superoperator, g: GroupElement,
                         rep_in: RepSpec, rep_out: RepSpec) -> Superoperator:
    """The action E -> U'_g o E o U_g^dag on the transfer matrix."""
    if S.dim_in != rep_in.dim or S.dim_out != rep_out.dim:
        raise ValueError("superoperator/rep dimension mismatch")
    return conjugate(S, rep_matrix(rep_out, g), rep_matrix(rep_in, g))


def _mode_values(K: np.ndarray, basis: ProcessModeBasis) -> np.ndarray:
    """The coefficients c_i = <mode_i, K> = conj(R conj(vec(conj(A) K B^dag)))
    for A = ito_out, B = ito_in and R = coupling, of a transfer matrix K or
    along a leading stack axis of them: two small products per matrix and
    one sparse product."""
    if K.shape[-2:] != (basis.ito_out.shape[0], basis.ito_in.shape[0]):
        raise ValueError("superoperator/basis dimension mismatch")
    y = basis.ito_out @ K.conj() @ basis.ito_in.T
    values = _coupling_product(basis.coupling,
                               y.reshape(*K.shape[:-2], -1).T).T
    np.conjugate(values, out=values)
    values.setflags(write=False)
    return values


def _coupling_product(R, x: np.ndarray) -> np.ndarray:
    """R x for a sparse coupling R (or its transpose) and a complex vector
    or matrix x.  A real R, as every built basis has, multiplies the (real,
    imag) pairs of x in one real product: R @ x would first copy R's data
    to complex."""
    if R.dtype.kind == "c":
        return R @ x
    pairs = np.ascontiguousarray(x, dtype=complex).view(float)
    return (R @ pairs.reshape(len(x), -1)).view(complex).reshape(
        -1, *x.shape[1:])


def _transfer_of(values: np.ndarray, basis: ProcessModeBasis) -> np.ndarray:
    """sum_i values_i * (transfer matrix of mode i) = A^T Z B, with Z the
    coupling's transpose applied to the values, for one vector of values or
    along a leading stack axis of them."""
    Z = _coupling_product(basis._coupling_t, values.T).T
    # rebinding Z frees each product's input as the next is formed
    Z = basis.ito_out.T @ Z.reshape(*values.shape[:-1], len(basis.ito_out),
                                    -1)
    return Z @ basis.ito_in


def decompose(S: Superoperator, basis: ProcessModeBasis) -> ModeCoefficients:
    """Coefficients c_i = <mode_i, S> and the norm of what they leave out."""
    values = _mode_values(S.transfer, basis)
    left_out = _transfer_of(values, basis)
    left_out -= S.transfer
    return ModeCoefficients(basis, values, float(np.linalg.norm(left_out)))


def _charges(rep: RepSpec) -> np.ndarray:
    """The diagonal part of the rep on its canonical basis: the doubled J_z
    weight (SU(2)) or the Z_N charge of each basis vector."""
    if rep.kind == SU2:
        return np.array([m for lab, _, _ in rep.irrep_blocks()
                         for m in lab.components()])
    return np.array([lab.charge for lab, _, _ in rep.irrep_blocks()])


def _beta_conjugations(rep: RepSpec, betas) -> np.ndarray:
    """d(beta) (x) d(beta) for each beta, with d(beta) the real rep matrix of
    exp(-i beta J_y) on the canonical basis: shape (len(betas), d^2, d^2)."""
    d = np.zeros((len(betas), rep.dim, rep.dim))
    for lab, _, off in rep.irrep_blocks():
        d[:, off:off + lab.dim, off:off + lab.dim] = wigner_d(lab.two_j, betas)
    return np.einsum("kab,kcd->kacbd", d, d).reshape(len(betas), rep.dim ** 2,
                                                     rep.dim ** 2)


def project_isotypic(S: Superoperator, lam: IrrepLabel, quadrature: HaarQuadrature,
                     rep_in: RepSpec, rep_out: RepSpec) -> Superoperator:
    """Isotypic projector E^lam = dim(lam) sum_g w(g) conj(character_lam(g))
    U'_g o E o U_g^dag, from the quadrature's Euler factors, not its nodes.

    In the canonical frame (intertwiners removed) U_g is diagonal times
    d(beta) times diagonal, and conjugating by a diagonal phase multiplies
    the transfer entry [(a, b), (c, e)] by a phase in its charge difference
    q = q'_a - q'_b - q_c + q_e (doubled weights for SU(2)).  The uniform
    average over n grid points of that phase times conj(omega^(m g)) is the
    mask q = m mod n, exactly, bandlimited input or not.  Z_N: one mask at
    m = charge (the conjugated character matters: it is complex).  SU(2):
    the character is sum_m exp(-i m alpha) d^lam_mm(beta) exp(-i m gamma),
    so each weight m adds the gamma mask, the d(beta) conjugations weighted
    by w(beta) d^lam_mm(beta), then the alpha mask.
    """
    if S.dim_in != rep_in.dim or S.dim_out != rep_out.dim:
        raise ValueError("superoperator/rep dimension mismatch")
    if (not lam.kind == quadrature.kind == rep_in.kind == rep_out.kind
            or lam.modulus != quadrature.modulus):
        raise ValueError("irrep, quadrature and reps of different groups")
    n = quadrature.modulus if lam.kind == ZN else quadrature.n_angle
    if lam.kind == ZN and not rep_in.modulus == rep_out.modulus == n:
        raise ValueError("Z_N modulus mismatch")
    if n <= 0:
        raise ValueError("the quadrature carries no Euler factors")
    frames = None
    if rep_out.intertwiner is not None or rep_in.intertwiner is not None:
        frames = [np.eye(rep.dim) if rep.intertwiner is None
                  else rep.intertwiner for rep in (rep_out, rep_in)]
        S = conjugate(S, frames[0].conj().T, frames[1].conj().T)
    q_out, q_in = _charges(rep_out), _charges(rep_in)
    q = ((q_out[:, None] - q_out).reshape(-1, 1)
         - (q_in[:, None] - q_in).reshape(-1))
    if quadrature.kind == ZN:
        K = np.where((q - lam.charge) % n == 0, S.transfer, 0.0)
    else:
        A = _beta_conjugations(rep_out, quadrature.betas)
        B = (A if rep_in is rep_out else _beta_conjugations(
            rep_in, quadrature.betas)).transpose(0, 2, 1)
        d = wigner_d(lam.two_j, quadrature.betas)
        K = 0.0
        for i, two_m in enumerate(lam.components()):
            mask = (q - two_m) % n == 0
            w = np.multiply(quadrature.beta_weights, d[:, i, i])
            K = K + np.where(mask, np.tensordot(
                w, A @ np.where(mask, S.transfer, 0.0) @ B, 1), 0.0)
    P = Superoperator(S.dim_in, S.dim_out, lam.dim * K)
    return P if frames is None else conjugate(P, *frames)


def project_isotypic_basis(S: Superoperator, lam: IrrepLabel,
                           basis: ProcessModeBasis) -> Superoperator:
    """Algebraic isotypic projection via the mode basis (primary route)."""
    values = _mode_values(S.transfer, basis)
    code = lam.two_j if lam.kind == SU2 else lam.charge
    # an irrep of another group or modulus keeps no row
    kept = np.where((basis.lam == code) & (basis._irrep(code) == lam),
                    values, 0.0)
    return ModeCoefficients(basis, kept, 0.0).reconstruct()


def twirl(S: Superoperator, quadrature: HaarQuadrature,
          rep_in: RepSpec, rep_out: RepSpec) -> Superoperator:
    """Group average (G-twirl) of a superoperator: the isotypic projection
    onto the trivial irrep, whose character is 1."""
    trivial = IrrepLabel(quadrature.kind, modulus=quadrature.modulus)
    return project_isotypic(S, trivial, quadrature, rep_in, rep_out)


def is_symmetric(S: Superoperator, basis: ProcessModeBasis) -> bool:
    """``ModeCoefficients.is_symmetric()`` without decompose's residual."""
    values = _mode_values(S.transfer, basis)
    return ModeCoefficients(basis, values, 0.0).is_symmetric()
