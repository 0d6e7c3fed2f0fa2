"""Globally symmetric bipartite superoperators: the invariant basis built
from dual pairs of local process modes, diagram classification, and the
complete two-qubit catalogs (injection region, relational region, extremal
processes, Heisenberg unitary).

Every globally symmetric process on A (x) B decomposes over elements

    chi_theta = sum_k (-1)^(lam-k) Phi^lam_{A,k} (x) Phi^lam_{B,-k}

(one per pair of local diagrams carrying mutually dual irreps; for Z_N the
pairing is Phi^lam (x) Phi^{-lam}).  Each chi_theta is invariant under the
diagonal group action and <chi, chi> = dim(lam).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .groups import (ZN, GroupElement, IrrepLabel, RepSpec, cg_rows,
                     rep_matrix)
from .linalg_core import (CptpReport, Superoperator, conjugate, cptp_report,
                          kron, unitary_channel, vec)
from .process_modes import (Diagram, ProcessModeBasis, _mode_values,
                            _transfer_of, build_canonical_modes, check_budget)

LOCAL = "local"
INJECTION = "injection"
RELATIONAL = "relational"
# Each region family's theta terms, in the order its channel adds them
_FAMILY_TERMS = {INJECTION: ("theta1", "theta2", "theta3"),
                 RELATIONAL: ("theta4", "theta5", "theta6", "theta7", "theta8")}

BOUNDARY_TOL = 1e-9  # slack on the analytic injection-region boundary
REGION_PSD_TOL = 1e-8  # CP slack of the region scans' minimum eigenvalue


@dataclass(frozen=True)
class BipartiteDiagram:
    """A pair of local diagrams carrying mutually dual irreps."""

    diag_a: Diagram
    diag_b: Diagram

    def __post_init__(self):
        la, lb = self.diag_a.lam, self.diag_b.lam
        if la.dual() != lb:
            raise ValueError("B-side irrep must be dual to the A-side irrep")
        # hashed once: it keys every coefficient dict
        object.__setattr__(self, "_hash", hash((self.diag_a, self.diag_b)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self):
        return f"{self.diag_a} (x) {self.diag_b}"


def classify(theta: BipartiteDiagram) -> str:
    """Local iff the exchanged irrep is trivial; injection iff one output
    state-mode is trivial; relational otherwise."""
    if theta.diag_a.lam.is_trivial:
        return LOCAL
    a_out_trivial = theta.diag_a.a_out[0].is_trivial
    b_out_trivial = theta.diag_b.a_out[0].is_trivial
    if a_out_trivial or b_out_trivial:
        return INJECTION
    return RELATIONAL


def pair_sum(basis_a: ProcessModeBasis, basis_b: ProcessModeBasis, rows_a,
             rows_b, w) -> Superoperator:
    """sum_p w[p] M^A_{rows_a[p]} (x) M^B_{rows_b[p]} over distinct pairs of
    modes of the two local bases, with no mode's superoperator formed: the
    weights fill an (A mode x B mode) matrix whose rows are taken to B
    transfer matrices and then whose columns to A transfer matrices (the
    transposes of decompose_symmetric's two contractions), and the result
    is realigned."""
    W = np.zeros((len(basis_a.k), len(basis_b.k)), dtype=complex)
    W[rows_a, rows_b] = w
    X = _transfer_of(W, basis_b).reshape(len(W), -1).T
    del W  # freed before the second contraction, which sets the peak
    d_ao, d_bo = basis_a.rep_out.dim, basis_b.rep_out.dim
    d_ai, d_bi = basis_a.rep_in.dim, basis_b.rep_in.dim
    K = _transfer_of(X, basis_a).reshape(d_bo, d_bo, d_bi, d_bi, d_ao,
                                           d_ao, d_ai, d_ai)
    K = K.transpose(4, 0, 5, 1, 6, 2, 7, 3).reshape((d_ao * d_bo) ** 2, -1)
    return Superoperator(d_ai * d_bi, d_ao * d_bo, K)


@dataclass(frozen=True, eq=False, repr=False)
class SymmetricElement:
    """chi_theta = sum_p signs[p] M^A_{rows_a[p]} (x) M^B_{rows_b[p]}: the A
    rows of its diagram and the B rows reversed, so that weight k meets -k.
    ``op``, of norm sqrt(dim lam), is formed on first read."""

    diagram: BipartiteDiagram
    basis_a: ProcessModeBasis
    basis_b: ProcessModeBasis
    rows_a: np.ndarray
    rows_b: np.ndarray
    signs: np.ndarray

    @cached_property
    def op(self) -> Superoperator:
        return pair_sum(self.basis_a, self.basis_b, self.rows_a, self.rows_b,
                        self.signs)


@dataclass(frozen=True)
class SymmetricBasis:
    basis_a: ProcessModeBasis
    basis_b: ProcessModeBasis
    elements: tuple  # of SymmetricElement

    @cached_property
    def pairs(self) -> tuple:
        """(rows_a, rows_b, signs), each of shape (longest element,
        elements): column e holds element e's pairs in order, padded with
        sign 0 at the row pair (0, 0), so one gather C[rows_a, rows_b] reads
        every element's pairs and a sum over axis 0 adds each element's
        terms in order.  Cached, and read-only."""
        n = max(len(e.signs) for e in self.elements)
        shape = (n, len(self.elements))
        rows_a, rows_b = np.zeros(shape, dtype=int), np.zeros(shape, dtype=int)
        signs = np.zeros(shape)
        for i, e in enumerate(self.elements):
            k = len(e.signs)
            rows_a[:k, i], rows_b[:k, i], signs[:k, i] = (e.rows_a, e.rows_b,
                                                          e.signs)
        for arr in (rows_a, rows_b, signs):
            arr.setflags(write=False)
        return rows_a, rows_b, signs


# Bound on the traced peak of decompose_symmetric, in units of S's transfer
# matrix, 16 (d_Ain d_Aout d_Bin d_Bout)^2 bytes: measured 4.1-4.4 at equal
# local dims 4-6
_PAIR_WORKSPACE = 5


def build_symmetric_basis(rep_a_in: RepSpec, rep_a_out: RepSpec,
                          rep_b_in: RepSpec, rep_b_out: RepSpec) -> SymmetricBasis:
    """All invariant basis elements chi_theta for T(AB, A'B'), as pairs of
    rows of the two local mode bases."""
    reps = (rep_a_in, rep_a_out, rep_b_in, rep_b_out)
    if len({rep.kind for rep in reps}) != 1:
        raise ValueError("all four reps must share the group kind")
    if rep_a_in.kind == ZN and len({rep.modulus for rep in reps}) != 1:
        raise ValueError("all four Z_N reps must share the modulus")
    check_budget(_PAIR_WORKSPACE * 16 * (rep_a_in.dim * rep_a_out.dim
                                         * rep_b_in.dim * rep_b_out.dim) ** 2,
                 "the bipartite decomposition")
    basis_a = build_canonical_modes(rep_a_in, rep_a_out)
    basis_b = build_canonical_modes(rep_b_in, rep_b_out)
    elements = []
    for da, span in basis_a.spans.items():
        rows_a = np.arange(span.start, span.stop)
        # (-1)^(lam - k), k the A mode's weight; two_j = k = 0 for Z_N
        signs = (-1.0) ** ((da.lam.two_j - basis_a.k[rows_a]) // 2)
        dual = da.lam.dual()
        for db, span in basis_b.spans.items():
            if db.lam != dual:
                continue
            rows_b = np.arange(span.stop - 1, span.start - 1, -1)
            elements.append(SymmetricElement(BipartiteDiagram(da, db), basis_a,
                                             basis_b, rows_a, rows_b, signs))
    return SymmetricBasis(basis_a, basis_b, tuple(elements))


@dataclass(frozen=True)
class SymmetricCoefficients:
    basis: SymmetricBasis
    values: dict  # BipartiteDiagram -> complex
    residual: float

    def reconstruct(self) -> Superoperator:
        rows_a, rows_b, signs = self.basis.pairs
        keep = signs != 0
        w = np.array([self.values[e.diagram] for e in self.basis.elements])
        return pair_sum(self.basis.basis_a, self.basis.basis_b, rows_a[keep],
                        rows_b[keep], (w * signs)[keep])


def decompose_symmetric(S: Superoperator, basis: SymmetricBasis) -> SymmetricCoefficients:
    """Expand S over the invariant basis; the residual is the norm of the
    non-invariant part of S.  C[i, j] = <M^A_i (x) M^B_j, S> comes from two
    mode contractions, and each coefficient is the signed sum of C over its
    element's pairs divided by dim(lam) = <chi, chi>, their number; every
    pair is read by one gather (``SymmetricBasis.pairs``)."""
    A, B = basis.basis_a, basis.basis_b
    d_ao, d_bo, d_ai, d_bi = (A.rep_out.dim, B.rep_out.dim, A.rep_in.dim,
                              B.rep_in.dim)
    if (S.dim_in, S.dim_out) != (d_ai * d_bi, d_ao * d_bo):
        raise ValueError("superoperator/basis dimension mismatch")
    K = S.transfer.reshape(d_ao, d_bo, d_ao, d_bo, d_ai, d_bi, d_ai, d_bi)
    # S realigned as a stack over B transfer entries of A transfer matrices
    # gives the A values, read as a stack over A modes of B transfer
    # matrices; nested, so that each stage's input is freed once it is read
    C = _mode_values(_mode_values(
        K.transpose(1, 3, 5, 7, 0, 2, 4, 6).reshape(-1, d_ao ** 2, d_ai ** 2),
        A).T.reshape(-1, d_bo ** 2, d_bi ** 2), B)
    rows_a, rows_b, signs = basis.pairs
    sums = (signs * C[rows_a, rows_b]).sum(axis=0)
    del C
    # real and imaginary parts divided apart, as a complex scalar divides
    sums.view(float).reshape(-1, 2)[:] /= (signs != 0).sum(axis=0)[:, None]
    values = dict(zip((e.diagram for e in basis.elements), sums.tolist()))
    out = SymmetricCoefficients(basis, values, 0.0)
    residual = (S - out.reconstruct()).norm()
    return SymmetricCoefficients(basis, values, float(residual))


def twirl_rank(basis: SymmetricBasis) -> int:
    """Rank of the invariant subspace: the Gram matrix's rank at 1e-8."""
    V = np.array([vec(e.op.transfer) for e in basis.elements])
    G = V.conj() @ V.T
    return int(np.linalg.matrix_rank(G, tol=1e-8))


# ---------------------------------------------------------------------------
# two-qubit catalogs
# ---------------------------------------------------------------------------

_QUBIT = RepSpec.su2_spins([1])

# 1 and the Pauli matrices
_PAULI = np.array([np.eye(2), [[0.0, 1.0], [1.0, 0.0]],
                   [[0.0, -1.0j], [1.0j, 0.0]], [[1.0, 0.0], [0.0, -1.0]]],
                  dtype=complex)


def state_from_bloch(a, b, T) -> np.ndarray:
    """Two-qubit state 1/4 (1 + a.sigma (x) 1 + 1 (x) b.sigma + T_ij s_i s_j),
    that is 1/4 sum_ij c_ij s_i (x) s_j over s = (1, sigma), with
    c = [[1, b], [a, T]]."""
    a, b, T = np.asarray(a, float), np.asarray(b, float), np.asarray(T, float)
    c = np.block([[1.0, b], [a[:, None], T]])
    return np.einsum("ij,iab,jcd->acbd", c, _PAULI, _PAULI).reshape(4, 4) / 4.0


def bloch_of_state(rho: np.ndarray):
    """Inverse of state_from_bloch: (a, b, T) from c_ij = tr(rho s_i s_j)."""
    c = np.einsum("acbd,iba,jdc->ij", np.reshape(rho, (2, 2, 2, 2)), _PAULI,
                  _PAULI).real
    return c[1:, 0], c[0, 1:], c[1:, 1:]


def _diagram_key(theta: BipartiteDiagram):
    da, db = theta.diag_a, theta.diag_b
    return (
        da.a_in[0].two_j, da.a_out[0].two_j, da.lam.two_j,
        db.a_in[0].two_j, db.a_out[0].two_j,
    )


# Named two-qubit diagrams, keyed by halved state-mode/irrep labels
# (aA_in, aA_out, lam, aB_in, aB_out) in doubled-j units.
_THETA_KEYS = {
    "theta1": (2, 2, 0, 0, 0),   # [(1,1) ->0-> (0,0)]: keeps the A Bloch vector
    "theta2": (0, 2, 2, 2, 0),   # [(0,1) ->1-> (1,0)]: injects b into A
    "theta3": (2, 2, 2, 2, 0),   # [(1,1) ->1-> (1,0)]: injects T into A
    "theta4": (0, 2, 2, 0, 2),
    "theta5": (2, 2, 2, 2, 2),
    "theta6": (2, 2, 2, 0, 2),
    "theta7": (0, 2, 2, 2, 2),
    "theta8": (2, 2, 4, 2, 2),
}

# Scale factors c_theta such that Phi_theta = c_theta * chi_theta reproduces
# the published closed-form actions (Bloch-vector injection law, relational
# R matrices and Bell-state actions).  Calibrated numerically against those
# formulas and frozen here; see the module tests.
_THETA_SCALES = {
    "theta1": 1.0,
    "theta2": 1.0,
    "theta3": 1.0j,
    "theta4": 1.0,
    "theta5": 1.0,
    "theta6": -4.0,
    "theta7": -4.0,
    "theta8": 1.0,
}


# Product indices (out A, out B, in A, in B) of a two-qubit Choi matrix with
# zero total weight m_outA + m_outB - m_inA - m_inB.  A globally SU(2)-
# invariant Choi matrix commutes with U (x) U (x) conj(U) (x) conj(U), and
# (1/2)^(x)4 = 2 (0) + 3 (1) + (2): every irrep holds an M = 0 vector, so
# this 6 x 6 block holds every eigenvalue of the 16 x 16 matrix (Gour and
# Spekkens, NJP 10, 033023 (2008)).
_ZERO_WEIGHT = np.flatnonzero(
    np.array([1, 1, -1, -1]) @ np.indices((2,) * 4).reshape(4, -1) == 0)


class TwoQubitCatalog:
    """Cached two-qubit symmetric basis plus named diagram lookups."""

    def __init__(self):
        self.basis = build_symmetric_basis(_QUBIT, _QUBIT, _QUBIT, _QUBIT)
        self.by_key = {_diagram_key(e.diagram): e for e in self.basis.elements}
        self.named = {name: self.by_key[key]
                      for name, key in _THETA_KEYS.items()}
        self.phi_choi = {name: self.phi(name).choi for name in _THETA_KEYS}

    @cached_property
    def region_terms(self) -> dict:
        """Per term name (e0 and each theta): the zero-weight block, the
        partial trace over the output and the flattened J - J^dag of its
        Choi matrix J, for ``region_scan``."""
        return {name: (J[np.ix_(_ZERO_WEIGHT, _ZERO_WEIGHT)],
                       np.einsum("ijil->jl", J.reshape(4, 4, 4, 4)),
                       (J - J.conj().T).ravel())
                for name, J in {"e0": self.e0.choi, **self.phi_choi}.items()}

    def phi(self, name: str) -> Superoperator:
        """The published-normalisation diagram superoperator Phi_theta."""
        return _THETA_SCALES[name] * self.named[name].op

    @property
    def e0(self) -> Superoperator:
        """The trace-carrying scaffold rho -> tr(rho) 1/4, forced by trace
        preservation."""
        return self.by_key[(0, 0, 0, 0, 0)].op


@lru_cache(maxsize=None)
def two_qubit_catalog() -> TwoQubitCatalog:
    return TwoQubitCatalog()


def _family_channel(kind: str, coeffs) -> Superoperator:
    """E0 plus each of the family's Phi_theta times its coefficient."""
    cat = two_qubit_catalog()
    return sum((c * cat.phi(name) for name, c in zip(_FAMILY_TERMS[kind],
                                                     coeffs)), cat.e0)


def injection_channel(x: float, y: float, z: float) -> Superoperator:
    """E = E0 + x Phi_theta1 + y Phi_theta2 + z Phi_theta3: discard-and-
    reprepare with asymmetry injected into A."""
    return _family_channel(INJECTION, (x, y, z))


def injection_bloch_formula(x, y, z, a, b, T):
    """Closed-form output Bloch vector at A:
    a~ = -(x a / sqrt3 + y b + z T_vec / sqrt2), T_vec_k = eps_kij T_ij."""
    a, b, T = np.asarray(a, float), np.asarray(b, float), np.asarray(T, float)
    tvec = np.einsum("kij,ij->k", _EPS, T)
    return -(x * a / math.sqrt(3.0) + y * b + z * tvec / math.sqrt(2.0))


def injection_coords(x: float, y: float, z: float):
    """Paraboloid-normal-form coordinates of an injection process (of
    floats, or elementwise of arrays)."""
    X = (1.0 + math.sqrt(3.0) * x - 3.0 * y) / 2.0
    Y = 1.0 - 3.0 * y
    Z = 3.0 * z / math.sqrt(2.0)
    return X, Y, Z


@dataclass(frozen=True)
class RegionVerdict:
    inside_analytic: bool
    is_cptp: bool
    min_choi_eig: float
    coords: tuple


def injection_region_test(x: float, y: float, z: float) -> RegionVerdict:
    """Membership of (x, y, z) in the injection region: analytic boundary
    (elliptic paraboloid X^2 + Z^2 = Y capped by the plane 2 + X - Y = 0)
    versus the numeric CPTP verdict on the assembled channel."""
    X, Y, Z = injection_coords(x, y, z)
    inside = (X * X + Z * Z <= Y + BOUNDARY_TOL) and (2.0 + X - Y >= -BOUNDARY_TOL)
    rep = region_scan(INJECTION, *np.array([[x], [y], [z]], dtype=float))
    return RegionVerdict(inside, bool(rep.is_cptp[0]),
                         float(rep.min_choi_eigenvalue[0]), (X, Y, Z))


def relational_channel(x4: float, x5: float, x6: float, x7: float,
                       x8: float) -> Superoperator:
    """E = E0 + x4 Phi_theta4 + ... + x8 Phi_theta8."""
    return _family_channel(RELATIONAL, (x4, x5, x6, x7, x8))


def relational_r_matrix(name: str, a, b, T) -> np.ndarray:
    """Published correlation-matrix contribution of one relational diagram:
    Phi_theta(rho) = sum_ij R_ij sigma_i (x) sigma_j."""
    a, b, T = np.asarray(a, float), np.asarray(b, float), np.asarray(T, float)
    eye = np.eye(3)
    if name == "theta4":
        return -eye / 4.0
    if name == "theta5":
        # The published list carries +T^T here, but that map is not on the
        # invariant ray of this diagram and contradicts the published
        # Bell-state actions of E1/E2; the oracle fixes the sign to -T^T.
        return (-T.T + np.trace(T) * eye) / 8.0
    if name == "theta6":  # R_ij = i/sqrt2 eps_ijk a_k
        return 1j * math.sqrt(2.0) / 2.0 * (_EPS @ a)
    if name == "theta7":
        return -1j * math.sqrt(2.0) / 2.0 * (_EPS @ b)
    if name == "theta8":
        return (T.T - 2.0 * T / 3.0 + np.trace(T) * eye) / 8.0
    raise KeyError(name)


_EPS = np.cross(np.eye(3)[:, None], np.eye(3))  # eps_ijk = (e_i x e_j)_k


def swap_invariant_relational(x: float, y: float, z: float) -> Superoperator:
    """The swap-invariant relational family E = E0 + x Phi_theta4
    + y Phi_theta5 + z Phi_theta8."""
    return relational_channel(x, y, 0.0, 0.0, z)


def _region_blocks(kind: str, x: np.ndarray, y: np.ndarray, z: np.ndarray):
    """Zero-weight Choi blocks, the partial trace over the output and
    Frobenius norms of the whole J - J^dag of the injection channels E0
    + x Phi_theta1 + y Phi_theta2 + z Phi_theta3 or of the swap-invariant
    relational channels E0 + x Phi_theta4 + y Phi_theta5 + z Phi_theta8 at
    the points (x[i], y[i], z[i]).  The terms are added in the order of
    ``_FAMILY_TERMS``, as the per-point channels add them, zero-weight
    theta6 and theta7 included, so each block is bit-identical to the
    zero-weight block of the per-point channel's Choi matrix.  Every
    Phi_theta's partial trace over the output is exactly zero (it carries
    no trace), so the one partial trace, e0's, is every point's."""
    if kind == INJECTION:
        coeffs = (x, y, z)
    elif kind == RELATIONAL:
        zero = np.zeros_like(x)
        coeffs = (x, y, zero, zero, z)  # as ``swap_invariant_relational``
    else:
        raise ValueError(f"unknown region kind {kind!r}")
    terms = two_qubit_catalog().region_terms
    B, T, _ = terms["e0"]
    for name, c in zip(_FAMILY_TERMS[kind], coeffs):
        B = B + c[:, None, None] * terms[name][0]
    # ||J - J^dag||^2 = c^T G c over the coefficients (1, c...), with G the
    # Gram matrix of the terms' anti-Hermitian parts (theta6 and theta7 are
    # not Hermitian; the others only to rounding)
    A = np.array([terms[name][2] for name in ("e0",) + _FAMILY_TERMS[kind]])
    C = np.stack((np.ones_like(x),) + coeffs, axis=1)
    herm = np.einsum("ns,st,nt->n", C, (A.conj() @ A.T).real, C)
    return B, T, np.sqrt(np.maximum(herm, 0.0))


def region_scan(kind: str, x: np.ndarray, y: np.ndarray,
                z: np.ndarray) -> CptpReport:
    """CPTP figures of a region family at the points (x[i], y[i], z[i]):
    arrays of minimum Choi eigenvalues and verdicts (CP to REGION_PSD_TOL),
    from one batched 6 x 6 eigensolve of the zero-weight Choi blocks (see
    ``_ZERO_WEIGHT``); a NaN or infinite coordinate is a ValueError."""
    for name, c in zip("xyz", (x, y, z)):
        finite = np.isfinite(c)
        if not finite.all():
            raise ValueError(f"region coordinate {name} = "
                             f"{c[~finite][0]} is not finite")
    return cptp_report(*_region_blocks(kind, x, y, z), REGION_PSD_TOL)


def relational_quartics(x: float, y: float, z: float):
    """Signed defects of the four published boundary surfaces (elliptic cone,
    parabolic cylinder, two planes, hyperbolic cylinder).  The planes and
    hyperbolic cylinder apply only on their stated x-ranges; outside the
    range the defect is reported as nan."""
    q1 = (9 * x + 3 * y + 5 * z - 3) ** 2 \
        - ((5 * z + 21 * y - 12) ** 2 - 108 * (1 - 2 * y) ** 2)
    q2 = (6 * y + 3 * x) ** 2 - (6 * x + 3 + 20 * z)
    q3 = y * y - ((1 - x) / 2) ** 2 if 0 < x <= 1 else float("nan")
    q4 = y * y - ((x + 5 / 3) ** 2 / 4 - 4 / 9) if -1 / 3 <= x <= 0 \
        else float("nan")
    return q1, q2, q3, q4


def singlet_channel() -> Superoperator:
    """E(rho) = |psi-><psi-| tr(rho): the point (1, 0, 0)."""
    return swap_invariant_relational(1.0, 0.0, 0.0)


def extremal_e1() -> Superoperator:
    """E1 = E0 - 1/2 Phi_theta5 + 3/10 Phi_theta8 (unital extremal point)."""
    return swap_invariant_relational(0.0, -0.5, 0.3)


def extremal_e2() -> Superoperator:
    """E2 = E0 + 1/2 Phi_theta5 + 3/10 Phi_theta8 (unital extremal point)."""
    return swap_invariant_relational(0.0, 0.5, 0.3)


def bell_states():
    """phi+, phi-, psi+, psi- density matrices."""
    v = {
        "phi+": np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
        "phi-": np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2),
        "psi+": np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
        "psi-": np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2),
    }
    return {k: np.outer(u, u.conj()) for k, u in v.items()}


def heisenberg_unitary(t: float) -> Superoperator:
    """Conjugation by V(t) = exp(it (sx sx + sy sy + sz sz)): the only
    nontrivial symmetric two-qubit unitary family.  The sum of sigma (x)
    sigma is 2 SWAP - 1, so V(t) = e^(it) P_sym + e^(-3it) P_anti."""
    sym = (np.eye(4) + np.eye(4)[[0, 2, 1, 3]]) / 2.0
    return unitary_channel(np.exp(1j * t) * sym
                           + np.exp(-3j * t) * (np.eye(4) - sym))


def diagonal_action(S: Superoperator, g: GroupElement,
                    rep_a: RepSpec = _QUBIT, rep_b: RepSpec = _QUBIT) -> Superoperator:
    """The diagonal (global) group action U_A(g) (x) U_B(g) on a bipartite
    superoperator with equal input and output reps."""
    # `is`, not ==: RepSpec equality compares intertwiner arrays and raises
    Ua = rep_matrix(rep_a, g)
    U = kron(Ua, Ua if rep_b is rep_a else rep_matrix(rep_b, g))
    return conjugate(S, U, U)


def two_qubit_product_rep() -> RepSpec:
    """Spin-0 + spin-1 blocks conjugated onto the qubit (x) qubit product
    basis by the Clebsch-Gordan intertwiner, so rep_matrix = U (x) U."""
    # rows of the block: coupled (J, M) = (0, 0), (1, 1), (1, 0), (1, -1);
    # columns: product (m1, m2) descending, as the qubit (x) qubit basis
    Q = np.vstack([cg_rows(1, 1, 0), cg_rows(1, 1, 2)]).T.astype(complex)
    return RepSpec(
        "su2",
        (IrrepLabel.su2(0), IrrepLabel.su2(2)),
        intertwiner=Q,
    )
