"""Dense complex linear algebra and superoperator representations.

A superoperator E: B(H_in) -> B(H_out) is stored as its transfer matrix
only; the Choi matrix is derived from it on demand.  All conventions derive
from the row-major vectorisation vec(|a><b|) = e_a (x) e_b, so that

    vec(A X B) = (A (x) B^T) vec(X).

For E(X) = sum_k A_k X B_k^dag:

    transfer K = sum_k A_k (x) B_k^*             shape d_out^2 x d_in^2
    choi     J = sum_k |vec A_k><vec B_k|        shape (d_out*d_in)^2

and vec(E(X)) = K vec(X).  Sums, scalings, tensor products, conjugations
and Hilbert-Schmidt inner products all act on K.
J is the reshuffle of K (``transfer_to_choi``), a permutation of entries,
so Hilbert-Schmidt norms and inner products agree in both pictures; it is
built only for the checks that need it (CP eigenvalues, partial traces,
Kraus extraction) and cached on the instance.  A monomial unitary (a
permutation with phases, ``Monomial``) conjugates a matrix or a transfer
matrix by one gather, with no dense product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

PSD_TOL = 1e-10
TP_TOL = 1e-10

CMatrix = np.ndarray  # dense complex matrix, row-major


def as_cmatrix(entries) -> CMatrix:
    """Validate and return a finite complex matrix."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def vec(M: CMatrix) -> np.ndarray:
    """Row-major vectorisation: vec(|a><b|) = e_a (x) e_b."""
    return np.asarray(M, dtype=complex).reshape(-1)


def unvec(v: np.ndarray, rows: int, cols: int) -> CMatrix:
    return np.asarray(v, dtype=complex).reshape(rows, cols)


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices.  Each entry is the single product
    A[i, j] * B[k, l], as in NumPy's n-d Kronecker product, so the results
    agree bit for bit; the broadcast skips its per-call axis bookkeeping."""
    (m, n), (p, q) = A.shape, B.shape
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(m * p, n * q)


def choi_to_transfer(choi: CMatrix, dim_in: int, dim_out: int) -> CMatrix:
    """Reshuffle J[(i,j),(k,l)] -> K[(i,k),(j,l)]."""
    J = np.asarray(choi, dtype=complex).reshape(dim_out, dim_in, dim_out, dim_in)
    return J.transpose(0, 2, 1, 3).reshape(dim_out * dim_out, dim_in * dim_in)


def transfer_to_choi(transfer: CMatrix, dim_in: int, dim_out: int) -> CMatrix:
    """Inverse reshuffle K[(i,k),(j,l)] -> J[(i,j),(k,l)]."""
    K = np.asarray(transfer, dtype=complex).reshape(dim_out, dim_out, dim_in, dim_in)
    return K.transpose(0, 2, 1, 3).reshape(dim_out * dim_in, dim_out * dim_in)


@dataclass(frozen=True)
class Superoperator:
    """A linear map between operator spaces, stored as its transfer matrix.

    Immutable; ``choi`` is the read-only reshuffle of ``transfer``, built on
    first access.
    """

    dim_in: int
    dim_out: int
    transfer: CMatrix

    def __post_init__(self):
        if self.transfer.shape != (self.dim_out**2, self.dim_in**2):
            raise ValueError(
                f"transfer shape {self.transfer.shape} != "
                f"{(self.dim_out**2, self.dim_in**2)}"
            )
        self.transfer.setflags(write=False)

    @cached_property
    def choi(self) -> CMatrix:
        J = transfer_to_choi(self.transfer, self.dim_in, self.dim_out)
        J.setflags(write=False)
        return J

    @staticmethod
    def from_choi(choi: CMatrix, dim_in: int, dim_out: int) -> "Superoperator":
        d2 = dim_out * dim_in
        choi = as_cmatrix(choi)
        if choi.shape != (d2, d2):
            raise ValueError(f"choi shape {choi.shape} != {(d2, d2)}")
        return Superoperator(dim_in, dim_out, choi_to_transfer(choi, dim_in, dim_out))

    @staticmethod
    def from_transfer(transfer: CMatrix, dim_in: int, dim_out: int) -> "Superoperator":
        return Superoperator(dim_in, dim_out, as_cmatrix(transfer).copy())

    @staticmethod
    def zero(dim_in: int, dim_out: int) -> "Superoperator":
        return Superoperator(
            dim_in, dim_out, np.zeros((dim_out**2, dim_in**2), dtype=complex)
        )

    def __add__(self, other: "Superoperator") -> "Superoperator":
        self._check_dims(other)
        return Superoperator(self.dim_in, self.dim_out, self.transfer + other.transfer)

    def __sub__(self, other: "Superoperator") -> "Superoperator":
        self._check_dims(other)
        return Superoperator(self.dim_in, self.dim_out, self.transfer - other.transfer)

    def __mul__(self, c: complex) -> "Superoperator":
        return Superoperator(self.dim_in, self.dim_out, complex(c) * self.transfer)

    __rmul__ = __mul__

    def tensor(self, other: "Superoperator") -> "Superoperator":
        """Tensor product of superoperators (self on the left factor)."""
        d_in = self.dim_in * other.dim_in
        d_out = self.dim_out * other.dim_out
        # Work on transfer matrices: K acts on vec indices (out_row, out_col);
        # interleave the two factors' row and column indices.
        K1 = self.transfer.reshape(self.dim_out, self.dim_out, self.dim_in, self.dim_in)
        K2 = other.transfer.reshape(
            other.dim_out, other.dim_out, other.dim_in, other.dim_in
        )
        K = np.einsum("abcd,efgh->aebfcgdh", K1, K2).reshape(d_out**2, d_in**2)
        return Superoperator.from_transfer(K, d_in, d_out)

    def norm(self) -> float:
        """Hilbert-Schmidt norm sqrt(tr J^dag J) = sqrt(tr K^dag K)."""
        return float(np.linalg.norm(self.transfer))

    def _check_dims(self, other: "Superoperator"):
        if (self.dim_in, self.dim_out) != (other.dim_in, other.dim_out):
            raise ValueError("superoperator dimension mismatch")


@dataclass(frozen=True)
class CptpReport:
    """CPTP figures of one channel (floats and bools, from ``check_cptp``)
    or of a stack of channels (arrays of them, from ``cptp_report``)."""

    min_choi_eigenvalue: float
    trace_defect: float
    is_cp: bool
    is_tp: bool

    @property
    def is_cptp(self) -> bool:
        return self.is_cp & self.is_tp


def choi_of(kraus, dim_in: int, dim_out: int) -> Superoperator:
    """Build a Superoperator from a Kraus set: a sequence of operators, each
    of shape dim_out x dim_in."""
    d2 = dim_out * dim_in
    J = np.zeros((d2, d2), dtype=complex)
    for A in kraus:
        A = as_cmatrix(A)
        if A.shape != (dim_out, dim_in):
            raise ValueError(
                f"Kraus operator shape {A.shape} != {(dim_out, dim_in)}")
        va = vec(A)
        J += np.outer(va, va.conj())
    return Superoperator(dim_in, dim_out, choi_to_transfer(J, dim_in, dim_out))


def apply(S: Superoperator, X: CMatrix) -> CMatrix:
    """Apply the superoperator to an operator on the input space."""
    X = as_cmatrix(X)
    if X.shape != (S.dim_in, S.dim_in):
        raise ValueError(f"operator shape {X.shape} != input dim {S.dim_in}")
    return unvec(S.transfer @ vec(X), S.dim_out, S.dim_out)


def conjugate(S: Superoperator, U_out: CMatrix, U_in: CMatrix) -> Superoperator:
    """The map X -> U_out E(U_in^dag X U_in) U_out^dag, i.e. the transfer
    matrix (U_out (x) U_out^*) K (U_in (x) U_in^*)^dag."""
    A = kron(U_out, U_out.conj())
    B = A if U_in is U_out else kron(U_in, U_in.conj())
    # np.dot calls the same gemm as @ with less dispatch per call
    return Superoperator(S.dim_in, S.dim_out,
                         np.dot(np.dot(A, S.transfer), B.conj().T))


@dataclass(frozen=True)
class Monomial:
    """A monomial unitary U|k> = phase[k] |perm[k]>.  On row-major vec'd
    operators U acts as U (x) conj(U), which is monomial too (``transfer``),
    so matrices and transfer matrices are conjugated alike, by a gather."""

    perm: np.ndarray
    phase: np.ndarray

    def transfer(self) -> Monomial:
        """U (x) conj(U), the transfer matrix of X -> U X U^dag."""
        return Monomial((self.perm[:, None] * len(self.perm)
                         + self.perm).ravel(),
                        np.outer(self.phase, self.phase.conj()).ravel())

    def conjugate(self, M: np.ndarray) -> np.ndarray:
        """U M U^dag: entry (i, j) of M moves to (perm[i], perm[j]) with
        phase[i] conj(phase[j]), by one gather through the inverse permutation
        and the phases in place; a pure permutation is the gather alone."""
        src = np.argsort(self.perm)
        out = M[np.ix_(src, src)]
        if np.any(self.phase != 1):
            out = out.astype(np.result_type(out, self.phase), copy=False)
            out *= self.phase[src, None]
            out *= self.phase[src].conj()
        return out

    def move(self, rows, cols, vals):
        """``conjugate`` for the entries vals of M at (rows, cols) only:
        their (values, positions) in U M U^dag."""
        return (self.phase[rows] * vals * self.phase[cols].conj(),
                (self.perm[rows], self.perm[cols]))

    def dense(self) -> np.ndarray:
        return np.eye(len(self.perm), dtype=complex)[:, self.perm] * self.phase


def cptp_report(J: np.ndarray, tr_out: np.ndarray, herm_defect=None,
                psd_tol: float = PSD_TOL) -> CptpReport:
    """CP/TP verdicts of a stack of channels from one batched Hermitian
    eigensolve: J[n] is a Choi matrix (or a block of it that holds every
    eigenvalue), tr_out[n] its partial trace over the output factor (or one
    matrix, the partial trace of every J[n]) and herm_defect[n] the
    Frobenius norm of the whole Choi matrix's J - J^dag, J's own if None.
    The report's fields are length-n arrays; TP is a trace defect <= TP_TOL."""
    Jh = J.conj().swapaxes(-1, -2)
    if herm_defect is None:
        # Frobenius norms of J - J^dag over its real and imaginary parts
        D = (J - Jh).view(float).reshape(len(J), -1)
        herm_defect = np.sqrt(np.einsum("ni,ni->n", D, D))
    H = J + Jh
    H *= 0.5
    min_eig = np.linalg.eigvalsh(H)[:, 0]
    # A non-Hermitian Choi matrix cannot be CP; report via min eigenvalue
    # of the Hermitian part penalised by the defect.
    min_eig = np.where(herm_defect > psd_tol, min_eig - herm_defect, min_eig)
    trace_defect = np.linalg.norm(tr_out - np.eye(tr_out.shape[-1]), ord=2,
                                  axis=(-2, -1))
    trace_defect = np.broadcast_to(trace_defect, min_eig.shape)
    return CptpReport(min_eig, trace_defect, min_eig >= -psd_tol,
                      trace_defect <= TP_TOL)


def check_cptp(S: Superoperator) -> CptpReport:
    """CP/TP verdict of one channel: ``cptp_report`` on a stack of one, with
    its partial trace over the output factor."""
    J = S.choi[None]
    tr_out = np.einsum("nijil->njl", J.reshape(1, S.dim_out, S.dim_in,
                                               S.dim_out, S.dim_in))
    rep = cptp_report(J, tr_out)
    return CptpReport(float(rep.min_choi_eigenvalue[0]),
                      float(rep.trace_defect[0]), bool(rep.is_cp[0]),
                      bool(rep.is_tp[0]))


def kraus_of_choi(S: Superoperator) -> list[CMatrix]:
    """Extract a Kraus set {A_k} from a CP Choi matrix.

    A Hermiticity defect above PSD_TOL is an error, and so is an eigenvalue
    below -PSD_TOL; eigenvalues in [-PSD_TOL, 0) are clipped to zero.
    """
    J = (S.choi + S.choi.conj().T) / 2
    if np.linalg.norm(S.choi - J) > PSD_TOL:
        raise ValueError("Choi matrix is not Hermitian; map is not CP")
    w, V = np.linalg.eigh(J)
    if w[0] < -PSD_TOL:
        raise ValueError(f"Choi matrix has negative eigenvalue {w[0]:.3e}; map is not CP")
    w = np.clip(w, 0.0, None)
    ops = []
    for wk, vk in zip(w, V.T):
        if wk > 0.0:
            ops.append(np.sqrt(wk) * unvec(vk, S.dim_out, S.dim_in))
    return ops


def hs_inner(S1: Superoperator, S2: Superoperator) -> complex:
    """Inner product <S1, S2> = tr(J[S1]^dag J[S2]) = tr(K[S1]^dag K[S2])."""
    S1._check_dims(S2)
    return complex(np.vdot(S1.transfer, S2.transfer))


def identity_channel(dim: int) -> Superoperator:
    return choi_of([np.eye(dim)], dim, dim)


def unitary_channel(U: CMatrix) -> Superoperator:
    U = as_cmatrix(U)
    d = U.shape[0]
    if U.shape != (d, d):
        raise ValueError("unitary must be square")
    return choi_of([U], d, d)


def random_cptp(dim_in: int, dim_out: int, rng: np.random.Generator,
                env_dim: int | None = None) -> Superoperator:
    """Random CPTP map via a Haar-random Stinespring isometry."""
    if env_dim is None:
        env_dim = dim_in * dim_out
    G = rng.standard_normal((dim_out * env_dim, dim_in)) \
        + 1j * rng.standard_normal((dim_out * env_dim, dim_in))
    V, _ = np.linalg.qr(G)  # isometry columns, Haar by unitary invariance
    V = V.reshape(dim_out, env_dim, dim_in)
    kraus = [V[:, e, :] for e in range(env_dim)]
    return choi_of(kraus, dim_in, dim_out)


def depolarizing_channel(p: float, dim: int = 2) -> Superoperator:
    """E(rho) = p rho + (1-p) tr(rho) I/dim."""
    ident = identity_channel(dim)
    # the completely depolarizing map X -> tr(X) I/d has transfer
    # K = |vec(I/d)><vec(I)|
    K = np.outer(vec(np.eye(dim) / dim), vec(np.eye(dim)).conj())
    dep = Superoperator.from_transfer(K, dim, dim)
    return p * ident + (1.0 - p) * dep
