"""Dense complex linear algebra and superoperator representations.

A superoperator E: B(H_in) -> B(H_out) is stored as its transfer matrix
only; the Choi matrix is derived from it on demand.  All conventions derive
from the row-major vectorisation vec(|a><b|) = e_a (x) e_b, so that

    vec(A X B) = (A (x) B^T) vec(X).

For E(X) = sum_k A_k X B_k^dag:

    transfer K = sum_k A_k (x) B_k^*             shape d_out^2 x d_in^2
    choi     J = sum_k |vec A_k><vec B_k|        shape (d_out*d_in)^2

and vec(E(X)) = K vec(X).  Sums, scalings, composition, tensor products,
adjoints, conjugations and Hilbert-Schmidt inner products all act on K.
J is the reshuffle of K (``transfer_to_choi``), a permutation of entries,
so Hilbert-Schmidt norms and inner products agree in both pictures; it is
built only for the checks that need it (CP eigenvalues, partial traces,
Kraus extraction) and cached on the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

PSD_TOL = 1e-10
TP_TOL = 1e-10

CMatrix = np.ndarray  # dense complex matrix, row-major


def as_cmatrix(entries, rows=None, cols=None) -> CMatrix:
    """Validate and return a finite complex matrix."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim == 1 and rows is not None and cols is not None:
        m = m.reshape(rows, cols)
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

    def compose(self, other: "Superoperator") -> "Superoperator":
        """self after other (self o other)."""
        if other.dim_out != self.dim_in:
            raise ValueError("composition dimension mismatch")
        return Superoperator.from_transfer(
            self.transfer @ other.transfer, other.dim_in, self.dim_out
        )

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

    def adjoint(self) -> "Superoperator":
        """Hilbert-Schmidt adjoint map."""
        return Superoperator.from_transfer(
            self.transfer.conj().T, self.dim_out, self.dim_in
        )

    def norm(self) -> float:
        """Hilbert-Schmidt norm sqrt(tr J^dag J) = sqrt(tr K^dag K)."""
        return float(np.linalg.norm(self.transfer))

    def _check_dims(self, other: "Superoperator"):
        if (self.dim_in, self.dim_out) != (other.dim_in, other.dim_out):
            raise ValueError("superoperator dimension mismatch")


@dataclass(frozen=True)
class CptpReport:
    min_choi_eigenvalue: float
    trace_defect: float
    is_cp: bool
    is_tp: bool

    @property
    def is_cptp(self) -> bool:
        return self.is_cp and self.is_tp


def choi_of(kraus, dim_in: int, dim_out: int) -> Superoperator:
    """Build a Superoperator from a Kraus set.

    ``kraus`` is a sequence of either single operators A (meaning (A, A))
    or explicit (A, B) pairs, each of shape dim_out x dim_in.
    """
    pairs = []
    for item in kraus:
        if isinstance(item, (tuple, list)) and len(item) == 2:
            A, B = item
        else:
            A = B = item
        A = as_cmatrix(A)
        B = as_cmatrix(B)
        if A.shape != (dim_out, dim_in) or B.shape != (dim_out, dim_in):
            raise ValueError(
                f"Kraus operator shape {A.shape}/{B.shape} != {(dim_out, dim_in)}"
            )
        pairs.append((A, B))
    d2 = dim_out * dim_in
    J = np.zeros((d2, d2), dtype=complex)
    for A, B in pairs:
        va, vb = vec(A), vec(B)
        J += np.outer(va, vb.conj())
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
    return Superoperator(S.dim_in, S.dim_out, A @ S.transfer @ B.conj().T)


def trace_out_output(S: Superoperator) -> CMatrix:
    """Partial trace of the Choi matrix over the output factor."""
    J = S.choi.reshape(S.dim_out, S.dim_in, S.dim_out, S.dim_in)
    return np.einsum("ijil->jl", J)


def check_cptp(S: Superoperator, psd_tol: float = PSD_TOL, tp_tol: float = TP_TOL) -> CptpReport:
    """CP/TP verdict from a Hermitian eigensolve on the Choi matrix."""
    J = S.choi
    herm_defect = float(np.linalg.norm(J - J.conj().T))
    if herm_defect > psd_tol:
        # A non-Hermitian Choi matrix cannot be CP; report via min eigenvalue
        # of the Hermitian part penalised by the defect.
        min_eig = float(np.linalg.eigvalsh((J + J.conj().T) / 2)[0]) - herm_defect
    else:
        min_eig = float(np.linalg.eigvalsh((J + J.conj().T) / 2)[0])
    tr_out = trace_out_output(S)
    trace_defect = float(
        np.linalg.norm(tr_out - np.eye(S.dim_in), ord=2)
    )
    return CptpReport(
        min_choi_eigenvalue=min_eig,
        trace_defect=trace_defect,
        is_cp=min_eig >= -psd_tol,
        is_tp=trace_defect <= tp_tol,
    )


def kraus_of_choi(S: Superoperator, psd_tol: float = PSD_TOL) -> list[CMatrix]:
    """Extract a Kraus set {A_k} from a CP Choi matrix.

    Eigenvalues in [-psd_tol, 0) are clipped to zero; anything more negative
    is an error rather than silently clipped.
    """
    J = (S.choi + S.choi.conj().T) / 2
    if np.linalg.norm(S.choi - J) > psd_tol:
        raise ValueError("Choi matrix is not Hermitian; map is not CP")
    w, V = np.linalg.eigh(J)
    if w[0] < -psd_tol:
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
