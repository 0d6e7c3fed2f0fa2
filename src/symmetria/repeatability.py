"""Catalytic simulation of a target unitary through a shared cyclic-ladder
reference frame, and its repeatability properties.

A system A with charge basis |phi_m> couples to a ladder B = Z_D through the
charge-conserving interaction

    V(U) = sum_{m,n} U_{mn} |phi_m><phi_n| (x) Delta^{n-m},

where Delta is the cyclic shift on the ladder.  Tracing out the ladder gives
an induced channel on A that depends on the reference state sigma only
through the expectation values tr(Delta^k sigma).  Frame states (discrete
Fourier vectors, the Delta eigenbasis) yield perfect rotated-target
simulation, are not disturbed, and support arbitrary sequential reuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .groups import RepSpec
from .linalg_core import (Superoperator, apply, check_cptp, kron,
                          unitary_channel)
from .process_modes import ProcessModeBasis, build_canonical_modes, decompose


@dataclass(frozen=True)
class LadderRef:
    """A cyclic Z_D ladder: number basis |n>, shift Delta|n> = |n+1 mod D>."""

    D: int

    def __post_init__(self):
        if self.D < 2:
            raise ValueError("ladder dimension must be at least 2")

    @property
    def delta(self) -> np.ndarray:
        return self.delta_power(1)

    def delta_power(self, k: int) -> np.ndarray:
        M = np.zeros((self.D, self.D), dtype=complex)
        for n in range(self.D):
            M[(n + k) % self.D, n] = 1.0
        return M

    def frame_vector(self, r: int) -> np.ndarray:
        n = np.arange(self.D)
        return np.exp(-2j * np.pi * n * (r % self.D) / self.D) / math.sqrt(self.D)

    def frame_projector(self, r: int) -> np.ndarray:
        v = self.frame_vector(r)
        return np.outer(v, v.conj())

    def delta_profile(self, sigma: np.ndarray) -> np.ndarray:
        """The vector tr(Delta^k sigma) for k = 0..D-1, which fully
        determines the induced channel."""
        return np.array(
            [np.trace(self.delta_power(k) @ sigma) for k in range(self.D)]
        )


@dataclass(frozen=True)
class FrameState:
    """|theta_r> = D^{-1/2} sum_n exp(-i 2 pi n r / D) |n>, a Delta
    eigenstate with eigenvalue exp(i 2 pi r / D)."""

    ladder: LadderRef
    r: int

    @property
    def vector(self) -> np.ndarray:
        return self.ladder.frame_vector(self.r)

    @property
    def density(self) -> np.ndarray:
        return self.ladder.frame_projector(self.r)


@dataclass(frozen=True)
class Protocol:
    """A target unitary U on A plus the symmetric ladder interaction V(U)."""

    U: np.ndarray
    ladder: LadderRef
    V: np.ndarray

    @property
    def dim_a(self) -> int:
        return self.U.shape[0]


def build_protocol(U, D: int = 16) -> Protocol:
    """Assemble V(U) = sum_{mn} U_mn |m><n| (x) Delta^{n-m} on Z_D."""
    U = np.asarray(U, dtype=complex)
    d = U.shape[0]
    if U.shape != (d, d) or np.linalg.norm(U @ U.conj().T - np.eye(d)) > 1e-12:
        raise ValueError("target must be a unitary matrix")
    if D < d:
        raise ValueError(f"ladder dimension {D} below system dimension {d}")
    ladder = LadderRef(D)
    V = np.zeros((d * D, d * D), dtype=complex)
    for m in range(d):
        for n in range(d):
            if U[m, n] == 0.0:
                continue
            E = np.zeros((d, d), dtype=complex)
            E[m, n] = 1.0
            V += U[m, n] * kron(E, ladder.delta_power(n - m))
    assert np.linalg.norm(V @ V.conj().T - np.eye(d * D)) < 1e-12
    # global Z_D symmetry: V commutes with the diagonal charge action
    for g in range(D):
        w = np.exp(2j * np.pi * g / D)
        W = kron(np.diag(w ** np.arange(d)), np.diag(w ** np.arange(D)))
        assert np.linalg.norm(V @ W - W @ V) < 1e-12 * d * D
    return Protocol(U, ladder, V)


def _check_state(sigma: np.ndarray, dim: int):
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.shape != (dim, dim):
        raise ValueError("reference state dimension mismatch")
    if abs(np.trace(sigma) - 1.0) > 1e-10:
        raise ValueError("reference state must have unit trace")
    w = np.linalg.eigvalsh((sigma + sigma.conj().T) / 2)
    if w[0] < -1e-10 or np.linalg.norm(sigma - sigma.conj().T) > 1e-10:
        raise ValueError("reference state must be positive semidefinite")
    return sigma


def _joint_out(P: Protocol, rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    return P.V @ kron(rho, sigma) @ P.V.conj().T


def _trace_ladder(P: Protocol, M: np.ndarray) -> np.ndarray:
    d, D = P.dim_a, P.ladder.D
    return np.einsum("injn->ij", M.reshape(d, D, d, D))


def _trace_system(P: Protocol, M: np.ndarray) -> np.ndarray:
    d, D = P.dim_a, P.ladder.D
    return np.einsum("inim->nm", M.reshape(d, D, d, D))


def induced_channel(P: Protocol, sigma) -> Superoperator:
    """Partial-trace route to E(rho) = tr_B [V (rho (x) sigma) V^dag] on A."""
    sigma = _check_state(sigma, P.ladder.D)
    d = P.dim_a
    K = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            E = np.zeros((d, d), dtype=complex)
            E[i, j] = 1.0
            out = _trace_ladder(P, _joint_out(P, E, sigma))
            K[:, i * d + j] = out.reshape(-1)
    return Superoperator.from_transfer(K, d, d)


def induced_channel_closed_form(P: Protocol, sigma) -> Superoperator:
    """Closed form: E(rho)[m,m'] = sum_{nn'} U_mn conj(U_m'n') rho[n,n']
    tr(Delta^{(n-m)-(n'-m')} sigma) — the reference enters only through the
    Delta expectation profile."""
    return _closed_form(P, P.ladder.delta_profile(_check_state(sigma, P.ladder.D)))


def _closed_form(P: Protocol, profile: np.ndarray) -> Superoperator:
    """The closed form for any Delta expectation profile; it is linear in
    the profile, so ``measure_prepare_form`` evaluates it at unit ones."""
    d, D = P.dim_a, P.ladder.D
    n_minus_m = np.arange(d)[None, :] - np.arange(d)[:, None]  # [m, n]
    k = np.subtract.outer(n_minus_m, n_minus_m) % D  # [m, n, m', n']
    K = np.einsum("mn,pq,mnpq->mpnq", P.U, P.U.conj(), profile[k])
    return Superoperator.from_transfer(K.reshape(d * d, d * d), d, d)


def rotated_target(P: Protocol, r: int) -> np.ndarray:
    """The frame-rotated target unitary induced by sigma = |theta_r>."""
    d, D = P.dim_a, P.ladder.D
    lam = np.exp(2j * np.pi * (r % D) * np.arange(d) / D)
    return np.diag(lam.conj()) @ P.U @ np.diag(lam)


CROSSCHECK_MAX_DIM = 4096  # dense products of this side dominate a run


def check_crosscheck_size(dim_a: int, D: int, rounds: int) -> None:
    """Raise ValueError if two or more rounds would need the full-tensor
    cross-check on A1 (x) A2 (x) B, of side d_A^2 D, above the limit."""
    if rounds >= 2 and dim_a * dim_a * D > CROSSCHECK_MAX_DIM:
        raise ValueError(
            f"full-tensor cross-check dimension {dim_a * dim_a * D} exceeds "
            f"{CROSSCHECK_MAX_DIM}")


@dataclass(frozen=True)
class RoundRecord:
    channel: Superoperator
    reference_after: np.ndarray
    choi_distance_to_first: float
    reference_fidelity: float  # overlap tr(sigma_after sigma_initial)
    delta_profile: np.ndarray


@dataclass(frozen=True)
class SequentialReport:
    rounds: tuple  # of RoundRecord
    crosscheck_residual: float | None  # n=2 full-tensor check, if performed


def sequential_use(P: Protocol, sigma, inputs) -> SequentialReport:
    """Run the protocol on each input in turn, propagating the reduced
    reference state between rounds.

    For two or more rounds the first two induced outputs are cross-checked
    against the full joint-unitary computation on A1 (x) A2 (x) B.
    """
    sigma0 = _check_state(sigma, P.ladder.D)
    if len(inputs) < 1:
        raise ValueError("at least one input state required")
    check_crosscheck_size(P.dim_a, P.ladder.D, len(inputs))
    rounds = []
    sig = sigma0
    first = None
    for rho in inputs:
        rho = np.asarray(rho, dtype=complex)
        chan = induced_channel_closed_form(P, sig)
        joint = _joint_out(P, rho, sig)
        sig_next = _trace_system(P, joint)
        if first is None:
            first = chan
        rounds.append(
            RoundRecord(
                channel=chan,
                reference_after=sig_next,
                choi_distance_to_first=(chan - first).norm(),
                reference_fidelity=float(
                    np.real(np.trace(sig_next @ sigma0))
                ),
                delta_profile=P.ladder.delta_profile(sig_next),
            )
        )
        sig = sig_next
    crosscheck = None
    if len(inputs) >= 2:
        crosscheck = _two_round_crosscheck(P, sigma0, inputs[0], inputs[1],
                                           rounds)
    return SequentialReport(tuple(rounds), crosscheck)


def _two_round_crosscheck(P: Protocol, sigma0, rho1, rho2, rounds) -> float:
    """Full tensor computation on A1 (x) A2 (x) B versus the iterated
    reduced-reference propagation."""
    d, D = P.dim_a, P.ladder.D
    I = np.eye(d, dtype=complex)
    # embed V on (A1, B) and (A2, B) inside A1 (x) A2 (x) B
    Vr = P.V.reshape(d, D, d, D)
    V1 = np.einsum("ab,injm->ianjbm", I, Vr).reshape(d * d * D, d * d * D)
    V2 = np.einsum("ab,injm->ainbjm", I, Vr).reshape(d * d * D, d * d * D)
    state = kron(kron(np.asarray(rho1, complex),
                      np.asarray(rho2, complex)), sigma0)
    out = V2 @ (V1 @ state @ V1.conj().T) @ V2.conj().T
    out = out.reshape(d, d, D, d, d, D)
    marg1 = np.einsum("iabjab->ij", out)
    marg2 = np.einsum("aibajb->ij", out)
    r1 = np.linalg.norm(marg1 - apply(rounds[0].channel, rho1))
    r2 = np.linalg.norm(marg2 - apply(rounds[1].channel, rho2))
    return float(max(r1, r2))


def zd_mode_basis(P: Protocol) -> ProcessModeBasis:
    """Canonical Z_D process modes for the system A (charges 0..d_A-1)."""
    rep = RepSpec.zn_charges(list(range(P.dim_a)), P.ladder.D)
    return build_canonical_modes(rep, rep)


@dataclass(frozen=True)
class MeasurePrepareForm:
    """E_sigma(rho) = sum_r tr(M_r sigma) Phi_r(rho) with M_r the frame
    projectors (diagonal in the frame basis) and Phi_r the rotated-target
    unitary channels; x_ops maps each mode key to the operator X with
    alpha_mode(E_sigma) = tr(X sigma)."""

    x_ops: dict
    povm: tuple          # frame projectors
    cp_maps: tuple       # rotated-target unitary channels
    max_x_residual: float  # worst distance of X^lam from alpha_lam(E0) Delta^{-lam}


def measure_prepare_form(P: Protocol,
                         basis: ProcessModeBasis | None = None) -> MeasurePrepareForm:
    """Extract the operators X^lam with tr(X^lam sigma) = alpha_lam(E_sigma)
    and verify X^lam = alpha_lam(E0) Delta^{-lam}, where E0 is the induced
    channel of the r=0 frame state."""
    if basis is None:
        basis = zd_mode_basis(P)
    D = P.ladder.D
    # E_sigma depends on sigma only through p_k = tr(Delta^k sigma), and
    # linearly, so alpha(E_sigma) = sum_k p_k alpha(B_k) with B_k the closed
    # form at the unit profile e_k: X = sum_k alpha(B_k) Delta^k.
    deltas = np.array([P.ladder.delta_power(k) for k in range(D)])
    alpha = np.array([decompose(_closed_form(P, e_k), basis).values
                      for e_k in np.eye(D)])
    X = np.einsum("kr,kij->rij", alpha, deltas)
    e0 = induced_channel_closed_form(P, FrameState(P.ladder, 0).density)
    a0 = decompose(e0, basis).values
    lam = np.array([diagram.lam.charge for diagram, _ in basis.labels])
    target = a0[:, None, None] * deltas[-lam % D]
    worst = float(np.linalg.norm(X - target, axis=(1, 2)).max())
    povm = tuple(P.ladder.frame_projector(r) for r in range(D))
    cp_maps = tuple(
        unitary_channel(rotated_target(P, r)) for r in range(D)
    )
    return MeasurePrepareForm(dict(zip(basis.labels, X)), povm, cp_maps, worst)


def broadcast_check(P: Protocol, sigmas, tol: float = 1e-10) -> bool:
    """True iff the references can be broadcast: all Delta powers commute
    (exact by construction, asserted) and all supplied reference states
    commute pairwise, i.e. share the frame eigenbasis up to degeneracy."""
    D = P.ladder.D
    for k in range(D):
        for j in range(D):
            c = (P.ladder.delta_power(k) @ P.ladder.delta_power(j)
                 - P.ladder.delta_power(j) @ P.ladder.delta_power(k))
            assert np.linalg.norm(c) == 0.0
    sigmas = [np.asarray(s, dtype=complex) for s in sigmas]
    for i in range(len(sigmas)):
        for j in range(i + 1, len(sigmas)):
            if np.linalg.norm(sigmas[i] @ sigmas[j]
                              - sigmas[j] @ sigmas[i]) > tol:
                return False
    return True
