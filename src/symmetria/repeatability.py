"""Catalytic simulation of a target unitary through a shared cyclic-ladder
reference frame, and its repeatability properties.

A system A with charge basis |phi_m> couples to a ladder B = Z_D through the
charge-conserving interaction

    V(U) = sum_{m,n} U_{mn} |phi_m><phi_n| (x) Delta^{n-m} = C (U (x) 1) C^dag,

where Delta is the cyclic shift on the ladder and C|m, h> = |m, h - m> is a
controlled ladder shift: V is U relativised to the Z_D frame.  V is applied
through these factors, two monomial conjugations and U on one axis, and is
never formed as a matrix; no round applies it: a round's channel on A reads
the reference only through tr(Delta^k sigma), a profile V conserves, and the
round moves sigma by a sum of its shifted copies.  Frame states (discrete
Fourier vectors, the Delta eigenbasis) yield perfect rotated-target
simulation, are not disturbed, and support arbitrary sequential reuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import LinkFrame, RepSpec
from .linalg_core import Monomial, Superoperator, apply, kron
from .process_modes import (ProcessModeBasis, _mode_values,
                            build_canonical_modes, check_budget)


@dataclass(frozen=True)
class Protocol:
    """A target unitary U on A and a Z_D ladder, the factors of the ladder
    interaction V(U) = C (U (x) 1) C^dag.  C is a permutation that preserves
    the total charge, so V is unitary and Z_D symmetric by construction."""

    U: np.ndarray
    ladder: LinkFrame

    @property
    def dim_a(self) -> int:
        return self.U.shape[0]


def build_protocol(U, D: int = 16) -> Protocol:
    """The protocol of the unitary U on a Z_D ladder."""
    U = np.asarray(U, dtype=complex)
    d = U.shape[0]
    if U.shape != (d, d) or np.linalg.norm(U @ U.conj().T - np.eye(d)) > 1e-12:
        raise ValueError("target must be a unitary matrix")
    if D < d:
        raise ValueError(f"ladder dimension {D} below system dimension {d}")
    if D < 2:
        raise ValueError("ladder dimension must be at least 2")
    return Protocol(U, LinkFrame(D))


def _check_state(sigma: np.ndarray, dim: int):
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.shape != (dim, dim):
        raise ValueError("reference state dimension mismatch")
    if abs(np.trace(sigma) - 1.0) > 1e-10:
        raise ValueError("reference state must have unit trace")
    psd = np.linalg.norm(sigma - sigma.conj().T) <= 1e-10
    H = sigma + sigma.conj().T
    H.flat[::dim + 1] += 2e-10
    try:  # factored iff (sigma + sigma^dag) / 2 has no eigenvalue <= -1e-10
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        psd = False
    if not psd:
        raise ValueError("reference state must be positive semidefinite")
    return sigma


def _apply_v(P: Protocol, M: np.ndarray, dims: tuple, axis: int) -> np.ndarray:
    """V M V^dag for V on (A, B) of a square M over the product space of
    dims, with A the factor at ``axis`` and B the last: C^dag M C by a
    monomial gather, U on the A ket axis and conj(U) on its bra axis, then
    the gather by C."""
    d, D = P.dim_a, P.ladder.N
    n = M.shape[0]
    stride = math.prod(dims[axis + 1:])
    k = np.arange(n)
    m, h = k // stride % d, k % D
    ones = np.ones(n)
    M = Monomial(k - h + (h + m) % D, ones).conjugate(M)
    M = (P.U @ M.reshape(-1, d, stride * n)).reshape(n, n)
    M = (P.U.conj() @ M.reshape(-1, d, stride)).reshape(n, n)
    return Monomial(k - h + (h - m) % D, ones).conjugate(M)


def _joint_out(P: Protocol, rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    return _apply_v(P, kron(rho, sigma), (P.dim_a, P.ladder.N), 0)


def induced_channel(P: Protocol, sigma) -> Superoperator:
    """Partial-trace route to E(rho) = tr_B [V (rho (x) sigma) V^dag] on A."""
    sigma = _check_state(sigma, P.ladder.N)
    d, D = P.dim_a, P.ladder.N
    K = [np.einsum("injn->ij", _joint_out(P, E, sigma).reshape(d, D, d, D))
         .ravel() for E in np.eye(d * d, dtype=complex).reshape(-1, d, d)]
    return Superoperator.from_transfer(np.transpose(K), d, d)


def induced_channel_closed_form(P: Protocol, sigma) -> Superoperator:
    """Closed form: E(rho)[m,m'] = sum_{nn'} U_mn conj(U_m'n') rho[n,n']
    tr(Delta^{(n-m)-(n'-m')} sigma) — the reference enters only through the
    Delta expectation profile."""
    profile = P.ladder.delta_profile(_check_state(sigma, P.ladder.N))
    return Superoperator(P.dim_a, P.dim_a, _closed_form(P, profile))


def _closed_form(P: Protocol, profile: np.ndarray) -> np.ndarray:
    """Transfer matrix of the closed form at a Delta profile, or their stack
    at a stack of profiles; ``measure_prepare_form`` reads the unit ones."""
    d, D = P.dim_a, P.ladder.N
    n_minus_m = np.arange(d)[None, :] - np.arange(d)[:, None]  # [m, n]
    k = np.subtract.outer(n_minus_m, n_minus_m) % D  # [m, n, m', n']
    K = np.einsum("mn,pq,...mnpq->...mpnq", P.U, P.U.conj(), profile[..., k])
    return K.reshape(*profile.shape[:-1], d * d, d * d)


def _ladder_round(P: Protocol, rho, sigma) -> np.ndarray:
    """tr_A[V (rho (x) sigma) V^dag]: sigma circularly convolved, by 2-d DFTs,
    with weights U_mn rho_np conj(U_mp) on the shifts (n - m, p - m) mod D."""
    d, D = P.dim_a, P.ladder.N
    m, n, p = np.indices((d, d, d))
    w = np.zeros((D, D), dtype=complex)
    np.add.at(w, ((n - m) % D, (p - m) % D),
              np.einsum("mn,np,mp->mnp", P.U, rho, P.U.conj()))
    F = np.fft.fftn(sigma, out=np.empty_like(w))
    F *= np.fft.fftn(w, out=w)
    return np.fft.ifftn(F, out=F)


def rotated_target(P: Protocol, r) -> np.ndarray:
    """The frame-rotated target L_r^dag U L_r induced by sigma = |theta_r>,
    from the clock phases of the d_A system levels; an array of r gives
    the stack of targets."""
    d, D = P.dim_a, P.ladder.N
    w = np.exp(2j * np.pi * np.multiply.outer(np.asarray(r) % D,
                                              np.arange(d)) / D)
    return w.conj()[..., :, None] * P.U * w[..., None, :]


def catalytic_bytes(dim_a: int, D: int, rounds: int) -> int:
    """Predicted peak bytes of a catalytic run: the larger of its two stages,
    plus one d_A^4 channel per round, (rounds + 2) reference states of side
    D (the initial one, one per round, one for a round's DFT weights or a
    Delta profile's gather), that gather's int64 index and 1 MiB of small
    arrays.  Two or more rounds' cross-check holds two copies of the state on
    A1 (x) A2 (x) B (each step's input and output); the measure-and-prepare
    stage four of the (D, d_A^4) profile (the stacked transfers and products,
    or the profile, its deviation and the residual norm's temporaries)."""
    crosscheck = 2 * (dim_a ** 2 * D) ** 2 if rounds >= 2 else 0
    return (16 * (max(crosscheck, 4 * dim_a ** 4 * D) + rounds * dim_a ** 4
                  + (rounds + 2) * D ** 2) + 8 * D ** 2 + (1 << 20))


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
    reference state; each round's channel is the closed form of the Delta
    profile the reference enters it with.  For two or more rounds the first
    two outputs are cross-checked against the full joint-unitary
    computation on A1 (x) A2 (x) B."""
    sigma0 = _check_state(sigma, P.ladder.N)
    if len(inputs) < 1:
        raise ValueError("at least one input state required")
    check_budget(catalytic_bytes(P.dim_a, P.ladder.N, len(inputs)),
                 "the two-round cross-check" if len(inputs) >= 2
                 else "one round's reference states")
    rounds = []
    sig, profile = sigma0, P.ladder.delta_profile(sigma0)
    for rho in inputs:
        chan = Superoperator(P.dim_a, P.dim_a, _closed_form(P, profile))
        sig = _ladder_round(P, np.asarray(rho, complex), sig)
        profile = P.ladder.delta_profile(sig)
        first = rounds[0].channel if rounds else chan
        rounds.append(RoundRecord(
            channel=chan, reference_after=sig,
            choi_distance_to_first=(chan - first).norm(),
            reference_fidelity=float(np.einsum("ij,ji->", sig, sigma0).real),
            delta_profile=profile))
    crosscheck = (_two_round_crosscheck(P, sigma0, *inputs[:2], rounds)
                  if len(inputs) >= 2 else None)
    return SequentialReport(tuple(rounds), crosscheck)


def _two_round_crosscheck(P: Protocol, sigma0, rho1, rho2, rounds) -> float:
    """Full tensor computation on A1 (x) A2 (x) B versus the iterated
    reduced-reference propagation."""
    d, D = P.dim_a, P.ladder.N
    rho12 = kron(np.asarray(rho1, complex), np.asarray(rho2, complex))
    # V on (A1, B), then on (A2, B), nested so that no name holds the input
    out = _apply_v(P, _apply_v(P, kron(rho12, sigma0), (d, d, D), 0),
                   (d, d, D), 1).reshape(d, d, D, d, d, D)
    marg1 = np.einsum("iabjab->ij", out)
    marg2 = np.einsum("aibajb->ij", out)
    r1 = np.linalg.norm(marg1 - apply(rounds[0].channel, rho1))
    r2 = np.linalg.norm(marg2 - apply(rounds[1].channel, rho2))
    return float(max(r1, r2))


def zd_mode_basis(P: Protocol) -> ProcessModeBasis:
    """Canonical Z_D process modes for the system A (charges 0..d_A-1)."""
    rep = RepSpec.zn_charges(list(range(P.dim_a)), P.ladder.N)
    return build_canonical_modes(rep, rep)


@dataclass(frozen=True)
class MeasurePrepareForm:
    """E_sigma(rho) = sum_r <theta_r| sigma |theta_r> U_r rho U_r^dag: a
    measurement of the ladder in the frame basis ``P.ladder.frame_vector(r)``
    followed by the rotated target U_r = targets[r].  Mode i of
    ``zd_mode_basis(P)`` has alpha_i(E_sigma) = tr(X^i sigma) with the
    circulant X^i[a, b] = profile[(a - b) mod D, i]."""

    profile: np.ndarray    # (D, n_modes)
    targets: np.ndarray    # (D, d_A, d_A) rotated targets
    max_x_residual: float  # worst distance of X^lam from alpha_lam(E0) Delta^{-lam}


def measure_prepare_form(P: Protocol) -> MeasurePrepareForm:
    """The profile of the operators X^lam with tr(X^lam sigma) =
    alpha_lam(E_sigma) over the canonical Z_D modes, verified against
    X^lam = alpha_lam(E0) Delta^{-lam}, where E0 is the induced channel of
    the r=0 frame state."""
    basis = zd_mode_basis(P)
    D = P.ladder.N
    # E_sigma depends on sigma only through p_k = tr(Delta^k sigma), and
    # linearly, so alpha(E_sigma) = sum_k p_k alpha(B_k) with B_k the closed
    # form at the unit profile e_k: X = sum_k alpha(B_k) Delta^k
    profile = _mode_values(_closed_form(P, np.eye(D)), basis)
    # the r = 0 frame state has p_k = 1 for every k
    a0 = profile.sum(axis=0)
    # X - a0 Delta^{-lam} is the circulant of profile - a0 e_{-lam}, and a
    # circulant's Frobenius norm is sqrt(D) times that of its profile
    dev = profile.copy()
    dev[-basis.lam % D, np.arange(len(a0))] -= a0
    worst = float(math.sqrt(D) * np.linalg.norm(dev, axis=0).max())
    return MeasurePrepareForm(profile, rotated_target(P, np.arange(D)), worst)


def broadcast_check(sigmas) -> bool:
    """True iff the ladder references can be broadcast.  A protocol's Delta
    powers are powers of one shift, so they commute for every protocol; the
    verdict is whether all supplied reference states commute pairwise (to
    1e-10), i.e. share the frame eigenbasis up to degeneracy."""
    sigmas = [np.asarray(s, dtype=complex) for s in sigmas]
    for i in range(len(sigmas)):
        for j in range(i + 1, len(sigmas)):
            if np.linalg.norm(sigmas[i] @ sigmas[j]
                              - sigmas[j] @ sigmas[i]) > 1e-10:
                return False
    return True
