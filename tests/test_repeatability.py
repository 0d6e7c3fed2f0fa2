"""Catalytic use of a bounded reference: induced channels, repeatability,
frame states, and the measure-and-prepare form."""

import tracemalloc

import numpy as np
import pytest

from symmetria import process_modes, repeatability
from symmetria.groups import LinkFrame
from symmetria.linalg_core import apply, check_cptp, kron, unitary_channel
from symmetria.process_modes import decompose
from symmetria.repeatability import (broadcast_check, build_protocol,
                                     induced_channel,
                                     induced_channel_closed_form,
                                     measure_prepare_form, rotated_target,
                                     sequential_use, zd_mode_basis)


def _random_state(rng, d):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = M @ M.conj().T
    return rho / np.trace(rho)


def _random_unitary(rng, d):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return np.linalg.qr(M)[0]


def _dense_v(P):
    """Oracle: V = sum_mn U_mn |m><n| (x) Delta^{n-m} as a dense matrix."""
    d, D = P.dim_a, P.ladder.N
    V = np.zeros((d * D, d * D), dtype=complex)
    for m in range(d):
        for n in range(d):
            if P.U[m, n] == 0.0:
                continue
            E = np.zeros((d, d), dtype=complex)
            E[m, n] = 1.0
            V += P.U[m, n] * kron(E, P.ladder.delta_power(n - m))
    return V


def _dense_two_round_state(P, V, sigma0, rho1, rho2):
    """Oracle: V on (A1, B), then on (A2, B), each embedded as a dense
    matrix on A1 (x) A2 (x) B."""
    d, D = P.dim_a, P.ladder.N
    I = np.eye(d, dtype=complex)
    Vr = V.reshape(d, D, d, D)
    V1 = np.einsum("ab,injm->ianjbm", I, Vr).reshape(d * d * D, d * d * D)
    V2 = np.einsum("ab,injm->ainbjm", I, Vr).reshape(d * d * D, d * d * D)
    state = kron(kron(rho1, rho2), sigma0)
    return V2 @ (V1 @ state @ V1.conj().T) @ V2.conj().T


@pytest.fixture(scope="module")
def protocol():
    rng = np.random.default_rng(50)
    return build_protocol(_random_unitary(rng, 2), D=8)


def test_build_protocol_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_protocol(np.ones((2, 2)))  # not unitary
    with pytest.raises(ValueError):
        build_protocol(np.eye(3), D=2)   # ladder smaller than system


def test_sequential_use_refuses_an_oversize_crosscheck_first(monkeypatch):
    # 200 rounds at d_A = 32, D = 64 predict 200 channels of 16 d_A^4 bytes,
    # 3.2 GiB, over the budget; the refusal comes before the first round
    # runs
    P = build_protocol(np.eye(32), D=64)
    rho = np.eye(32) / 32

    def no_round(*args):
        raise AssertionError("a round ran before the size check")

    monkeypatch.setattr(repeatability, "_closed_form", no_round)
    with pytest.raises(ValueError, match="GiB"):
        sequential_use(P, P.ladder.frame_projector(0), [rho] * 200)


@pytest.mark.parametrize("d, D, rounds", [(32, 64, 2), (24, 48, 4),
                                         (2, 1024, 1), (2, 512, 5)])
def test_round_byte_prediction_bounds_the_peak(d, D, rounds):
    # the rounds alone: a library caller is not refused for the
    # measure-and-prepare stage that only the CLI runs (4.2 GiB at
    # d_A = 32, D = 64); d_A = 32 and 24 peak in a round's closed form,
    # d_A = 2 in the reference states
    rng = np.random.default_rng(60)
    P = build_protocol(_random_unitary(rng, d), D)
    sigma = _random_state(rng, D)
    inputs = [_random_state(rng, d) for _ in range(rounds)]
    tracemalloc.start()
    try:
        records = sequential_use(P, sigma, inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == rounds
    predicted = repeatability.rounds_bytes(d, D, rounds)
    assert predicted / 2 < peak <= predicted
    assert repeatability.catalytic_bytes(32, 64, 2) \
        > process_modes.MAX_STACK_BYTES


@pytest.mark.parametrize("d, D", [(2, 5), (3, 7), (4, 16), (2, 64)])
def test_factored_interaction_matches_the_dense_oracle(d, D):
    rng = np.random.default_rng(59)
    P = build_protocol(_random_unitary(rng, d), D)
    V = _dense_v(P)
    # the oracle V is unitary and commutes with every global Z_D action
    assert np.linalg.norm(V @ V.conj().T - np.eye(d * D)) < 1e-12
    for g in range(D):
        w = np.exp(2j * np.pi * g / D)
        W = kron(np.diag(w ** np.arange(d)), np.diag(w ** np.arange(D)))
        assert np.linalg.norm(V @ W - W @ V) < 1e-12 * d * D
    rho, sigma = _random_state(rng, d), _random_state(rng, D)
    joint = repeatability._joint_out(P, rho, sigma)
    assert np.linalg.norm(joint - V @ kron(rho, sigma) @ V.conj().T) < 1e-14


def _trace_system(P, M):
    """Oracle: the ladder's reduced state of a joint state on A (x) B."""
    d, D = P.dim_a, P.ladder.N
    return np.einsum("inim->nm", M.reshape(d, D, d, D))


@pytest.mark.parametrize("d, D", [(1, 2), (2, 2), (2, 3), (3, 3), (3, 11),
                                  (5, 7), (2, 16), (3, 16), (16, 16)])
def test_ladder_rounds_match_the_joint_state_partial_trace(d, D):
    # the shift sum against tr_A of the joint state V (rho (x) sigma) V^dag,
    # round after round; for D < 2 d_A - 1 the shifts alias mod D
    rng = np.random.default_rng(63)
    P = build_protocol(_random_unitary(rng, d), D)
    fast = oracle = _random_state(rng, D)
    for _ in range(5):
        rho = _random_state(rng, d)
        fast = repeatability._ladder_round(P, rho, fast)
        oracle = _trace_system(P, repeatability._joint_out(P, rho, oracle))
        assert np.linalg.norm(fast - oracle) < 1e-13
        assert np.linalg.norm(P.ladder.delta_profile(fast)
                              - P.ladder.delta_profile(oracle)) < 1e-13


def test_sequential_rounds_propagate_the_joint_state_reference(protocol):
    rng = np.random.default_rng(64)
    sigma = _random_state(rng, 8)
    inputs = [_random_state(rng, 2) for _ in range(5)]
    for rho, rec in zip(inputs, sequential_use(protocol, sigma, inputs)):
        sigma = _trace_system(protocol,
                              repeatability._joint_out(protocol, rho, sigma))
        assert np.linalg.norm(rec.reference_after - sigma) < 1e-13


def test_one_round_holds_no_joint_state():
    # the joint state on A (x) B at d_A = 8, D = 256 is 16 (d_A D)^2 = 67 MB;
    # a round holds a few D x D arrays (1 MiB each) instead
    rng = np.random.default_rng(65)
    D = 256
    P = build_protocol(_random_unitary(rng, 8), D)
    sigma, rho = _random_state(rng, D), _random_state(rng, 8)
    tracemalloc.start()
    try:
        sequential_use(P, sigma, [rho])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 16 * D ** 2


@pytest.mark.parametrize("rounds", [1, 2, 5])
def test_the_rounds_apply_v_nowhere(protocol, monkeypatch, rounds):
    rng = np.random.default_rng(66)
    calls = []
    apply_v = repeatability._apply_v
    monkeypatch.setattr(repeatability, "_apply_v",
                        lambda *a: calls.append(1) or apply_v(*a))
    records = sequential_use(protocol, _random_state(rng, 8),
                             [_random_state(rng, 2) for _ in range(rounds)])
    assert calls == []
    assert len(records) == rounds


@pytest.mark.parametrize("d, D", [(2, 8), (3, 5), (3, 7)])
def test_two_rounds_match_the_joint_evolution(d, D):
    # V on (A1, B), then on (A2, B), as dense matrices on A1 (x) A2 (x) B:
    # the marginal on each system is that round's channel applied to its
    # input; for D < 2 d_A - 1 the shifts alias mod D
    rng = np.random.default_rng(67)
    P = build_protocol(_random_unitary(rng, d), D)
    sigma = _random_state(rng, D)
    rho1, rho2 = _random_state(rng, d), _random_state(rng, d)
    first, second = sequential_use(P, sigma, [rho1, rho2])
    out = _dense_two_round_state(P, _dense_v(P), sigma, rho1,
                                 rho2).reshape(d, d, D, d, d, D)
    marg1 = np.einsum("iabjab->ij", out)
    marg2 = np.einsum("aibajb->ij", out)
    assert np.linalg.norm(marg1 - apply(first.channel, rho1)) < 1e-12
    assert np.linalg.norm(marg2 - apply(second.channel, rho2)) < 1e-12


def test_build_protocol_forms_no_dense_interaction():
    # a dense V at d_A = 4, D = 64 alone would take 1 MiB
    U = _random_unitary(np.random.default_rng(60), 4)
    tracemalloc.start()
    try:
        build_protocol(U, D=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


def test_frame_states_are_shift_eigenstates():
    lad = LinkFrame(8)
    for r in range(8):
        v = lad.frame_vector(r)
        lhs = lad.delta_power(1) @ v
        assert np.linalg.norm(lhs - np.exp(2j * np.pi * r / 8) * v) < 1e-12


def test_induced_channel_matches_closed_form(protocol):
    rng = np.random.default_rng(51)
    for _ in range(5):
        sigma = _random_state(rng, 8)
        E1 = induced_channel(protocol, sigma)
        E2 = induced_channel_closed_form(protocol, sigma)
        assert (E1 - E2).norm() < 1e-12
        assert check_cptp(E1).is_cptp


def test_sequential_rounds_match_partial_trace_route(protocol):
    # each round's channel comes from the closed form; the partial trace
    # over d^2 probes, at the reference state that round started from, is
    # the oracle
    rng = np.random.default_rng(58)
    sigma = _random_state(rng, 8)
    start = sigma
    for rec in sequential_use(protocol, sigma,
                              [_random_state(rng, 2) for _ in range(4)]):
        oracle = induced_channel(protocol, start)
        assert (rec.channel - oracle).norm() <= 1e-12
        start = rec.reference_after


def test_channel_depends_only_on_delta_profile(protocol):
    # two different states with equal shift expectation values induce the
    # same channel
    lad = protocol.ladder
    s1 = np.eye(8) / 8
    # any diagonal state in the frame basis with uniform weights also has a
    # trivial profile beyond k=0
    s2 = sum(lad.frame_projector(r) for r in range(8)) / 8
    assert np.linalg.norm(lad.delta_profile(s1) - lad.delta_profile(s2)) < 1e-12
    assert (induced_channel(protocol, s1) - induced_channel(protocol, s2)).norm() < 1e-12


def test_frame_state_induces_rotated_target(protocol):
    rng = np.random.default_rng(52)
    for r in (0, 3, 5):
        sigma = protocol.ladder.frame_projector(r)
        E = induced_channel(protocol, sigma)
        Ur = rotated_target(protocol, r)
        rho = _random_state(rng, 2)
        assert np.linalg.norm(
            apply(E, rho) - Ur @ rho @ Ur.conj().T
        ) < 1e-12
    # r = 0 gives the target itself
    assert np.linalg.norm(rotated_target(protocol, 0) - protocol.U) < 1e-14


def test_sequential_rounds_identical_for_any_reference(protocol):
    # repeatability: the induced channel never degrades, frame state or not
    rng = np.random.default_rng(53)
    inputs = [_random_state(rng, 2) for _ in range(4)]
    for sigma in (protocol.ladder.frame_projector(2),
                  _random_state(rng, 8)):
        records = sequential_use(protocol, sigma, inputs)
        assert len(records) == 4
        for rec in records:
            assert rec.choi_distance_to_first < 1e-12


def test_frame_reference_is_undisturbed(protocol):
    rng = np.random.default_rng(54)
    sigma = protocol.ladder.frame_projector(1)
    for rec in sequential_use(protocol, sigma, [_random_state(rng, 2)
                                                for _ in range(3)]):
        assert abs(rec.reference_fidelity - 1.0) < 1e-12
        assert np.linalg.norm(rec.reference_after - sigma) < 1e-12


def test_measure_prepare_form(protocol):
    mp = measure_prepare_form(protocol)
    assert mp.max_x_residual < 1e-10
    # POVM completeness and the reconstruction of the induced channel as a
    # frame measurement followed by the rotated-target preparation
    frame = [protocol.ladder.frame_vector(r) for r in range(8)]
    povm = [np.outer(v, v.conj()) for v in frame]
    assert np.linalg.norm(sum(povm) - np.eye(8)) < 1e-12
    rng = np.random.default_rng(55)
    sigma = _random_state(rng, 8)
    E = induced_channel(protocol, sigma)
    rho = _random_state(rng, 2)
    rebuilt = sum(
        np.real(np.trace(M @ sigma)) * apply(unitary_channel(Ur), rho)
        for M, Ur in zip(povm, mp.targets)
    )
    assert np.linalg.norm(apply(E, rho) - rebuilt) < 1e-10


@pytest.mark.parametrize("d, D", [(2, 8), (3, 7), (5, 16)])
def test_rotated_targets_match_the_dense_clock(d, D):
    # oracle: L_r^dag U L_r with L_r the full D x D clock, cut to A's levels
    P = build_protocol(_random_unitary(np.random.default_rng(61), d), D)
    targets = measure_prepare_form(P).targets
    assert targets.shape == (D, d, d)
    for r in range(-1, D + 1):
        L = P.ladder.charge_operator(r)[:d, :d]
        oracle = L.conj() @ P.U @ L
        assert np.linalg.norm(rotated_target(P, r) - oracle) < 1e-14
        assert np.linalg.norm(targets[r % D] - oracle) < 1e-14


def test_sequential_use_validates_the_reference_once(protocol, monkeypatch):
    # each round's reference is a partial trace of a joint state, PSD by
    # construction; only the caller's state is checked
    rng = np.random.default_rng(62)
    calls = []
    check = repeatability._check_state
    monkeypatch.setattr(repeatability, "_check_state",
                        lambda *a: calls.append(1) or check(*a))
    records = sequential_use(protocol, _random_state(rng, 8),
                             [_random_state(rng, 2) for _ in range(4)])
    assert len(calls) == 1
    # each round's channel is the closed form of the reference it started at
    for before, rec in zip(records, records[1:]):
        oracle = induced_channel_closed_form(protocol, before.reference_after)
        assert (rec.channel - oracle).norm() < 1e-14


@pytest.mark.parametrize("sigma, dim, message", [
    (np.eye(3) / 3, 2, "dimension mismatch"),
    (np.diag([0.7, 0.7]), 2, "unit trace"),
    (np.array([[0.5, 0.1], [0.0, 0.5]]), 2, "positive semidefinite"),
    (np.diag([1.5, -0.5]), 2, "positive semidefinite"),
], ids=["shape", "trace", "non-hermitian", "negative"])
def test_reference_state_check_refuses_a_bad_state(sigma, dim, message):
    with pytest.raises(ValueError, match=message):
        repeatability._check_state(sigma, dim)


def test_reference_state_check_admits_edge_states():
    # a rank-one frame projector sits on the PSD boundary, and an
    # eigenvalue of -5e-11 is inside the -1e-10 tolerance; the check
    # returns the state itself as a complex array
    frame = LinkFrame(16).frame_projector(3)
    assert np.array_equal(repeatability._check_state(frame, 16), frame)
    Q = _random_unitary(np.random.default_rng(63), 4)
    w = np.array([0.6, 0.3, 0.1 + 5e-11, -5e-11])
    sigma = (Q * w) @ Q.conj().T
    sigma = (sigma + sigma.conj().T) / 2
    assert np.linalg.eigvalsh(sigma)[0] < -4e-11
    assert np.array_equal(repeatability._check_state(sigma, 4), sigma)
    # the same state a little further out is refused
    w[2:] = [0.1 + 2e-10, -2e-10]
    with pytest.raises(ValueError, match="positive semidefinite"):
        repeatability._check_state((Q * w) @ Q.conj().T, 4)


def test_broadcast_iff_commuting_references(protocol):
    lad = protocol.ladder
    frames = [lad.frame_projector(r) for r in range(4)]
    assert broadcast_check(frames)
    rng = np.random.default_rng(56)
    generic = [_random_state(rng, 8) for _ in range(2)]
    assert not broadcast_check(generic)


def test_zd_modes_span(protocol):
    basis = zd_mode_basis(protocol)
    assert len(basis.modes) == 16  # d_A^4 superoperator modes for a qubit


@pytest.mark.parametrize("d, D", [(2, 5), (2, 16), (3, 5), (3, 16)])
def test_measure_prepare_x_ops_match_partial_trace_route(d, D, monkeypatch):
    # oracle: tr(X sigma) against decomposing the channel induced by the
    # direct partial trace tr_B[V (rho (x) sigma) V^dag]
    rng = np.random.default_rng(57)
    P = build_protocol(_random_unitary(rng, d), D)
    basis = zd_mode_basis(P)
    calls = []
    monkeypatch.setattr(process_modes, "decompose",
                        lambda *a: calls.append(1) or decompose(*a))
    mp = measure_prepare_form(P)
    assert calls == []  # one stacked contraction over the unit profiles
    assert mp.max_x_residual < 1e-10
    # mode i's X is the circulant X[a, b, i] = profile[(a - b) mod D, i]
    h = np.arange(D)
    X = mp.profile[(h[:, None] - h) % D]
    for _ in range(3):
        sigma = _random_state(rng, D)
        alpha = decompose(induced_channel(P, sigma), basis).values
        predicted = np.einsum("abi,ba->i", X, sigma)
        assert np.abs(predicted - alpha).max() < 1e-12
