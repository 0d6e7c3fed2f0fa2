"""Catalytic use of a bounded reference: induced channels, repeatability,
frame states, and the measure-and-prepare form."""

import numpy as np
import pytest

from symmetria import repeatability
from symmetria.linalg_core import apply, check_cptp
from symmetria.process_modes import decompose
from symmetria.repeatability import (FrameState, LadderRef, broadcast_check,
                                     build_protocol, induced_channel,
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
    # two rounds at d_A^2 D = 12 * 12 * 32 = 4,608 would need a cross-check
    # over the limit; the refusal comes before the first round runs
    P = build_protocol(np.eye(12), D=32)
    rho = np.eye(12) / 12

    def no_round(*args):
        raise AssertionError("a round ran before the size check")

    monkeypatch.setattr(repeatability, "induced_channel_closed_form",
                        no_round)
    with pytest.raises(ValueError, match="cross-check"):
        sequential_use(P, FrameState(P.ladder, 0).density, [rho, rho])


def test_frame_states_are_shift_eigenstates():
    lad = LadderRef(8)
    for r in range(8):
        v = FrameState(lad, r).vector
        lhs = lad.delta @ v
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
    report = sequential_use(protocol, sigma,
                            [_random_state(rng, 2) for _ in range(4)])
    start = sigma
    for rec in report.rounds:
        oracle = induced_channel(protocol, start)
        assert (rec.channel - oracle).norm() <= 1e-12
        start = rec.reference_after
    assert report.crosscheck_residual < 1e-12


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
        sigma = FrameState(protocol.ladder, r).density
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
    for sigma in (FrameState(protocol.ladder, 2).density,
                  _random_state(rng, 8)):
        rep = sequential_use(protocol, sigma, inputs)
        assert len(rep.rounds) == 4
        for rec in rep.rounds:
            assert rec.choi_distance_to_first < 1e-12
        assert rep.crosscheck_residual < 1e-12


def test_frame_reference_is_undisturbed(protocol):
    rng = np.random.default_rng(54)
    sigma = FrameState(protocol.ladder, 1).density
    rep = sequential_use(protocol, sigma, [_random_state(rng, 2)
                                           for _ in range(3)])
    for rec in rep.rounds:
        assert abs(rec.reference_fidelity - 1.0) < 1e-12
        assert np.linalg.norm(rec.reference_after - sigma) < 1e-12


def test_measure_prepare_form(protocol):
    mp = measure_prepare_form(protocol)
    assert mp.max_x_residual < 1e-10
    # POVM completeness and the reconstruction of the induced channel as a
    # frame measurement followed by the rotated-target preparation
    assert np.linalg.norm(sum(mp.povm) - np.eye(8)) < 1e-12
    rng = np.random.default_rng(55)
    sigma = _random_state(rng, 8)
    E = induced_channel(protocol, sigma)
    rho = _random_state(rng, 2)
    rebuilt = sum(
        np.real(np.trace(M @ sigma)) * apply(Phi, rho)
        for M, Phi in zip(mp.povm, mp.cp_maps)
    )
    assert np.linalg.norm(apply(E, rho) - rebuilt) < 1e-10


def test_broadcast_iff_commuting_references(protocol):
    lad = protocol.ladder
    frames = [FrameState(lad, r).density for r in range(4)]
    assert broadcast_check(protocol, frames)
    rng = np.random.default_rng(56)
    generic = [_random_state(rng, 8) for _ in range(2)]
    assert not broadcast_check(protocol, generic)


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
    monkeypatch.setattr(repeatability, "decompose",
                        lambda *a: calls.append(1) or decompose(*a))
    mp = measure_prepare_form(P, basis)
    assert len(calls) == D + 1  # one per unit Delta profile, plus E0
    assert mp.max_x_residual < 1e-10
    for _ in range(3):
        sigma = _random_state(rng, D)
        alpha = decompose(induced_channel(P, sigma), basis).values
        predicted = [np.trace(mp.x_ops[key] @ sigma) for key in basis.labels]
        assert np.abs(np.array(predicted) - alpha).max() < 1e-12
