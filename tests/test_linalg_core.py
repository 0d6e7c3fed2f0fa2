"""Vectorisation, Choi/transfer round trips, and CPTP verification."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symmetria
from symmetria.linalg_core import (Superoperator, apply, check_cptp, choi_of,
                                   conjugate, depolarizing_channel, hs_inner,
                                   identity_channel, kraus_of_choi, kron,
                                   random_cptp, unitary_channel, unvec, vec)

RNG = np.random.default_rng(20260823)


def _rand_complex(shape, rng=RNG):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_vec_round_trip(d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    assert np.array_equal(unvec(vec(X), d, d), X)
    # row-major convention: vec stacks rows
    if d > 1:
        assert vec(X)[1] == X[0, 1]


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_choi_transfer_round_trip(din, dout, seed):
    rng = np.random.default_rng(seed)
    S = random_cptp(din, dout, rng)
    S2 = Superoperator.from_choi(S.choi, din, dout)
    S3 = Superoperator.from_transfer(S.transfer, din, dout)
    assert np.linalg.norm(S2.transfer - S.transfer) < 1e-12
    assert np.linalg.norm(S3.choi - S.choi) < 1e-12


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_kraus_of_choi_reconstructs(d, seed):
    rng = np.random.default_rng(seed)
    S = random_cptp(d, d, rng)
    kraus = kraus_of_choi(S)
    S2 = choi_of(kraus, d, d)
    assert np.linalg.norm(S2.choi - S.choi) < 1e-10


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_random_cptp_is_cptp(d, seed):
    rng = np.random.default_rng(seed)
    S = random_cptp(d, d, rng)
    rep = check_cptp(S)
    assert rep.is_cp and rep.is_tp


def test_apply_matches_kraus():
    rng = np.random.default_rng(7)
    S = random_cptp(3, 2, rng)
    kraus = kraus_of_choi(S)
    X = _rand_complex((3, 3), rng)
    direct = sum(K @ X @ K.conj().T for K in kraus)
    assert np.linalg.norm(apply(S, X) - direct) < 1e-10


def test_identity_and_unitary_channels():
    I = identity_channel(3)
    X = _rand_complex((3, 3))
    assert np.linalg.norm(apply(I, X) - X) < 1e-12
    U = np.linalg.qr(_rand_complex((3, 3)))[0]
    C = unitary_channel(U)
    assert np.linalg.norm(apply(C, X) - U @ X @ U.conj().T) < 1e-12


def test_depolarizing_channel_fixed_point():
    # p is the identity survival weight, so p = 0 is fully depolarizing
    S = depolarizing_channel(0.0, dim=2)
    rho = np.array([[0.7, 0.2j], [-0.2j, 0.3]])
    assert np.linalg.norm(apply(S, rho) - np.eye(2) / 2) < 1e-12


def test_check_cptp_flags_nonpositive():
    # transpose map: positive but not completely positive
    d = 2
    T = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            T[j * d + i, i * d + j] = 1.0
    S = Superoperator.from_transfer(T, d, d)
    rep = check_cptp(S)
    assert rep.is_tp and not rep.is_cp
    assert rep.min_choi_eigenvalue < -0.5


def test_hs_inner_is_choi_inner_product():
    rng = np.random.default_rng(3)
    A = random_cptp(2, 2, rng)
    B = random_cptp(2, 2, rng)
    assert abs(hs_inner(A, B)
               - np.trace(A.choi.conj().T @ B.choi)) < 1e-12
    assert abs(hs_inner(A, A).imag) < 1e-12


# ---------------------------------------------------------------------------
# the matrix Kronecker product and conjugation
# ---------------------------------------------------------------------------

def _same_bits(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("A, B", [
    (_rand_complex((1, 1)), _rand_complex((1, 1))),
    (_rand_complex((2, 3)), _rand_complex((4, 1))),
    (RNG.normal(size=(3, 2)), _rand_complex((2, 2))),
    (np.arange(6).reshape(2, 3), np.arange(-4, 4).reshape(4, 2)),
], ids=["1x1", "2x3-4x1", "real-complex", "int-int"])
def test_kron_is_numpy_kron_bit_for_bit(A, B):
    assert _same_bits(kron(A, B), np.kron(A, B))


def _conjugate_two_krons(S, U_out, U_in):
    """The two-Kronecker-product formula that ``conjugate`` replaces."""
    A = np.kron(U_out, U_out.conj())
    B = np.kron(U_in, U_in.conj())
    return A @ S.transfer @ B.conj().T


def _rand_unitary(d):
    return np.linalg.qr(_rand_complex((d, d)))[0]


@pytest.mark.parametrize("case", ["same object", "equal copies", "d_out != d_in"])
def test_conjugate_matches_the_two_kron_formula_bit_for_bit(case):
    d_in, d_out = (2, 3) if case == "d_out != d_in" else (3, 3)
    S = random_cptp(d_in, d_out, RNG)
    U_out = _rand_unitary(d_out)
    U_in = {"same object": U_out, "equal copies": U_out.copy()}.get(
        case, _rand_unitary(d_in))
    assert _same_bits(conjugate(S, U_out, U_in).transfer,
                      _conjugate_two_krons(S, U_out, U_in))


def test_library_forms_matrix_kronecker_products_only_with_kron():
    # linalg_core.kron is the one matrix Kronecker product and
    # Superoperator.tensor the one superoperator tensor product
    pattern = re.compile(r"\b(np|numpy)\.kron\b")
    hits = [f"{path.name}:{n}"
            for path in sorted(Path(symmetria.__file__).parent.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []
