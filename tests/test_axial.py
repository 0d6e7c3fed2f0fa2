"""Axial channels: spherical harmonics, polar split, qubit channel table."""

import time

import numpy as np
import pytest
from scipy.integrate import dblquad

from printed_qubit import single_qubit_modes
from symmetria.axial import (FULL_GROUP, POINT, SPHERE, _axis_tensor,
                             _harmonic_vector, axial_table, dephasing_channel,
                             depolarizing_qubit, polar_decompose,
                             rotation_channel, sph_harm,
                             state_preparation_channel)
from symmetria.groups import (IrrepLabel, RepSpec, generators, random_su2,
                              su2_matrix, wigner_D)
from symmetria.linalg_core import (Superoperator, check_cptp, random_cptp,
                                   unitary_channel)
from symmetria.process_modes import (build_canonical_modes,
                                     project_isotypic_basis,
                                     superop_group_action)

QUBIT = RepSpec.su2_spins([1])
MODES = build_canonical_modes(QUBIT, QUBIT)


# ---------------------------------------------------------------------------
# spherical harmonics
# ---------------------------------------------------------------------------

def test_sph_harm_known_values():
    th, ph = 0.7, 1.3
    assert abs(sph_harm(0, 0, th, ph) - 0.5 / np.sqrt(np.pi)) < 1e-14
    y10 = np.sqrt(3 / (4 * np.pi)) * np.cos(th)
    assert abs(sph_harm(2, 0, th, ph) - y10) < 1e-12
    y11 = -np.sqrt(3 / (8 * np.pi)) * np.sin(th) * np.exp(1j * ph)
    assert abs(sph_harm(2, 2, th, ph) - y11) < 1e-12


def test_sph_harm_conjugation_symmetry():
    th, ph = 1.1, 2.4
    for two_l in (0, 2, 4, 6):
        for two_m in range(-two_l, two_l + 2, 2):
            lhs = sph_harm(two_l, -two_m, th, ph)
            rhs = (-1.0) ** (two_m // 2) * np.conj(sph_harm(two_l, two_m, th, ph))
            assert abs(lhs - rhs) < 1e-12


def test_sph_harm_gram_identity():
    # orthonormality over the sphere by direct quadrature, residual <= 1e-10
    entries = [(two_l, two_m) for two_l in (0, 2, 4)
               for two_m in range(-two_l, two_l + 2, 2)]
    for i, (l1, m1) in enumerate(entries):
        for (l2, m2) in entries[i:]:
            if m1 != m2:
                continue  # the phi integral vanishes identically
            val = dblquad(
                lambda th, ph: np.real(
                    np.conj(sph_harm(l1, m1, th, ph))
                    * sph_harm(l2, m2, th, ph) * np.sin(th)
                ),
                0.0, 2 * np.pi, 0.0, np.pi,
                epsabs=1e-12,
            )[0]
            expect = 1.0 if (l1, m1) == (l2, m2) else 0.0
            assert abs(val - expect) < 1e-10


def test_sph_harm_rejects_half_integer():
    with pytest.raises(ValueError):
        sph_harm(1, 1, 0.3, 0.0)


# ---------------------------------------------------------------------------
# polar decomposition
# ---------------------------------------------------------------------------

def _random_axial_channel(rng):
    """Random z-axial channel: a convex mixture of rotation-about-z composed
    with dephasing, and a state preparation polarised along z."""
    p = rng.uniform(0.0, 1.0)
    q = rng.uniform(0.1, 0.4)
    pol = rng.uniform(0.2, 0.9)
    ang = rng.uniform(0.3, 2 * np.pi - 0.3)
    rot_deph = Superoperator.from_transfer(
        rotation_channel(ang).transfer @ dephasing_channel(p).transfer, 2, 2
    )
    return (1 - q) * rot_deph + q * state_preparation_channel(pol)


def test_polar_symmetric_channel_is_point():
    pd = polar_decompose(depolarizing_qubit(0.4), MODES)
    assert pd.orbit_point.kind == POINT
    assert pd.fit_residual < 1e-10


def test_polar_axis_recovery():
    rng = np.random.default_rng(14)
    for _ in range(25):
        S = _random_axial_channel(rng)
        assert check_cptp(S).is_cptp
        g = random_su2(rng)
        rot = superop_group_action(S, g, QUBIT, QUBIT)
        pd = polar_decompose(rot, MODES)
        assert pd.orbit_point.kind == SPHERE
        assert pd.fit_residual <= 1e-8
        # the recovered axis is the rotated z axis (up to overall sign)
        th, ph = pd.orbit_point.theta, pd.orbit_point.phi
        axis = np.array([np.sin(th) * np.cos(ph),
                         np.sin(th) * np.sin(ph), np.cos(th)])
        target = _bloch_rotation(g) @ np.array([0.0, 0.0, 1.0])
        assert (np.linalg.norm(axis - target) < 1e-6
                or np.linalg.norm(axis + target) < 1e-6)


def _unit(theta, phi):
    return np.array([np.sin(theta) * np.cos(phi),
                     np.sin(theta) * np.sin(phi), np.cos(theta)])


def _axis(orbit_point):
    return _unit(orbit_point.theta, orbit_point.phi)


@pytest.mark.parametrize("two_lam", [2, 4, 6, 8, 10, 12])
def test_axis_tensor_oracle(two_lam):
    # for alpha = a * (pattern of n) the tensor is a positive multiple of
    # n n^T - 1/3, and it rotates with alpha
    rng = np.random.default_rng(two_lam)
    lab = IrrepLabel.su2(two_lam)
    for _ in range(50):
        th, ph = np.arccos(rng.uniform(-1, 1)), rng.uniform(0, 2 * np.pi)
        n = _unit(th, ph)
        alpha = complex(*rng.normal(size=2)) * _harmonic_vector(two_lam, th, ph)
        T = _axis_tensor(alpha, two_lam)
        top = np.linalg.eigh(T)[1][:, 2]
        assert min(np.linalg.norm(top - n), np.linalg.norm(top + n)) < 1e-12
        shape = np.outer(n, n) - np.eye(3) / 3
        c = np.sum(T * shape) / np.sum(shape * shape)
        assert c > 0
        assert np.abs(T - c * shape).max() < 1e-12 * c
        g = random_su2(rng)
        R = _bloch_rotation(g)
        rotated = _axis_tensor(wigner_D(lab, g) @ alpha, two_lam)
        assert np.abs(rotated - R @ T @ R.T).max() < 1e-12 * max(1.0, c)


def test_polar_lam3_process_is_closed_form():
    # spin 3/2 with weight only in lam = 0 and lam = 3: no lam = 1 or 2
    # family to read an axis from
    rep = RepSpec.su2_spins([3])
    basis = build_canonical_modes(rep, rep)
    Jz = generators(rep)[2]
    chan = unitary_channel(np.diag(np.exp(-0.9j * np.diag(Jz) ** 3)))
    S = sum((project_isotypic_basis(chan, IrrepLabel.su2(two), basis)
             for two in (0, 6)), Superoperator.zero(4, 4))
    g = random_su2(np.random.default_rng(3))
    rotated = superop_group_action(S, g, rep, rep)
    t0 = time.perf_counter()
    pd = polar_decompose(rotated, basis)
    elapsed = time.perf_counter() - t0
    assert pd.orbit_point.kind == SPHERE
    assert pd.fit_residual <= 1e-12
    target = _bloch_rotation(g) @ np.array([0.0, 0.0, 1.0])
    target = target if target[2] > 0 else -target
    assert np.linalg.norm(_axis(pd.orbit_point) - target) < 1e-10
    assert elapsed < 0.5


def test_polar_axis_is_stable_under_rounding():
    # a 1e-15 perturbation leaves the orbit point where it was, hemisphere
    # included, for purely imaginary lam = 1 amplitudes
    rng = np.random.default_rng(19)
    for _ in range(100):
        S = superop_group_action(
            rotation_channel(rng.uniform(0.3, 2 * np.pi - 0.3)),
            random_su2(rng), QUBIT, QUBIT)
        E = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        nudged = Superoperator.from_transfer(S.transfer + 1e-15 * E, 2, 2)
        a = polar_decompose(S, MODES).orbit_point
        b = polar_decompose(nudged, MODES).orbit_point
        assert a.kind == b.kind == SPHERE
        assert np.linalg.norm(_axis(a) - _axis(b)) < 1e-9
        assert _axis(a)[2] >= 0


def test_polar_rejects_half_integer_families():
    rep = RepSpec.su2_spins([1, 0])  # spin 1/2 (+) spin 0: half-integer lam
    basis = build_canonical_modes(rep, rep)
    with pytest.raises(ValueError):
        polar_decompose(random_cptp(3, 3, np.random.default_rng(2)), basis)
    with pytest.raises(ValueError, match="integer j, m only"):
        _axis_tensor(np.ones(4, dtype=complex), 3)


def _bloch_rotation(g):
    U = su2_matrix(g)
    sig = [np.array([[0, 1], [1, 0]], dtype=complex),
           np.array([[0, -1j], [1j, 0]]),
           np.diag([1.0, -1.0]).astype(complex)]
    R = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            R[a, b] = np.real(np.trace(sig[a] @ U @ sig[b] @ U.conj().T)) / 2
    return R


def test_polar_invariants_constant_on_orbit():
    rng = np.random.default_rng(15)
    S = _random_axial_channel(rng)
    pd0 = polar_decompose(S, MODES)
    base = {str(d): abs(a) for d, a in pd0.invariants.items()}
    for _ in range(20):
        g = random_su2(rng)
        pd = polar_decompose(
            superop_group_action(S, g, QUBIT, QUBIT), MODES
        )
        for d, a in pd.invariants.items():
            assert abs(abs(a) - base[str(d)]) < 1e-8


def test_polar_generic_channel_warns():
    # a channel with trivial stabilizer cannot fit the sphere model
    rng = np.random.default_rng(16)
    S = random_cptp(2, 2, rng)
    pd = polar_decompose(S, MODES)
    assert pd.orbit_point.kind == FULL_GROUP
    assert pd.orbit_point.warning


# ---------------------------------------------------------------------------
# printed single-qubit mode catalog and the channel table
# ---------------------------------------------------------------------------

def test_single_qubit_modes_unitary_span():
    basis = single_qubit_modes()
    assert len(basis.modes) == 13  # the unphysical diagram is omitted
    # the printed modes are unnormalised but mutually orthogonal
    V = np.array([m.op.choi.reshape(-1) / m.op.norm() for m in basis.modes])
    G = V.conj() @ V.T
    assert np.linalg.norm(G - np.eye(13)) < 1e-10


def test_axial_table_rows_reconstruct():
    rows = axial_table(p=0.3, angle=0.7)
    assert [r.name for r in rows] == [
        "dephasing", "projective measurement", "rotation about z",
        "state preparation", "depolarizing",
    ]
    for row in rows:
        assert row.reconstruction_residual <= 1e-8
        assert check_cptp(row.channel).is_cptp


def test_axial_table_documented_discrepancies():
    rows = {r.name: r for r in axial_table(p=0.3, angle=0.7)}
    # rows that match the published values outright
    assert max(rows["projective measurement"].deviation) < 1e-10
    assert max(rows["state preparation"].deviation) < 1e-10
    # rows with documented published-value discrepancies carry notes
    for name in ("dephasing", "rotation about z", "depolarizing"):
        assert max(rows[name].deviation) > 1e-3
        assert rows[name].note


def test_axial_table_refuses_a_non_finite_angle():
    for angle in (float("inf"), float("nan")):
        with pytest.raises(ValueError,
                           match=f"angle must be finite, got {angle}"):
            axial_table(angle=angle)


def test_axial_table_at_an_angle_whose_double_overflows():
    # the rotation row's published sin(2 angle) is 2 sin(angle) cos(angle):
    # 2 angle is inf for |angle| > 8.99e307
    for angle in (1e308, -1e308):
        for row in axial_table(angle=angle):
            assert row.reconstruction_residual <= 1e-8


def test_dephasing_amplitudes_closed_form():
    p = 0.35
    rows = {r.name: r for r in axial_table(p=p)}
    a0, a1i, a1, a2 = rows["dephasing"].computed
    assert abs(a0 + (2 * p + 1) / np.sqrt(3)) < 1e-12
    assert abs(a1i) < 1e-12 and abs(a1) < 1e-12
    assert abs(a2 - (1 - p)) < 1e-12
