"""Gauging bipartite symmetric elements with link frames, gauge fixing, and
the small-torus lattice demonstration."""

import numpy as np
import pytest

from symmetria.gauge import (GaugeCoupling, LinkFrame, build_gauged_lattice,
                             coupling_covariance_defect, degauge_marginal,
                             free_state_check, gauge_2symmetric, gauge_fix,
                             gauge_fix_stabilizer, link_action,
                             local_invariance_residual)
from symmetria.groups import GroupElement, RepSpec, rep_matrix
from symmetria.linalg_core import Superoperator, hs_inner
from symmetria.process_modes import build_canonical_modes, superop_group_action

N = 3
REP = RepSpec.zn_charges([0, 1], N)
DIM = REP.dim
MODES = build_canonical_modes(REP, REP)
FRAME = LinkFrame(N)


def _mode_charge(basis, mode):
    n = basis.rep_in.blocks[0][0].modulus
    g = GroupElement.zn(1, n)
    rot = superop_group_action(mode.op, g, basis.rep_in, basis.rep_out)
    phase = hs_inner(mode.op, rot) / hs_inner(mode.op, mode.op)
    c = int(round(np.angle(phase) * n / (2 * np.pi))) % n
    assert abs(phase - np.exp(2j * np.pi * c / n)) < 1e-10
    return c


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mode_charge_is_the_irrep_label(n):
    # gauging reads a mode's charge from its diagram label; the numeric
    # calibration by the g = 1 group action is the oracle
    rep = RepSpec.zn_charges([0, 1], n)
    basis = build_canonical_modes(rep, rep)
    for m in basis.modes:
        assert _mode_charge(basis, m) == m.diagram.lam.charge % n


def _random_2symmetric(rng, lam):
    """chi = sum_j c_j Phi^lam_{x,j} (x) Phi^{lam*}_{y,j}."""
    chi = Superoperator.zero(DIM * DIM, DIM * DIM)
    pairs = [
        (mx, my)
        for mx in MODES.modes if _mode_charge(MODES, mx) == lam
        for my in MODES.modes if _mode_charge(MODES, my) == (-lam) % N
    ]
    for mx, my in pairs:
        c = rng.normal() + 1j * rng.normal()
        chi = chi + c * mx.op.tensor(my.op)
    return chi


# ---------------------------------------------------------------------------
# link frames and couplings
# ---------------------------------------------------------------------------

def test_link_action_is_a_representation():
    for gx, gy in ((1, 2), (2, 0)):
        for hx, hy in ((0, 1), (2, 2)):
            lhs = link_action(FRAME, gx, gy) @ link_action(FRAME, hx, hy)
            rhs = link_action(FRAME, (gx + hx) % N, (gy + hy) % N)
            assert np.linalg.norm(lhs - rhs) < 1e-14
    U = link_action(FRAME, 1, 2)
    assert np.linalg.norm(U @ U.conj().T - np.eye(N)) < 1e-14


def test_coupling_covariance_exact():
    for lam in range(N):
        assert coupling_covariance_defect(GaugeCoupling(FRAME, lam)) < 1e-14


# ---------------------------------------------------------------------------
# gauging symmetric elements
# ---------------------------------------------------------------------------

def test_gauged_elements_locally_invariant():
    rng = np.random.default_rng(60)
    for lam in range(N):
        chi = _random_2symmetric(rng, lam)
        G = gauge_2symmetric(chi, lam, FRAME, MODES, MODES)
        assert G.invariance_residual < 1e-12
        # degauging with the link at |0><0| recovers the original element
        assert (degauge_marginal(G) - chi).norm() < 1e-12


def test_ungauged_element_not_locally_invariant():
    rng = np.random.default_rng(61)
    chi = _random_2symmetric(rng, 1)
    # reassemble chi with an identity link factor instead of the coupling
    from symmetria.linalg_core import identity_channel
    lifted = Superoperator.zero(DIM * N * DIM, DIM * N * DIM)
    for mx in MODES.modes:
        for my in MODES.modes:
            prod = mx.op.tensor(my.op)
            c = hs_inner(prod, chi) / hs_inner(prod, prod)
            if abs(c) < 1e-12:
                continue
            lifted = lifted + c * mx.op.tensor(identity_channel(N)).tensor(my.op)
    res = local_invariance_residual(lifted, REP, REP, FRAME)
    assert res > 0.1  # without the coupling the phases do not cancel


def test_gauge_2symmetric_rejects_wrong_charge():
    rng = np.random.default_rng(62)
    chi = _random_2symmetric(rng, 1)
    with pytest.raises(ValueError):
        gauge_2symmetric(chi, 2, FRAME, MODES, MODES)
    # a non-symmetric element (mismatched charge pair) is rejected too
    mx = next(m for m in MODES.modes if _mode_charge(MODES, m) == 1)
    my = next(m for m in MODES.modes if _mode_charge(MODES, m) == 1)
    with pytest.raises(ValueError):
        gauge_2symmetric(mx.op.tensor(my.op), 1, FRAME, MODES, MODES)
    # and so is an element mixing charges 1 and 2, under either label
    mixed = chi + _random_2symmetric(rng, 2)
    for lam in (1, 2):
        with pytest.raises(ValueError):
            gauge_2symmetric(mixed, lam, FRAME, MODES, MODES)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gauging_matches_the_per_pair_route(n):
    # oracle: expand chi over products of local modes and insert the
    # coupling between the two factors of every product,
    # sum_ij c_ij Phi_i (x) A_lam (x) Phi_j with c_ij = <Phi_i (x) Phi_j, chi>
    rng = np.random.default_rng(67 + n)
    rep = RepSpec.zn_charges([0, 1], n)
    basis = build_canonical_modes(rep, rep)
    frame = LinkFrame(n)
    d = rep.dim
    for lam in range(n):
        chi = Superoperator.zero(d * d, d * d)
        for mx in basis.modes:
            for my in basis.modes:
                if (mx.diagram.lam.charge == lam
                        and my.diagram.lam.charge == (-lam) % n):
                    c = rng.normal() + 1j * rng.normal()
                    chi = chi + c * mx.op.tensor(my.op)
        coupling = GaugeCoupling(frame, lam).superop
        expect = Superoperator.zero(d * n * d, d * n * d)
        for mx in basis.modes:
            for my in basis.modes:
                c = hs_inner(mx.op.tensor(my.op), chi)
                if abs(c) > 1e-14:  # the old route's skip, far below 1e-12
                    expect = expect + c * mx.op.tensor(coupling).tensor(my.op)
        G = gauge_2symmetric(chi, lam, frame, basis, basis)
        assert (G.superop - expect).norm() <= 1e-12


def test_gauge_fix_transformation_law():
    rng = np.random.default_rng(63)
    G = gauge_2symmetric(_random_2symmetric(rng, 1), 1, FRAME, MODES, MODES)
    for (gx, gy) in ((1, 0), (2, 1), (1, 2)):
        Ux = rep_matrix(REP, GroupElement.zn(gx, N))
        Uy = rep_matrix(REP, GroupElement.zn(gy, N))
        U = np.kron(np.kron(Ux, link_action(FRAME, gx, gy)), Uy)
        A = np.kron(U, U.conj())
        for h1, h2 in ((0, 0), (1, 2)):
            fixed = gauge_fix(G, h1, h2)
            moved = Superoperator.from_transfer(
                A @ fixed.transfer @ A.conj().T, DIM * N * DIM, DIM * N * DIM
            )
            target = gauge_fix(G, (gx + h1 - gy) % N, (gx + h2 - gy) % N)
            assert (moved - target).norm() < 1e-12


def test_gauge_fix_stabilizer_diagonal():
    rng = np.random.default_rng(64)
    G = gauge_2symmetric(_random_2symmetric(rng, 1), 1, FRAME, MODES, MODES)
    stab = gauge_fix_stabilizer(G, 1, 1)
    assert stab == [(g, g) for g in range(N)]


# ---------------------------------------------------------------------------
# lattice demonstration
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lattice():
    return build_gauged_lattice(2, 2, 3)


def test_lattice_structure(lattice):
    assert len(lattice.sites) == 4
    assert len(lattice.links) == 4   # periodic duplicates deduplicated
    assert lattice.dim == 2 ** 4 * 3 ** 4
    assert len(lattice.wilson_ops) == 2  # one plaquette, both orientations


def test_gauss_laws_commute_with_gauged_hamiltonian(lattice):
    worst_gauged = 0.0
    best_free = np.inf
    for U in lattice.gauss_ops.values():
        worst_gauged = max(worst_gauged, np.linalg.norm(
            U @ lattice.H_gauged - lattice.H_gauged @ U))
        best_free = min(best_free, np.linalg.norm(
            U @ lattice.H_free - lattice.H_free @ U))
    assert worst_gauged < 1e-10
    assert best_free > 1.0  # the free hopping breaks every local symmetry


def test_wilson_loops_invariant(lattice):
    for W in lattice.wilson_ops:
        for U in lattice.gauss_ops.values():
            assert np.linalg.norm(U @ W @ U.conj().T - W) < 1e-12


def test_local_action_matches_gauss_ops(lattice):
    for (si, g), U in list(lattice.gauss_ops.items())[:4]:
        charges = [0] * len(lattice.sites)
        charges[si] = g
        assert np.linalg.norm(lattice.local_action(charges) - U) < 1e-12


def test_twirl_matches_group_enumeration(lattice):
    rng = np.random.default_rng(66)
    d = lattice.dim
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    fast = lattice.twirl(M)
    slow = lattice.twirl_enumerate(M)
    assert np.linalg.norm(fast - slow) < 1e-10
    # idempotent projection
    assert np.linalg.norm(lattice.twirl(fast) - fast) < 1e-10


def test_dynamics_defects_agree_for_vector_and_density(lattice):
    rng = np.random.default_rng(68)
    d = lattice.dim
    # random diagonal phases do not commute with the Gauss-law link shifts
    V = np.diag(np.exp(2j * np.pi * rng.uniform(size=d)))
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    (pure,) = lattice.dynamics_commutation_defects(V, [psi])
    (dense,) = lattice.dynamics_commutation_defects(
        V, [np.outer(psi, psi.conj())])
    assert pure > 1e-3
    assert abs(pure - dense) <= 1e-12


def test_free_state_check(lattice):
    rng = np.random.default_rng(65)
    d = lattice.dim
    # random state: not free
    diag = rng.uniform(size=d)
    rho = np.diag(diag / diag.sum()).astype(complex)
    v1 = free_state_check(lattice, rho)
    assert not v1.is_free and v1.twirl_distance > 1e-6
    # its twirl is free (the twirl is idempotent)
    sigma = lattice.twirl(rho)
    v2 = free_state_check(lattice, sigma)
    assert v2.is_free and v2.twirl_distance < 1e-10
