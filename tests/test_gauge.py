"""Gauging bipartite symmetric elements with link frames, gauge fixing, and
the small-torus lattice demonstration."""

import re
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from symmetria import linalg_core
from symmetria.bipartite import pair_sum
from symmetria.gauge import (GaugedProcess, LinkFrame, _canonical,
                             _local_action, _plaquette_cycles,
                             build_gauged_lattice, degauge_marginal,
                             free_state_check, gauge_2symmetric, gauge_fix,
                             gauge_fix_stabilizer, local_invariance_residual)
from symmetria.groups import GroupElement, RepSpec, rep_matrix
from symmetria.linalg_core import (Monomial, Superoperator, conjugate,
                                   hs_inner, identity_channel)
from symmetria.process_modes import (build_canonical_modes,
                                     superop_group_action)

N = 3
REP = RepSpec.zn_charges([0, 1], N)
DIM = REP.dim
MODES = build_canonical_modes(REP, REP)
FRAME = LinkFrame(N)


def _mode_charge(basis, mode):
    n = basis.rep_in.blocks[0].modulus
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

def _coupling(frame, lam):
    """The charge-lambda link coupling A_lam(sigma) = L_lam sigma as a
    superoperator: row-major vec(L sigma) = (L (x) I) vec(sigma)."""
    return Superoperator.from_transfer(
        linalg_core.kron(frame.charge_operator(lam), np.eye(frame.N)),
        frame.N, frame.N)


def test_link_action_is_a_representation():
    for gx, gy in ((1, 2), (2, 0)):
        for hx, hy in ((0, 1), (2, 2)):
            lhs = FRAME.delta_power(gx - gy) @ FRAME.delta_power(hx - hy)
            rhs = FRAME.delta_power((gx + hx) % N - (gy + hy) % N)
            assert np.linalg.norm(lhs - rhs) < 1e-14
    U = FRAME.delta_power(-1)
    assert np.linalg.norm(U @ U.conj().T - np.eye(N)) < 1e-14


def test_coupling_covariance_exact():
    # A_lambda picks up omega^(lambda (g_y - g_x)) under the link action
    # conjugation, over all of Z_N x Z_N
    shift = [Monomial((np.arange(N) + k) % N, np.ones(N)) for k in range(N)]
    for lam in range(N):
        K = _coupling(FRAME, lam).transfer
        for gx in range(N):
            for gy in range(N):
                phase = np.exp(2j * np.pi * lam * (gy - gx) / N)
                assert np.linalg.norm(shift[gx - gy].transfer().conjugate(K)
                                      - phase * K) < 1e-14


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


def _link_to_middle(d, n):
    """Oracle: the dense permutation x (x) y (x) link -> x (x) link (x) y."""
    P = np.eye(d * d * n).reshape(d, d, n, -1).transpose(0, 2, 1, 3)
    return P.reshape(d * n * d, -1)


def _local_unitary(rep_x, rep_y, frame, gx, gy):
    """Oracle: U_{g_x} (x) Delta^{g_x - g_y} (x) U_{g_y} on A_x (x) link (x)
    A_y as a dense unitary, intertwiners included."""
    Ux = rep_matrix(rep_x, GroupElement.zn(gx, frame.N))
    Uy = rep_matrix(rep_y, GroupElement.zn(gy, frame.N))
    return np.kron(np.kron(Ux, frame.delta_power(gx - gy)), Uy)


def _full_invariance_residual(S, rep_x, rep_y, frame):
    """Max invariance defect over every element of Z_N x Z_N."""
    worst = 0.0
    for gx in range(frame.N):
        for gy in range(frame.N):
            U = _local_unitary(rep_x, rep_y, frame, gx, gy)
            worst = max(worst, (conjugate(S, U, U) - S).norm())
    return worst


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generator_residual_bounds_the_full_enumeration(n):
    # the generators are group elements, and every element is a word of at
    # most 2(n - 1) generators, so by the triangle inequality
    # gen <= full <= 2(n - 1) gen
    rng = np.random.default_rng(90 + n)
    rep = RepSpec.zn_charges([0, 1], n)
    basis = build_canonical_modes(rep, rep)
    frame = LinkFrame(n)
    d = rep.dim
    P = _link_to_middle(d, n)
    for lam in sorted({1, n - 1}):
        chi = Superoperator.zero(d * d, d * d)
        for mx in basis.modes:
            for my in basis.modes:
                if (mx.diagram.lam.charge == lam
                        and my.diagram.lam.charge == (-lam) % n):
                    c = rng.normal() + 1j * rng.normal()
                    chi = chi + c * mx.op.tensor(my.op)
        gauged = gauge_2symmetric(chi, lam, frame, basis, basis).superop
        lifted = conjugate(chi.tensor(identity_channel(n)), P, P)
        for S, invariant in ((gauged, True), (lifted, False)):
            gen = local_invariance_residual(S, rep, rep, frame)
            full = _full_invariance_residual(S, rep, rep, frame)
            assert gen <= full <= 2 * (n - 1) * gen
            assert (full < 1e-12) if invariant else (full > 0.1)


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
        coupling = _coupling(frame, lam)
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
        U = np.kron(np.kron(Ux, FRAME.delta_power(gx - gy)), Uy)
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


def _charge_pair_element(rng, basis, n, lam_x, lam_y):
    """sum_ij c_ij Phi_i (x) Phi_j over modes of charges lam_x and lam_y."""
    d = basis.rep_in.dim
    chi = Superoperator.zero(d * d, d * d)
    for mx in basis.modes:
        for my in basis.modes:
            if (mx.diagram.lam.charge == lam_x % n
                    and my.diagram.lam.charge == lam_y % n):
                c = rng.normal() + 1j * rng.normal()
                chi = chi + c * mx.op.tensor(my.op)
    return chi


def _dense_gauging(chi, lam, rep, frame):
    """Oracle: the gauged element with a dense x (x) y (x) link -> x (x) link
    (x) y permutation, and its generator residual by dense conjugations."""
    d, n = rep.dim, frame.N
    P = _link_to_middle(d, n)
    gauged = conjugate(chi.tensor(_coupling(frame, lam)), P, P)
    res = max((conjugate(gauged, U, U) - gauged).norm()
              for U in (_local_unitary(rep, rep, frame, 1, 0),
                        _local_unitary(rep, rep, frame, 0, 1)))
    return gauged, res


def _dense_stabilizer(G, h1, h2, tol=1e-10):
    """Oracle: gauge fixing by dense link projectors, then every element of
    Z_N x Z_N tried by a dense conjugation."""
    def link_projector(h):
        pi = np.diag(np.eye(G.frame.N, dtype=complex)[h % G.frame.N])
        return np.kron(np.kron(np.eye(G.rep_x.dim), pi), np.eye(G.rep_y.dim))
    fixed = conjugate(G.superop, link_projector(h2), link_projector(h1))
    assert np.array_equal(gauge_fix(G, h1, h2).transfer, fixed.transfer)
    keep = []
    for gx in range(G.frame.N):
        for gy in range(G.frame.N):
            U = _local_unitary(G.rep_x, G.rep_y, G.frame, gx, gy)
            if (conjugate(fixed, U, U) - fixed).norm() <= tol:
                keep.append((gx, gy))
    return keep


def _oracle_elements(rng, n, rep=None):
    """A gauged element, the same element lifted with an identity link, and
    a lifted element of charges (1, 1), which no (g, g) with 2g != 0 fixes;
    each wrapped as a GaugedProcess."""
    rep = RepSpec.zn_charges([0, 1], n) if rep is None else rep
    basis = build_canonical_modes(rep, rep)
    frame = LinkFrame(n)
    d = rep.dim
    P = _link_to_middle(d, n)
    chi = _charge_pair_element(rng, basis, n, 1, -1)
    G = gauge_2symmetric(chi, 1, frame, basis, basis)
    out = [G]
    for element in (chi, _charge_pair_element(rng, basis, n, 1, 1)):
        lifted = conjugate(element.tensor(identity_channel(n)), P, P)
        out.append(GaugedProcess(rep, rep, frame, 1, lifted, float("nan")))
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_monomial_local_action_matches_the_dense_conjugation(n):
    rng = np.random.default_rng(80 + n)
    rep = RepSpec.zn_charges([0, 1], n)
    frame = LinkFrame(n)
    gauged, lifted, _ = _oracle_elements(rng, n)
    for G in (gauged, lifted):
        K = G.superop.transfer
        for gx in range(n):
            for gy in range(n):
                U = _local_unitary(rep, rep, frame, gx, gy)
                got = _local_action(rep, rep, n, gx, gy).transfer().conjugate(K)
                want = conjugate(G.superop, U, U).transfer
                assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stabilizer_matches_the_dense_enumeration(n):
    # the lifted element has the gauged one's stabilizers; the charge-(1, 1)
    # element is fixed only by the (g, g) with 2g = 0
    gauged, _, charged = _oracle_elements(np.random.default_rng(85 + n), n)
    for G in (gauged, charged):
        for h1, h2 in ((0, 0), (1, 1), (0, 1)):
            assert gauge_fix_stabilizer(G, h1, h2) == _dense_stabilizer(
                G, h1, h2)
    assert gauge_fix_stabilizer(charged, 0, 0) == [
        (g, g) for g in range(n) if 2 * g % n == 0]


def test_intertwined_rep_gauges_as_the_dense_route():
    # an intertwiner makes the rep non-monomial in its own basis; gauging
    # moves it to the canonical frame and must agree with dense products
    n = 3
    rng = np.random.default_rng(75)
    Q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    rep = RepSpec.zn_charges([0, 1], n, intertwiner=Q)
    basis = build_canonical_modes(rep, rep)
    frame = LinkFrame(n)
    for lam in range(n):
        chi = _charge_pair_element(rng, basis, n, lam, -lam)
        G = gauge_2symmetric(chi, lam, frame, basis, basis)
        gauged, res = _dense_gauging(chi, lam, rep, frame)
        assert (G.superop - gauged).norm() <= 1e-12
        assert abs(G.invariance_residual - res) <= 1e-12
        for h1, h2 in ((0, 0), (1, 1), (0, 1)):
            assert gauge_fix_stabilizer(G, h1, h2) == _dense_stabilizer(
                G, h1, h2)
    with pytest.raises(ValueError):
        gauge_2symmetric(_charge_pair_element(rng, basis, n, 1, 1), 1, frame,
                         basis, basis)
    lifted = _oracle_elements(rng, n, rep)[1].superop
    assert abs(local_invariance_residual(lifted, rep, rep, frame)
               - max((conjugate(lifted, U, U) - lifted).norm()
                     for U in (_local_unitary(rep, rep, frame, 1, 0),
                               _local_unitary(rep, rep, frame, 0, 1)))) <= 1e-12


def _link_between(chi, link, dx, dy):
    """Oracle: the former insertion, chi (x) link on x (x) y (x) link,
    reordered to x (x) link (x) y by a Monomial gather."""
    n = link.dim_in
    order = np.arange(dx * n * dy).reshape(dx, n, dy).transpose(0, 2, 1)
    P = Monomial(order.ravel(), np.ones(order.size, dtype=complex))
    lifted = chi.tensor(link)
    return Superoperator(lifted.dim_in, lifted.dim_out,
                         P.transfer().conjugate(lifted.transfer))


def _link_fourier_stabilizer(G, h1, h2, tol=1e-10):
    """Oracle: the former route.  In the reps' canonical frames and the link
    Fourier frame, state (a, r, b) picks up omega^(g_x c_x + g_y c_y) with
    c_x = q_x(a) + r, c_y = q_y(b) - r, and a transfer entry omega^(g . Q)
    for its charge pair Q, so the defect of g is
    sqrt(sum_Q |omega^(g . Q) - 1|^2 w_Q), w_Q the squared weight on Q."""
    N, dims = G.frame.N, (G.rep_x.dim, G.frame.N, G.rep_y.dim)
    K = _canonical(gauge_fix(G, h1, h2), G.rep_x, G.rep_y, N).transfer
    K = np.fft.ifftn(np.fft.fftn(K.reshape(dims * 4), axes=(4, 7),
                                 norm="ortho"), axes=(1, 10), norm="ortho")
    a, r, b = np.indices(dims).reshape(3, -1)
    c = np.stack([G.rep_x.weights[a] + r, G.rep_y.weights[b] - r])
    v = (c[:, :, None] - c[:, None]).reshape(2, -1)
    Q = (v[:, :, None] - v[:, None]) % N
    w = np.bincount((Q[0] * N + Q[1]).ravel(), abs(K.ravel()) ** 2, N * N)
    pairs = np.indices((N, N)).reshape(2, -1)
    defect = abs(np.exp(2j * np.pi * (pairs.T @ pairs % N) / N) - 1) ** 2 @ w
    return [(int(gx), int(gy)) for gx, gy in pairs.T[np.sqrt(defect) <= tol]]


def _assert_insertion_is_the_tensor_route(rng, rep_x, rep_y, n):
    """For every charge, gauge_2symmetric's transfer equals the former
    route's bit for bit."""
    frame = LinkFrame(n)
    bx, by = build_canonical_modes(rep_x, rep_x), build_canonical_modes(
        rep_y, rep_y)
    for lam in range(n):
        x, y = np.flatnonzero(bx.lam == lam), np.flatnonzero(by.lam == -lam % n)
        c = rng.normal(size=(len(x), len(y), 2)) @ [1.0, 1.0j]
        chi = pair_sum(bx, by, np.repeat(x, len(y)), np.tile(y, len(x)),
                       c.ravel())
        G = gauge_2symmetric(chi, lam, frame, bx, by)
        want = _link_between(chi, _coupling(frame, lam), rep_x.dim, rep_y.dim)
        assert np.array_equal(G.superop.transfer, want.transfer)


@pytest.mark.parametrize("n, dy", [(2, 3), (3, 3), (4, 3), (5, 3), (4, 2),
                                   (8, 2)])
def test_insertion_matches_the_tensor_route(n, dy):
    # site x carries charges {0, 1}, site y charges {0, ..., dy - 1}
    _assert_insertion_is_the_tensor_route(
        np.random.default_rng(110 + n), RepSpec.zn_charges([0, 1], n),
        RepSpec.zn_charges(range(dy), n), n)


def test_insertion_matches_the_tensor_route_for_an_intertwined_rep():
    rng = np.random.default_rng(76)
    Q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    rep = RepSpec.zn_charges([0, 1], 3, intertwiner=Q)
    _assert_insertion_is_the_tensor_route(rng, rep, rep, 3)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_stabilizer_matches_the_link_fourier_route(n):
    # gauged, lifted (not locally invariant) and charge-(1, 1) elements; at
    # h1 != h2 the fixed block of each is zero, so every pair fixes it.  A
    # random element with its (h1, h2) = (0, 1) block zeroed tells the
    # blocks apart.
    rng = np.random.default_rng(120 + n)
    rep = RepSpec.zn_charges([0, 1], n)
    basis = build_canonical_modes(rep, rep)
    frame = LinkFrame(n)
    chi = _charge_pair_element(rng, basis, n, 1, -1)
    charged = _charge_pair_element(rng, basis, n, 1, 1)
    noise = rng.normal(size=(2, (4 * n) ** 4)).T @ [1.0, 1.0j]
    noise.reshape((2, n, 2) * 4)[(np.s_[:], 1, np.s_[:]) * 2
                                 + (np.s_[:], 0, np.s_[:]) * 2] = 0
    elements = [gauge_2symmetric(chi, 1, frame, basis, basis)] + [
        GaugedProcess(rep, rep, frame, 1, S, np.nan) for S in (
            _link_between(chi, identity_channel(n), 2, 2),
            _link_between(charged, identity_channel(n), 2, 2),
            Superoperator(4 * n, 4 * n, noise.reshape((4 * n) ** 2, -1)))]
    for G in elements:
        for h1, h2 in ((0, 0), (1, 1), (0, 1)):
            assert gauge_fix_stabilizer(G, h1, h2) == (
                _link_fourier_stabilizer(G, h1, h2))


def test_gauge_layer_makes_no_dense_conjugation(monkeypatch):
    # the Z_N actions are monomial: gauging, its residual and the stabilizer
    # move entries, and the lattice forms no dense Gauss unitary unless
    # gauss_ops is read
    chi = _random_2symmetric(np.random.default_rng(77), 1)
    dense, calls = linalg_core.conjugate, []

    def counted(*args):
        calls.append(args)
        return dense(*args)
    for name, module in list(sys.modules.items()):
        if (name.startswith("symmetria")
                and getattr(module, "conjugate", None) is dense):
            monkeypatch.setattr(module, "conjugate", counted)
    G = gauge_2symmetric(chi, 1, FRAME, MODES, MODES)
    local_invariance_residual(G.superop, REP, REP, FRAME)
    gauge_fix_stabilizer(G, 0, 0)
    assert calls == []

    # the build holds index structure only: one d x d complex array at
    # 2x2 Z_3 (d = 1,296) is 25.6 MiB, and the build traces about 0.16 MiB
    tracemalloc.start()
    try:
        lat = build_gauged_lattice(2, 2, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    rho = np.eye(lat.dim, dtype=complex) / lat.dim
    psi = np.ones(lat.dim, dtype=complex) / np.sqrt(lat.dim)
    V = np.diag(np.exp(2j * np.pi * np.arange(lat.dim) / lat.dim))
    for gauged in (True, False):
        lat.gauss_commutators(lat.hamiltonian(gauged))
    for p in lat.wilson_phases:
        lat.gauss_commutators(sparse.diags(p))
    lat.twirl(rho)
    free_state_check(lat, rho)
    lat.dynamics_commutation_defects(V, [psi])
    for name in ("gauss_ops", "H_free", "H_gauged", "wilson_ops"):
        assert name not in lat.__dict__


# ---------------------------------------------------------------------------
# lattice demonstration
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lattice():
    return build_gauged_lattice(2, 2, 3)


def test_lattice_refusals_name_their_cause():
    with pytest.raises(ValueError, match="link modulus must be at least 2"):
        build_gauged_lattice(2, 2, 1)
    with pytest.raises(ValueError, match="desk-scale"):
        build_gauged_lattice(2, 2, 5)


def test_the_desk_scale_guard_bounds_the_lattice_dimension():
    # at most 4 sites and 4 links pass the guard, so no admitted lattice
    # exceeds 2^4 * 4^4 = 4,096 states
    dims = {}
    for Lx in range(1, 6):
        for Ly in range(1, 6):
            for n in range(2, 6):
                try:
                    lat = build_gauged_lattice(Lx, Ly, n)
                except ValueError as e:
                    assert "desk-scale" in str(e)
                    assert Lx * Ly > 4 or n > 4
                    continue
                assert len(lat.sites) <= 4 and len(lat.links) <= 4
                dims[Lx, Ly, n] = lat.dim
    assert len(dims) == 8 * 3
    assert max(dims.values()) == 4096
    assert {k for k, d in dims.items() if d == 4096} == {(1, 4, 4), (4, 1, 4),
                                                          (2, 2, 4)}


def test_dynamics_defects_refuse_mismatched_shapes():
    lat = build_gauged_lattice(2, 1, 2)  # d = 8
    psi = np.ones(8) / np.sqrt(8)
    for V in (np.eye(3), np.eye(8)[:, :4]):
        with pytest.raises(ValueError, match=r"dynamics V has shape .*"
                           r"expected \(8, 8\)"):
            lat.dynamics_commutation_defects(V, [psi])
    for bad in (np.ones(9), np.eye(8)[:, :4], np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match=r"state 1 has shape .*"
                           r"expected \(8,\) or \(8, 8\)"):
            lat.dynamics_commutation_defects(np.eye(8), [psi, bad])


def test_free_state_check_names_the_shape():
    lat = build_gauged_lattice(2, 1, 2)  # d = 8
    for bad in (np.eye(4), np.ones(8), np.eye(8)[:, :4]):
        with pytest.raises(ValueError, match=r"state has shape "
                           + re.escape(str(bad.shape))
                           + r", expected \(8, 8\)"):
            free_state_check(lat, bad)


def test_twirl_names_the_shape():
    # the orbit tables would read a 9 x 9 input as if its rows were 8 long
    lat = build_gauged_lattice(2, 1, 2)  # d = 8
    for bad in (np.eye(9), np.ones(8), np.eye(4)):
        with pytest.raises(ValueError, match=r"state has shape "
                           + re.escape(str(bad.shape))
                           + r", expected \(8, 8\)"):
            lat.twirl(bad)


def test_lattice_structure(lattice):
    assert len(lattice.sites) == 4
    assert len(lattice.links) == 4   # periodic duplicates deduplicated
    assert lattice.dim == 2 ** 4 * 3 ** 4
    assert len(lattice.wilson_ops) == 2  # one plaquette, both orientations


def test_gauss_laws_commute_with_gauged_hamiltonian(lattice):
    worst_gauged = max(lattice.gauss_commutators(lattice.H_gauged).values())
    best_free = min(lattice.gauss_commutators(lattice.H_free).values())
    assert worst_gauged < 1e-10
    assert best_free > 1.0  # the free hopping breaks every local symmetry


def test_wilson_loops_invariant(lattice):
    for W in lattice.wilson_ops:
        for c in lattice.gauss_commutators(W).values():
            assert c < 1e-12


@pytest.mark.parametrize("Lx, Ly, n", [
    (1, 2, 2), (2, 1, 2), (2, 2, 2), (1, 2, 3), (2, 1, 3), (2, 2, 3),
    (1, 2, 4)])
def test_gauss_commutators_match_dense_products(Lx, Ly, n):
    # oracle: ||U M - M U|| with the stored dense Gauss unitaries.  Each has
    # one nonzero per row and column, so multiplying it in CSR form gives
    # the dense product without the d^3 cost (64 products at d = 1,296)
    # the dense input and the sparse forms give the same values
    lat = build_gauged_lattice(Lx, Ly, n)
    gauss = {key: sparse.csr_matrix(U) for key, U in lat.gauss_ops.items()}
    sparse_forms = [lat.hamiltonian(gauged=False), lat.hamiltonian(gauged=True)]
    sparse_forms += [sparse.diags(p) for p in lat.wilson_phases]
    for M, S in zip((lat.H_free, lat.H_gauged) + lat.wilson_ops,
                    sparse_forms):
        got, from_sparse = lat.gauss_commutators(M), lat.gauss_commutators(S)
        assert list(got) == list(from_sparse) == list(gauss)
        for key, U in gauss.items():
            assert abs(got[key] - np.linalg.norm(U @ M - M @ U)) <= 1e-12
            assert abs(from_sparse[key] - got[key]) <= 1e-12


_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # a |1> = |0>
_NUMBER = _LOWER.conj().T @ _LOWER


def _embed(ops, ns, nl, n):
    """Kron an operator dict {factor_index: matrix} into the full space,
    factors ordered sites (qubits) then links (dim n)."""
    out = np.array([[1.0 + 0j]])
    for f in range(ns + nl):
        d = 2 if f < ns else n
        out = np.kron(out, ops.get(f, np.eye(d, dtype=complex)))
    return out


def _dense_lattice(Lx, Ly, n):
    """Oracle: the lattice as dense Kronecker products, factor by factor.
    Returns (links, operators), where operators yields ("H_free", H),
    ("H_gauged", H), (("gauss", key), U) in key order, then ("wilson", W)
    one at a time, so only one dense operator is held."""
    sites = [(x, y) for y in range(Ly) for x in range(Lx)]
    s_index = {s: i for i, s in enumerate(sites)}
    links, seen_pairs = [], set()
    for (x, y) in sites:
        for (dx, dy) in ((1, 0), (0, 1)):
            tgt = ((x + dx) % Lx, (y + dy) % Ly)
            pair = frozenset(((x, y), tgt))
            if tgt != (x, y) and pair not in seen_pairs:
                seen_pairs.add(pair)
                links.append(((x, y), tgt))
    ns, nl = len(sites), len(links)
    l_index = {l: ns + i for i, l in enumerate(links)}
    frame = LinkFrame(n)
    L_op = frame.charge_operator(1)
    adag, a = _LOWER.conj().T, _LOWER

    def operators():
        for gauged in (False, True):
            H = sum(_embed({s_index[s]: _NUMBER}, ns, nl, n) for s in sites)
            for (src, tgt) in links:
                i, j = s_index[src], s_index[tgt]
                hop = _embed({i: adag, l_index[(src, tgt)]: L_op, j: a}
                             if gauged else {i: adag, j: a}, ns, nl, n)
                H = H + hop + hop.conj().T
            yield ("H_gauged" if gauged else "H_free"), H
        for s in sites:
            for g in range(1, n):
                phase = np.exp(2j * np.pi * g * np.diag(_NUMBER).real / n)
                ops = {s_index[s]: np.diag(phase)}
                for (src, tgt) in links:
                    if src == s:
                        ops[l_index[(src, tgt)]] = frame.delta_power(g)
                    elif tgt == s:
                        ops[l_index[(src, tgt)]] = frame.delta_power(-g)
                yield ("gauss", (s_index[s], g)), _embed(ops, ns, nl, n)
        for cyc in _plaquette_cycles(sites, links):
            for seq in (cyc, tuple(reversed(cyc))):
                ops = {}
                for u, v in zip(seq, seq[1:] + seq[:1]):
                    f, M = ((l_index[(u, v)], L_op) if (u, v) in l_index
                            else (l_index[(v, u)], L_op.conj().T))
                    ops[f] = ops.get(f, np.eye(n, dtype=complex)) @ M
                yield "wilson", _embed(ops, ns, nl, n)

    return tuple(links), operators()


# every lattice the guard accepts up to dim 1,296; 3x1 and 4x1 are left out,
# as they build the same graphs as 1x3 and 1x4
_PARITY_LATTICES = [(1, 1, 2), (1, 1, 3), (1, 1, 4), (2, 1, 2), (2, 1, 3),
                    (2, 1, 4), (1, 2, 2), (1, 2, 3), (1, 2, 4), (1, 3, 2),
                    (1, 3, 3), (1, 3, 4), (1, 4, 2), (1, 4, 3), (2, 2, 2),
                    (2, 2, 3)]


@pytest.mark.parametrize("Lx, Ly, n", _PARITY_LATTICES)
def test_lattice_matches_the_dense_oracle(Lx, Ly, n):
    lat = build_gauged_lattice(Lx, Ly, n)
    links, operators = _dense_lattice(Lx, Ly, n)
    assert lat.links == links
    gauss_keys, wilson = [], iter(lat.wilson_ops)
    for name, want in operators:
        if name == "wilson":
            assert np.abs(next(wilson) - want).max() <= 1e-14
            continue
        if name[0] == "gauss":
            gauss_keys.append(name[1])
            got = lat.gauss_ops[name[1]]
        else:
            got = getattr(lat, name)
        assert np.array_equal(got, want)  # bit for bit
    assert list(lat.gauss_ops) == gauss_keys
    assert next(wilson, None) is None


def _digit_table_fields(lat):
    """Oracle: H_free, H_gauged and the Wilson loops formed eagerly and
    densely from the digit tables, by an int np.diag, astype, copy and
    scatters."""
    ns, n, d = len(lat.sites), lat.N, lat.dim
    shape = (2,) * ns + (n,) * len(lat.links)
    digits = np.array(np.unravel_index(np.arange(d), shape))
    occ, linkval = digits[:ns], digits[ns:]
    stride = d // np.cumprod(shape)
    w = np.diag(LinkFrame(n).charge_operator(1))
    s_index = {s: i for i, s in enumerate(lat.sites)}
    H_free = np.diag(occ.sum(axis=0)).astype(complex)
    H_gauged = H_free.copy()
    for li, (src, tgt) in enumerate(lat.links):
        i, j = s_index[src], s_index[tgt]
        k = np.flatnonzero((occ[i] == 0) & (occ[j] == 1))
        moved = k + stride[i] - stride[j]
        H_free[moved, k] = H_free[k, moved] = 1.0
        H_gauged[moved, k] = w[linkval[li, k]]
        H_gauged[k, moved] = w[linkval[li, k]].conj()
    l_index = {l: i for i, l in enumerate(lat.links)}
    loops = []
    for cyc in _plaquette_cycles(lat.sites, lat.links):
        expo = sum(linkval[l_index[(u, v)]] if (u, v) in l_index
                   else -linkval[l_index[(v, u)]]
                   for u, v in zip(cyc, cyc[1:] + cyc[:1]))
        loops += [np.diag(w[expo % n]), np.diag(w[-expo % n])]
    return H_free, H_gauged, loops


@pytest.mark.parametrize("Lx, Ly, n", _PARITY_LATTICES)
def test_lazy_fields_match_the_digit_table_build(Lx, Ly, n):
    # bit for bit, signed zeros included: the same dtype, and the same
    # 64-bit words for the real and imaginary parts
    lat = build_gauged_lattice(Lx, Ly, n)
    H_free, H_gauged, loops = _digit_table_fields(lat)
    assert len(lat.wilson_ops) == len(loops)
    for got, want in zip((lat.H_free, lat.H_gauged) + lat.wilson_ops,
                         [H_free, H_gauged] + loops):
        assert got.dtype == want.dtype == complex
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for p, W in zip(lat.wilson_phases, loops):
        assert np.array_equal(p, np.diag(W))


def _link_dft(lat):
    """Oracle: the link DFT as one (N^links)-square matrix."""
    n = lat.N
    dft = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    T = np.ones((1, 1))
    for _ in lat.links:
        T = np.kron(T, dft / np.sqrt(n))
    return T


def _link_frame(lat, M, T):
    """Oracle: F M F^dag for a full d x d matrix M, F = identity on the
    sites (x) T on the link digits, one product with T from each side."""
    d, S = lat.dim, 2 ** len(lat.sites)
    M = (T @ M.reshape(S, -1, d)).reshape(d, d)
    return (M.reshape(d, S, -1) @ T.conj().T).reshape(d, d)


def _sector(lat):
    """Oracle: the charge-sector label of every link-Fourier index, from the
    site charges q = n + incidence @ momenta mod N (the link digits read as
    momenta)."""
    q = (lat._occ + lat._incidence @ lat._linkval) % lat.N
    return np.ravel_multi_index(tuple(q), (lat.N,) * len(lat.sites))


def _dense_twirl_routes(lat):
    """Oracle: the twirl, the free-state distance and the dynamics defects
    computed by moving whole d x d matrices (and V) to the link-Fourier
    frame, where the twirl is the same-sector mask."""
    T = _link_dft(lat)
    sector = _sector(lat)
    same = sector[:, None] == sector[None, :]

    def twirl(rho):
        return _link_frame(lat, _link_frame(lat, rho, T) * same, T.conj().T)

    def distance(rho):
        return float(np.linalg.norm(_link_frame(lat, rho, T)[~same]))

    def defects(V, states):
        Vf = _link_frame(lat, V, T)
        in_sector = sector[:, None] == np.arange(lat.N ** len(lat.sites))
        out = []
        for s in states:
            if s.ndim == 1:
                phi = (T @ s.reshape(2 ** len(lat.sites), -1, 1)).ravel()
                W = (Vf * phi) @ in_sector
                v = Vf @ phi
                diff = W @ W.conj().T - same * np.outer(v, v.conj())
            else:
                rf = _link_frame(lat, s, T)
                diff = (Vf @ (same * rf) @ Vf.conj().T
                        - same * (Vf @ rf @ Vf.conj().T))
            out.append(float(np.linalg.norm(diff)))
        return out

    return twirl, distance, defects


@pytest.mark.parametrize("Lx, Ly, n", [(2, 2, 2), (2, 2, 3)])
def test_link_frame_matches_the_dense_fourier_matrix(Lx, Ly, n):
    # the oracle's link frame is the dense F M F^dag.  The lattice's orbit
    # tables tile every number class's diagonal block once, and coset
    # representative g moves each orbit's first entry (i, j) to
    # (perm_g i, perm_g j) with the phase of the monomial action
    lat = build_gauged_lattice(Lx, Ly, n)
    F = np.kron(np.eye(2 ** len(lat.sites)), _link_dft(lat))
    rng = np.random.default_rng(69)
    M = rng.normal(size=(lat.dim, lat.dim)) + 1j * rng.normal(
        size=(lat.dim, lat.dim))
    T = _link_dft(lat)
    fwd, back = F @ M @ F.conj().T, F.conj().T @ M @ F
    assert np.abs(_link_frame(lat, M, T) - fwd).max() <= 1e-12
    assert np.abs(_link_frame(lat, M, T.conj().T) - back).max() <= 1e-12
    d, S = lat.dim, 2 ** len(lat.sites)
    L = d // S
    orbit, _, classes = lat._orbits
    K = n ** (len(lat.sites) - 1)
    assert orbit.shape == (K, L // K)
    assert np.array_equal(np.sort(orbit.ravel()), np.arange(L))
    number = lat._occ.sum(axis=0) % n
    seen = np.zeros(d * d, dtype=int)
    actions = [lat._monomial_action((0,) + g)
               for g in np.ndindex((n,) * (len(lat.sites) - 1))]
    for idx, blocks, u, at in classes:
        assert at.dtype == np.intp and len(at) == K
        np.add.at(seen, at.ravel(), 1)
        at = at.reshape(K, -1)
        i, j = np.divmod(at.astype(int), d)
        for g, U in enumerate(actions):
            assert np.array_equal(i[g], U.perm[i[0]])
            assert np.array_equal(j[g], U.perm[j[0]])
            v = u[g, np.searchsorted(blocks, i[0] // L)] * u[
                g, np.searchsorted(blocks, j[0] // L)].conj()
            assert np.abs(v - U.phase[i[0]] * U.phase[j[0]].conj()).max() \
                <= 1e-15
        # K distinct entries per orbit, in one pair of site blocks
        assert (np.sort(at, axis=0)[1:] != np.sort(at, axis=0)[:-1]).all()
        assert (i // L == i[0] // L).all() and (j // L == j[0] // L).all()
        assert np.array_equal(idx, np.flatnonzero(number == number[idx[0]]))
    same = (number[:, None] == number).ravel()
    assert (seen[same] == 1).all() and (seen[~same] == 0).all()


def _lattice_evolutions(lat, rng, t=0.6):
    """The gauged and the free evolution, a Haar unitary (it breaks number
    conservation) and a non-unitary random matrix of norm about 2."""
    w, Q = np.linalg.eigh(lat.H_gauged)
    yield "gauged", (Q * np.exp(-1j * t * w)) @ Q.conj().T
    # H_free acts on the site digits only: h (x) identity on the links
    L = lat.dim // 2 ** len(lat.sites)
    w, Q = np.linalg.eigh(lat.H_free[::L, ::L])
    yield "free", np.kron((Q * np.exp(-1j * t * w)) @ Q.conj().T, np.eye(L))
    G = rng.normal(size=(lat.dim,) * 2) + 1j * rng.normal(size=(lat.dim,) * 2)
    Q, R = np.linalg.qr(G)
    yield "haar", Q * (np.diag(R) / abs(np.diag(R)))
    yield "non-unitary", G / np.sqrt(2 * lat.dim)


def _qr_pure_defect(lat, V, phi):
    """Oracle: the pure-state defect ||W W^dag - Y Y^dag|| from the
    triangular factor R = [R_W R_Y] of [W Y] = Q R, W = V [P_q phi]_q and
    Y = [P_q V phi]_q."""
    W, Y = [], []
    for (idx, cols), (_, ycols) in zip(lat._sector_columns(phi),
                                       lat._sector_columns(V @ phi)):
        for stack, c in ((W, cols), (Y, ycols)):
            stack.append(np.zeros((lat.dim, c.shape[1]), dtype=complex))
            stack[-1][idx] = c
    W = V @ np.hstack(W)
    R = np.linalg.qr(np.hstack([W] + Y), mode="r")
    RW, RY = R[:, :W.shape[1]], R[:, W.shape[1]:]
    return float(np.linalg.norm(RW @ RW.conj().T - RY @ RY.conj().T))


@pytest.mark.parametrize("Lx, Ly, n", _PARITY_LATTICES)
def test_class_blocked_twirl_checks_match_the_dense_link_frame(Lx, Ly, n):
    # twirl, free_state_check and the dynamics defects agree with the
    # routes that move whole matrices to the link-Fourier frame.  At
    # d = 1,296 the mixed-state defects (eight d^3 products per pair) run on
    # the random state with the Haar unitary only.
    lat = build_gauged_lattice(Lx, Ly, n)
    twirl, distance, defects = _dense_twirl_routes(lat)
    rng = np.random.default_rng(71 + 5 * Lx + Ly + n)
    d = lat.dim
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = M @ M.conj().T
    rho /= np.trace(rho)
    pures = []
    for _ in range(2):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        pures.append(v / np.linalg.norm(v))
    mixed = [rho, twirl(rho), np.eye(d, dtype=complex) / d]
    for state in mixed + [np.outer(v, v.conj()) for v in pures]:
        assert np.abs(lat.twirl(state) - twirl(state)).max() <= 1e-12
        assert abs(free_state_check(lat, state).twirl_distance
                   - distance(state)) <= 1e-12
    for name, V in _lattice_evolutions(lat, rng):
        states = pures + (mixed if d < 1296 else
                          [rho] if name == "haar" else [])
        got = lat.dynamics_commutation_defects(V, states)
        want = defects(V, states)
        assert np.abs(np.subtract(got, want)).max() <= 1e-12
        for psi, gram in zip(pures, got):  # the Gram route against QR
            assert abs(gram - _qr_pure_defect(lat, V, psi)) <= 1e-12
        if name == "gauged":
            assert max(got) <= 1e-12
        elif name == "haar":
            assert min(got[:2]) > 1e-3  # the pure states


def test_lattice_twirl_checks_make_no_full_link_transform():
    # free_state_check, twirl and the pure-state defect gather entries along
    # gauge orbits and change no basis: the lattice has no link DFT, and its
    # orbit tables hold one intp position per class-diagonal entry plus
    # O(K dim).  Their tracemalloc peaks at 2x2 Z_3 (d = 1,296, one d x d
    # complex array is 25.6 MiB) measured 9.8, 40.3 and 7.9 MiB through the
    # link DFT, and 7.9, 33.6 and 7.9 MiB along the orbits; the bounds below
    # are the former plus a 25 % margin, rounded up.
    lat = build_gauged_lattice(2, 2, 3)
    d = lat.dim
    rng = np.random.default_rng(72)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    w, Q = np.linalg.eigh(lat.H_gauged)
    V = (Q * np.exp(-0.6j * w)) @ Q.conj().T
    for run, bound_mib in (
            (lambda: free_state_check(lat, rho), 12.5),
            (lambda: lat.twirl(rho), 50.5),
            (lambda: lat.dynamics_commutation_defects(V, [psi]), 10.0)):
        run()  # the orbit tables are cached per lattice
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2 ** 20
    assert not hasattr(lat, "_link_dft")
    orbit, E, classes = lat._orbits
    K = len(E)
    diagonal = sum(len(idx) ** 2 for idx, _, _, _ in classes)
    held = orbit.nbytes + E.nbytes + sum(a.nbytes for c in classes for a in c)
    assert held <= 8 * diagonal + 16 * K * d


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


@pytest.mark.parametrize("Lx, Ly, n", [
    (1, 2, 2), (2, 2, 2), (1, 3, 2), (1, 2, 3), (2, 2, 3), (1, 3, 3)])
def test_free_state_distance_is_the_enumerated_twirl_distance(Lx, Ly, n):
    # free_state_check reads the distance off the gauge orbits; the direct
    # group sum is the oracle.  A group average is idempotent and
    # fixes the identity, so the enumerated twirl of rho and the maximally
    # mixed state have oracle distance 0 without a second enumeration.
    lat = build_gauged_lattice(Lx, Ly, n)
    rng = np.random.default_rng(70)
    d = lat.dim
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = M @ M.conj().T
    rho /= np.trace(rho)
    twirled = lat.twirl_enumerate(rho)
    for state, want in ((rho, np.linalg.norm(rho - twirled)),
                        (twirled, 0.0), (np.eye(d) / d, 0.0)):
        assert abs(free_state_check(lat, state).twirl_distance - want) <= 1e-12


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

