"""Gauging bipartite symmetric elements with link frames, gauge fixing, and
the small-torus lattice demonstration."""

import numpy as np
import pytest
from scipy import sparse

from symmetria.gauge import (GaugeCoupling, LinkFrame, _local_unitary,
                             _plaquette_cycles, build_gauged_lattice,
                             coupling_covariance_defect, degauge_marginal,
                             free_state_check, gauge_2symmetric, gauge_fix,
                             gauge_fix_stabilizer, link_action,
                             local_invariance_residual)
from symmetria.groups import GroupElement, RepSpec, rep_matrix
from symmetria.linalg_core import (Superoperator, conjugate, hs_inner,
                                   identity_channel)
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
    # x (x) y (x) link -> x (x) link (x) y
    P = np.eye(d * d * n).reshape(d, d, n, -1).transpose(0, 2, 1, 3)
    P = P.reshape(d * n * d, -1)
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
    lat = build_gauged_lattice(Lx, Ly, n)
    gauss = {key: sparse.csr_matrix(U) for key, U in lat.gauss_ops.items()}
    for M in (lat.H_free, lat.H_gauged) + lat.wilson_ops:
        got = lat.gauss_commutators(M)
        assert list(got) == list(gauss)
        for key, U in gauss.items():
            assert abs(got[key] - np.linalg.norm(U @ M - M @ U)) <= 1e-12


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
                        ops[l_index[(src, tgt)]] = link_action(frame, g, 0)
                    elif tgt == s:
                        ops[l_index[(src, tgt)]] = link_action(frame, 0, g)
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


@pytest.mark.parametrize("Lx, Ly, n", [
    (1, 2, 2), (2, 1, 2), (1, 3, 2), (1, 4, 2), (2, 2, 2),
    (1, 2, 3), (2, 1, 3), (1, 3, 3), (1, 4, 3), (2, 2, 3), (1, 2, 4)])
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


@pytest.mark.parametrize("Lx, Ly, n", [(2, 2, 2), (2, 2, 3)])
def test_link_frame_matches_the_dense_fourier_matrix(Lx, Ly, n):
    lat = build_gauged_lattice(Lx, Ly, n)
    dft = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    F = np.eye(2 ** len(lat.sites))
    for _ in lat.links:
        F = np.kron(F, dft / np.sqrt(n))
    rng = np.random.default_rng(69)
    M = rng.normal(size=(lat.dim, lat.dim)) + 1j * rng.normal(
        size=(lat.dim, lat.dim))
    T = lat._link_dft()
    assert np.abs(lat._link_frame(M, T) - F @ M @ F.conj().T).max() <= 1e-12
    assert np.abs(lat._link_frame(M, T.conj().T)
                  - F.conj().T @ M @ F).max() <= 1e-12


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
    # free_state_check reads the distance off the link-Fourier frame; the
    # direct group sum is the oracle.  A group average is idempotent and
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

