"""Two-qubit symmetric processes: invariant basis, named diagram families,
injection and relational regions, and the published closed-form actions."""

import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import symmetria
from symmetria import bipartite
from symmetria.bipartite import (INJECTION, LOCAL, REGION_PSD_TOL, RELATIONAL,
                                 BipartiteDiagram,
                                 bell_states, bloch_of_state,
                                 build_symmetric_basis, classify,
                                 decompose_symmetric, diagonal_action,
                                 extremal_e1, extremal_e2, heisenberg_unitary,
                                 injection_bloch_formula, injection_channel,
                                 injection_coords, injection_region_test,
                                 pair_sum, region_scan,
                                 relational_channel, relational_quartics,
                                 relational_r_matrix, singlet_channel,
                                 state_from_bloch, swap_invariant_relational,
                                 twirl_rank, two_qubit_catalog,
                                 two_qubit_product_rep)
from symmetria.groups import (SU2, RepSpec, haar_quadrature, random_su2,
                              rep_matrix)
from symmetria.linalg_core import (Superoperator, apply, check_cptp,
                                   conjugate, cptp_report,
                                   depolarizing_channel, random_cptp,
                                   unitary_channel)
from symmetria.process_modes import (MAX_STACK_BYTES, ProcessModeBasis,
                                     _mode_values, twirl)

CAT = two_qubit_catalog()
BASIS = CAT.basis


def _random_state(rng, d=4):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = M @ M.conj().T
    return rho / np.trace(rho)


def _trace_out_b(rho):
    return rho.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)


# ---------------------------------------------------------------------------
# invariant basis
# ---------------------------------------------------------------------------

def test_basis_elements_invariant():
    rng = np.random.default_rng(40)
    for _ in range(5):
        g = random_su2(rng)
        for e in BASIS.elements:
            assert (diagonal_action(e.op, g) - e.op).norm() < 1e-12


def test_basis_gram_structure():
    V = np.array([e.op.choi.reshape(-1) for e in BASIS.elements])
    G = V.conj() @ V.T
    # mutually orthogonal, squared norms equal to the exchanged-irrep dims
    assert np.linalg.norm(G - np.diag(np.diag(G))) < 1e-10
    norms = sorted(round(float(x.real), 6) for x in np.diag(G))
    assert norms == sorted([1, 1, 3, 3, 3, 3, 3, 3, 1, 1, 3, 3, 3, 5])


def _chi(basis_a: ProcessModeBasis, basis_b: ProcessModeBasis,
         theta: BipartiteDiagram) -> Superoperator:
    fam_a = basis_a.modes[basis_a.spans[theta.diag_a]]
    fam_b = {m.k: m for m in basis_b.modes[basis_b.spans[theta.diag_b]]}
    kind = theta.diag_a.lam.kind
    acc = None
    for ma in fam_a:
        if kind == SU2:
            sign = (-1.0) ** ((theta.diag_a.lam.two_j - ma.k) // 2)
            mb = fam_b[-ma.k]
        else:
            sign = 1.0
            mb = fam_b[ma.k]
        term = sign * ma.op.tensor(mb.op)
        acc = term if acc is None else acc + term
    return acc


def _Z3(*charges):
    return RepSpec.zn_charges(list(charges), 3)


_SU2 = RepSpec.su2_spins
# (A in, A out, B in, B out)
_PARITY_CASES = {
    "spin 1/2 (x) 1/2": (_SU2([1]),) * 4,
    "spin 1 (x) 1": (_SU2([2]),) * 4,
    "spin 3/2 (x) 3/2": (_SU2([3]),) * 4,
    "A spin 1/2 -> 1, B spin 1/2": (_SU2([1]), _SU2([2]), _SU2([1]),
                                    _SU2([1])),
    "A spin 1, B spins 1/2 + 1/2 -> 1": (_SU2([2]), _SU2([2]), _SU2([1, 1]),
                                         _SU2([2])),
    "Z_3 charges (0, 1, 2)": (_Z3(0, 1, 2),) * 4,
    "mixed Z_3 reps": (_Z3(0, 1), _Z3(2), _Z3(1, 1), _Z3(0, 2, 1)),
}


@pytest.mark.parametrize("case", list(_PARITY_CASES))
def test_factored_route_matches_the_dense_chi_oracle(case):
    # the parent's dense route: every chi_theta as a sum of mode tensor
    # products, one inner product per element, and the superoperator sum
    reps = _PARITY_CASES[case]
    basis = build_symmetric_basis(*reps)
    A, B = basis.basis_a, basis.basis_b
    order = [BipartiteDiagram(da, db) for da in A.spans
             for db in B.spans if db.lam == da.lam.dual()]
    assert [e.diagram for e in basis.elements] == order
    d_in, d_out = reps[0].dim * reps[2].dim, reps[1].dim * reps[3].dim
    S = random_cptp(d_in, d_out, np.random.default_rng(47))
    coeffs = decompose_symmetric(S, basis)
    assert list(coeffs.values) == order
    expect = Superoperator.zero(d_in, d_out)
    for e in basis.elements:
        chi = _chi(A, B, e.diagram)
        # e.op without caching it: its pairs through pair_sum
        got = pair_sum(A, B, e.rows_a, e.rows_b, e.signs)
        assert (got - chi).norm() <= 1e-13
        c = complex(np.vdot(chi.transfer, S.transfer))
        c /= e.diagram.diag_a.lam.dim
        assert abs(coeffs.values[e.diagram] - c) <= 1e-13
        expect = expect + c * chi
    assert abs(coeffs.residual - (S - expect).norm()) <= 1e-13
    assert (coeffs.reconstruct() - expect).norm() <= 1e-13


@pytest.mark.parametrize("case", list(_PARITY_CASES))
def test_coefficients_in_one_gather_match_the_per_element_sums(case):
    basis = build_symmetric_basis(*_PARITY_CASES[case])
    A, B = basis.basis_a, basis.basis_b
    d_ao, d_bo, d_ai, d_bi = (A.rep_out.dim, B.rep_out.dim, A.rep_in.dim,
                              B.rep_in.dim)
    S = random_cptp(d_ai * d_bi, d_ao * d_bo, np.random.default_rng(50))
    coeffs = decompose_symmetric(S, basis)
    # oracle: C[i, j] = <M^A_i (x) M^B_j, S> from the same two contractions,
    # then one signed sum per element over its own pairs
    K = S.transfer.reshape(d_ao, d_bo, d_ao, d_bo, d_ai, d_bi, d_ai, d_bi)
    C = _mode_values(_mode_values(
        K.transpose(1, 3, 5, 7, 0, 2, 4, 6).reshape(-1, d_ao ** 2, d_ai ** 2),
        A).T.reshape(-1, d_bo ** 2, d_bi ** 2), B)
    want = {e.diagram: complex(e.signs @ C[e.rows_a, e.rows_b])
            / len(e.signs) for e in basis.elements}
    assert list(coeffs.values) == list(want)
    for diagram, c in want.items():
        assert type(coeffs.values[diagram]) is complex
        assert abs(coeffs.values[diagram] - c) <= 1e-15
    # the reconstruction from the concatenated pairs, bit for bit
    rows_a, rows_b, w = (np.concatenate(x) for x in zip(*(
        (e.rows_a, e.rows_b, coeffs.values[e.diagram] * e.signs)
        for e in basis.elements)))
    expect = pair_sum(A, B, rows_a, rows_b, w)
    assert coeffs.reconstruct().transfer.tobytes() == expect.transfer.tobytes()
    assert coeffs.residual == (S - expect).norm()
    assert basis.pairs is basis.pairs
    assert not any(arr.flags.writeable for arr in basis.pairs)


def test_element_op_is_its_pair_sum_formed_once():
    basis = build_symmetric_basis(*_PARITY_CASES["spin 1 (x) 1"])
    e = basis.elements[len(basis.elements) // 2]
    assert "op" not in e.__dict__
    assert e.op is e.op
    want = pair_sum(basis.basis_a, basis.basis_b, e.rows_a, e.rows_b, e.signs)
    assert e.op.transfer.tobytes() == want.transfer.tobytes()
    assert abs(e.op.norm() ** 2 - e.diagram.diag_a.lam.dim) < 1e-12


def test_decompose_symmetric_refuses_a_superoperator_of_other_dims():
    # 2 -> 8 has the 4 -> 4 transfer's size, but not its factor dims
    S = Superoperator.zero(2, 8)
    with pytest.raises(ValueError, match="dimension mismatch"):
        decompose_symmetric(S, BASIS)


def test_build_refuses_z_n_reps_of_different_moduli():
    # each side's pair shares its modulus, so only the four together clash
    z3, z4 = RepSpec.zn_charges([0, 1], 3), RepSpec.zn_charges([0, 1], 4)
    with pytest.raises(ValueError, match="modulus"):
        build_symmetric_basis(z3, z3, z4, z4)


def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_refuses_a_decomposition_over_the_budget_before_building():
    rep = RepSpec.su2_spins([9])  # spin 9/2 (x) 9/2: transfer 16 * 10^8 B

    def build():
        with pytest.raises(ValueError, match="GiB"):
            build_symmetric_basis(rep, rep, rep, rep)
    assert _traced_peak(build) < 1 << 16


def test_build_and_decompose_peak_is_inside_the_prediction():
    rep = RepSpec.su2_spins([3])  # spin 3/2 (x) 3/2
    S = random_cptp(16, 16, np.random.default_rng(48))
    predicted = bipartite._PAIR_WORKSPACE * 16 * (4 ** 4) ** 2
    peak = _traced_peak(lambda: decompose_symmetric(
        S, build_symmetric_basis(rep, rep, rep, rep)))
    assert predicted / 2 < peak <= predicted


def test_spin_five_halves_pair_decomposes_inside_the_budget():
    rep = RepSpec.su2_spins([5])
    assert bipartite._PAIR_WORKSPACE * 16 * 6 ** 8 <= MAX_STACK_BYTES
    basis = build_symmetric_basis(rep, rep, rep, rep)
    S = random_cptp(36, 36, np.random.default_rng(49), env_dim=4)
    coeffs = decompose_symmetric(S, basis)
    # the reconstruction is the orthogonal projection of S on the span
    square = coeffs.residual ** 2 + coeffs.reconstruct().norm() ** 2
    assert abs(square - S.norm() ** 2) < 1e-10
    # a product of two symmetric channels is invariant
    P = depolarizing_channel(0.3, 6).tensor(depolarizing_channel(0.6, 6))
    assert decompose_symmetric(P, basis).residual < 1e-10


def test_library_forms_mode_pair_products_only_with_pair_sum():
    # bipartite.pair_sum is the one place that assembles mode pairs
    pattern = re.compile(r"\.op\.tensor\(")
    hits = [f"{path.name}:{n}"
            for path in sorted(Path(symmetria.__file__).parent.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


def test_twirl_rank_is_fourteen():
    assert len(BASIS.elements) == 14
    assert twirl_rank(BASIS) == 14


def test_classification_counts():
    kinds = [classify(e.diagram) for e in BASIS.elements]
    assert kinds.count(LOCAL) == 4        # trivial exchanged irrep
    assert kinds.count(INJECTION) == 5    # one trivial output state-mode
    assert kinds.count(RELATIONAL) == 5


def test_twirled_superops_expand_exactly():
    rng = np.random.default_rng(41)
    quad = haar_quadrature("su2", 4)
    product = two_qubit_product_rep()
    for _ in range(5):
        S = random_cptp(4, 4, rng)
        T = twirl(S, quad, product, product)
        coeffs = decompose_symmetric(T, BASIS)
        assert coeffs.residual < 1e-8
        assert (coeffs.reconstruct() - T).norm() < 1e-8
        # trace preservation forces the scaffold coefficient to 1
        e0_key = next(e.diagram for e in BASIS.elements
                      if e.op.norm() < 1.0 + 1e-9
                      and classify(e.diagram) == LOCAL
                      and abs(np.trace(e.op.choi) - 4) < 1e-9)
        assert abs(coeffs.values[e0_key] - 1.0) < 1e-8


def test_diagonal_action_node_sum_matches_the_library_twirl():
    # the two-qubit product rep acts as U (x) U, so the node-by-node sum of
    # diagonal actions is the factored twirl over that rep
    rng = np.random.default_rng(42)
    quad = haar_quadrature("su2", 4)
    product = two_qubit_product_rep()
    for _ in range(2):
        S = random_cptp(4, 4, rng)
        T = Superoperator.zero(4, 4)
        for g, w in quad.nodes:
            T = T + w * diagonal_action(S, g)
        assert (T - twirl(S, quad, product, product)).norm() < 1e-12


@pytest.mark.parametrize("case", ["default qubits", "distinct equal qubits",
                                  "qubit (x) spin-1", "two-qubit product",
                                  "distinct two-qubit products"])
def test_diagonal_action_matches_the_kron_of_both_reps_bit_for_bit(case):
    qubit = RepSpec.su2_spins([1])
    product = two_qubit_product_rep()
    # == on two distinct product reps compares their intertwiner arrays and
    # raises, so diagonal_action may only test the reps for identity
    reps = {"default qubits": (),
            "distinct equal qubits": (qubit, RepSpec.su2_spins([1])),
            "qubit (x) spin-1": (qubit, RepSpec.su2_spins([2])),
            "two-qubit product": (product, product),
            "distinct two-qubit products": (product, two_qubit_product_rep()),
            }[case]
    rep_a, rep_b = reps or (qubit, qubit)
    d = rep_a.dim * rep_b.dim
    rng = np.random.default_rng(43)
    S = random_cptp(d, d, rng)
    for _ in range(3):
        g = random_su2(rng)
        U = np.kron(rep_matrix(rep_a, g), rep_matrix(rep_b, g))
        want = conjugate(S, U, U).transfer
        assert diagonal_action(S, g, *reps).transfer.tobytes() == want.tobytes()


def test_local_class_closure():
    # tensor products of local depolarizers live entirely in the local class
    S = depolarizing_channel(0.3, 2).tensor(depolarizing_channel(0.8, 2))
    coeffs = decompose_symmetric(S, BASIS)
    assert coeffs.residual < 1e-10
    for e in BASIS.elements:
        if classify(e.diagram) != LOCAL:
            assert abs(coeffs.values[e.diagram]) < 1e-10


@pytest.mark.parametrize("t", [-2.3, 0.0, 0.4, 1.1, 7.9])
def test_heisenberg_unitary_closed_form_matches_expm(t):
    sig = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
           np.diag([1, -1])]
    H = sum(np.kron(s, s) for s in sig)
    want = unitary_channel(expm(1j * t * H))
    assert (heisenberg_unitary(t) - want).norm() < 1e-13


def test_heisenberg_unitary_is_symmetric():
    coeffs = decompose_symmetric(heisenberg_unitary(0.7), BASIS)
    assert coeffs.residual < 1e-10


# ---------------------------------------------------------------------------
# injection family
# ---------------------------------------------------------------------------

def test_injection_bloch_formula_matches_channel():
    rng = np.random.default_rng(42)
    for _ in range(20):
        x, y, z = rng.uniform(-0.3, 0.3, size=3)
        E = injection_channel(x, y, z)
        rho = _random_state(rng)
        a, b, T = bloch_of_state(rho)
        out_a = bloch_of_state(apply(E, rho))[0]
        assert np.linalg.norm(
            out_a - injection_bloch_formula(x, y, z, a, b, T)
        ) < 1e-10


def test_unot_point():
    # (x, y, z) = (0, 1/3, 0) realises the optimal universal spin flip
    # a~ = -b/3 on every product input
    rng = np.random.default_rng(43)
    E = injection_channel(0.0, 1.0 / 3.0, 0.0)
    assert check_cptp(E).is_cptp
    for _ in range(20):
        rho_a = _random_state(rng, 2)
        rho_b = _random_state(rng, 2)
        out = apply(E, np.kron(rho_a, rho_b))
        a_out = bloch_of_state(out)[0]
        b_in = np.array(
            [np.trace(rho_b @ s).real
             for s in (np.array([[0, 1], [1, 0]]),
                       np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))]
        )
        assert np.linalg.norm(a_out + b_in / 3.0) < 1e-10


def _xyz_from_coords(X, Y, Z):
    y = (1.0 - Y) / 3.0
    x = (2.0 * X - 1.0 + 3.0 * y) / math.sqrt(3.0)
    z = math.sqrt(2.0) * Z / 3.0
    return x, y, z


def test_injection_region_boundary():
    # points on the paraboloid X^2 + Z^2 = Y are on the CPTP boundary;
    # stepping inward/outward flips the verdict
    rng = np.random.default_rng(44)
    for _ in range(10):
        r = rng.uniform(0.1, 0.8)
        ang = rng.uniform(0.0, 2 * np.pi)
        X, Z = r * math.cos(ang), r * math.sin(ang)
        Y = X * X + Z * Z
        assert 2.0 + X - Y >= 0.0
        v = injection_region_test(*_xyz_from_coords(X, Y, Z))
        assert abs(v.min_choi_eig) <= 1e-6
        inner = injection_region_test(*_xyz_from_coords(0.8 * X, Y, 0.8 * Z))
        assert inner.is_cptp and inner.inside_analytic
        n = np.array([2 * X, -1.0, 2 * Z])
        n = 0.1 * n / np.linalg.norm(n)
        outer = injection_region_test(
            *_xyz_from_coords(X + n[0], Y + n[1], Z + n[2])
        )
        assert not outer.is_cptp and not outer.inside_analytic


def test_injection_coords_roundtrip():
    x, y, z = 0.11, -0.07, 0.05
    assert np.allclose(_xyz_from_coords(*injection_coords(x, y, z)), (x, y, z))


def region_choi_stack(kind: str, x: np.ndarray, y: np.ndarray,
                      z: np.ndarray) -> np.ndarray:
    """Choi matrices of the injection channels E0 + x Phi_theta1
    + y Phi_theta2 + z Phi_theta3 or of the swap-invariant relational
    channels E0 + x Phi_theta4 + y Phi_theta5 + z Phi_theta8 at the points
    (x[i], y[i], z[i]).  The terms are added in the order
    ``injection_channel`` and ``relational_channel`` add them, zero-weight
    theta6 and theta7 included, so each matrix is bit-identical to the Choi
    matrix of the per-point channel."""
    if kind == INJECTION:
        terms = zip(("theta1", "theta2", "theta3"), (x, y, z))
    elif kind == RELATIONAL:
        zero = np.zeros_like(x)
        terms = zip(("theta4", "theta5", "theta6", "theta7", "theta8"),
                    (x, y, zero, zero, z))
    else:
        raise ValueError(f"unknown region kind {kind!r}")
    cat = two_qubit_catalog()
    J = cat.e0.choi
    for name, c in terms:
        J = J + c[:, None, None] * cat.phi_choi[name]
    return J


# 9 points per axis, then the injection apex (0, 1/3, 0), the singlet
# point and the unital extremal points E1, E2 of the relational family
_AXIS = np.linspace(-1.0, 1.0, 9)
_SCAN_POINTS = [(x, y, z) for x in _AXIS for y in _AXIS for z in _AXIS] + [
    (0.0, 1.0 / 3.0, 0.0), (1.0, 0.0, 0.0), (0.0, -0.5, 0.3), (0.0, 0.5, 0.3)]


def _full_stack_report(J):
    """The oracle: ``cptp_report`` on the 16 x 16 Choi matrices J[n] and
    their partial traces over the output, at the region scans' tolerance."""
    tr_out = np.einsum("nijil->njl", J.reshape(-1, 4, 4, 4, 4))
    return cptp_report(J, tr_out, None, REGION_PSD_TOL)


@pytest.mark.parametrize("kind, channel", [
    (INJECTION, injection_channel), (RELATIONAL, swap_invariant_relational)])
def test_region_scan_matches_the_per_point_route(kind, channel):
    x, y, z = np.array(_SCAN_POINTS).T
    J = region_choi_stack(kind, x, y, z)
    rep = region_scan(kind, x, y, z)
    for i, point in enumerate(_SCAN_POINTS):
        S = channel(*point)
        assert J[i].tobytes() == S.choi.tobytes()
        one = _full_stack_report(S.choi[None])
        assert abs(rep.min_choi_eigenvalue[i] - one.min_choi_eigenvalue[0]) <= 1e-12
        assert rep.is_cptp[i] == one.is_cptp[0]
    if kind == RELATIONAL:
        # singlet, E1 and E2 lie on the boundary of the region
        assert np.all(rep.is_cptp[-3:])
        assert np.all(np.abs(rep.min_choi_eigenvalue[-3:]) < 1e-10)


def test_injection_region_test_reads_its_row_of_the_scan():
    x, y, z = np.array(_SCAN_POINTS).T
    rep = region_scan(INJECTION, x, y, z)
    for i, point in enumerate(_SCAN_POINTS):
        v = injection_region_test(*point)
        assert v.min_choi_eig == rep.min_choi_eigenvalue[i]
        assert v.is_cptp == rep.is_cptp[i]
    # the apex of the paraboloid is on the boundary
    assert abs(injection_region_test(0.0, 1.0 / 3.0, 0.0).min_choi_eig) < 1e-10


def test_region_choi_stack_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="region kind"):
        region_choi_stack(LOCAL, np.zeros(1), np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError, match="region kind"):
        region_scan(LOCAL, np.zeros(1), np.zeros(1), np.zeros(1))


_ZW = bipartite._ZERO_WEIGHT


@pytest.mark.parametrize("kind", [INJECTION, RELATIONAL])
def test_region_blocks_are_the_gather_of_the_choi_stack(kind):
    # the zero-weight product indices: as many up qubits among the outputs
    # as among the inputs
    assert _ZW.tolist() == [0, 5, 6, 9, 10, 15]
    x, y, z = np.array(_SCAN_POINTS).T
    J = region_choi_stack(kind, x, y, z)
    B = bipartite._region_blocks(kind, x, y, z)[0]
    assert B.tobytes() == J[:, _ZW][:, :, _ZW].tobytes()
    # every eigenvalue of the 16 x 16 matrix is one of the block's
    H16 = (J + J.conj().swapaxes(-1, -2)) / 2
    H6 = (B + B.conj().swapaxes(-1, -2)) / 2
    w16, w6 = np.linalg.eigvalsh(H16), np.linalg.eigvalsh(H6)
    assert np.abs(w16[:, :, None] - w6[:, None]).min(axis=2).max() <= 1e-12
    assert np.abs(w16[:, 0] - w6[:, 0]).max() <= 1e-12


def _assert_scan_matches_the_full_stack(kind, x, y, z):
    want = _full_stack_report(region_choi_stack(kind, x, y, z))
    got = region_scan(kind, x, y, z)
    for field in ("min_choi_eigenvalue", "trace_defect"):
        a, b = getattr(got, field), getattr(want, field)
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b)))
    for field in ("is_cp", "is_tp", "is_cptp"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


@pytest.mark.parametrize("kind", [INJECTION, RELATIONAL])
def test_region_scan_matches_the_full_choi_stack(kind):
    # 1,000 seeded points in [-3, 3]^3, then the singlet, E1, E2 and the
    # paraboloid apex
    rng = np.random.default_rng(29)
    x, y, z = np.hstack([rng.uniform(-3.0, 3.0, (3, 1000)), np.array(
        [(1.0, 0.0, 0.0), (0.0, -0.5, 0.3), (0.0, 0.5, 0.3),
         (0.0, 1.0 / 3.0, 0.0)]).T])
    _assert_scan_matches_the_full_stack(kind, x, y, z)


@pytest.fixture
def skewed_terms(monkeypatch):
    """The catalog with each Phi_theta's Choi matrix J scaled by 1 + 1e-15 i,
    for the region scan and its oracle alike: an anti-Hermitian part of
    about ten rounding units, still invariant and with no partial trace.
    The catalog's own terms are Hermitian to rounding, some of them
    exactly, so their parts can fall below the rounding of a sum at huge
    coordinates."""
    for name, J in list(CAT.phi_choi.items()):
        monkeypatch.setitem(CAT.phi_choi, name, J * (1 + 1e-15j))
    CAT.__dict__.pop("region_terms", None)
    yield
    CAT.__dict__.pop("region_terms", None)


@pytest.mark.parametrize("kind", [INJECTION, RELATIONAL])
def test_region_scan_penalises_the_full_hermiticity_defect(kind,
                                                           skewed_terms):
    # at huge coordinates the terms' rounding-level anti-Hermitian parts
    # exceed REGION_PSD_TOL.  The block route takes the defect of the whole
    # Choi matrix, ||sum_t c_t (J_t - J_t^dag)||, from the terms' Gram matrix;
    # the full stack's figure is the same up to the rounding of its sum,
    # and the penalty and verdicts follow the full stack's
    rng = np.random.default_rng(30)
    x, y, z = rng.uniform(-1e12, 1e12, (3, 200))
    herm = bipartite._region_blocks(kind, x, y, z)[2]
    names = (("theta1", "theta2", "theta3") if kind == INJECTION
             else ("theta4", "theta5", "theta8"))
    anti = [M - M.conj().T for M in
            [CAT.e0.choi] + [CAT.phi_choi[name] for name in names]]
    exact = anti[0] + sum(c[:, None, None] * A
                          for c, A in zip((x, y, z), anti[1:]))
    exact = np.linalg.norm(exact.reshape(len(x), -1), axis=1)
    assert np.all(np.abs(herm - exact) <= 1e-9 * exact)
    J = region_choi_stack(kind, x, y, z)
    full = np.linalg.norm((J - J.conj().swapaxes(-1, -2)).reshape(len(J), -1),
                          axis=1)
    assert np.all(herm > 1e-8) and np.all(full > 1e-8)
    assert np.all((full / 2 <= herm) & (herm <= 2 * full))
    _assert_scan_matches_the_full_stack(kind, x, y, z)


# ---------------------------------------------------------------------------
# relational family
# ---------------------------------------------------------------------------

def test_relational_r_matrix_matches_channel():
    # E = E0 + sum x_i Phi_i outputs 1/4 (1 + sum_ij 4 R_ij s_i (x) s_j)
    rng = np.random.default_rng(45)
    names = ("theta4", "theta5", "theta6", "theta7", "theta8")
    for _ in range(10):
        xs = rng.uniform(-0.2, 0.2, size=5)
        E = relational_channel(*xs)
        rho = _random_state(rng)
        a, b, T = bloch_of_state(rho)
        R = sum(x * relational_r_matrix(n, a, b, T) for x, n in zip(xs, names))
        a_out, b_out, T_out = bloch_of_state(apply(E, rho))
        assert np.linalg.norm(a_out) < 1e-10
        assert np.linalg.norm(b_out) < 1e-10
        assert np.linalg.norm(T_out - 4.0 * np.real(R)) < 1e-10


def test_singlet_channel_action():
    rng = np.random.default_rng(46)
    E = singlet_channel()
    psi_m = bell_states()["psi-"]
    for _ in range(5):
        rho = _random_state(rng)
        assert np.linalg.norm(apply(E, rho) - psi_m) < 1e-10


def test_extremal_bell_actions():
    # E1 depolarises the singlet completely; E2 preserves it.  On the
    # triplet Bell states the roles reverse in correlation sign.
    bells = bell_states()
    E1, E2 = extremal_e1(), extremal_e2()
    assert check_cptp(E1).is_cptp and check_cptp(E2).is_cptp
    assert abs(check_cptp(E1).min_choi_eigenvalue) < 1e-10  # extremal
    assert abs(check_cptp(E2).min_choi_eigenvalue) < 1e-10
    assert np.linalg.norm(apply(E1, bells["psi-"]) - np.eye(4) / 4) < 1e-10
    assert np.linalg.norm(apply(E2, bells["psi-"]) - bells["psi-"]) < 1e-10
    # all four actions agree with the closed-form correlation matrices
    for name, rho in bells.items():
        a, b, T = bloch_of_state(rho)
        for E, x5 in ((E1, -0.5), (E2, 0.5)):
            R = (x5 * relational_r_matrix("theta5", a, b, T)
                 + 0.3 * relational_r_matrix("theta8", a, b, T))
            expect = state_from_bloch(np.zeros(3), np.zeros(3), 4 * np.real(R))
            assert np.linalg.norm(apply(E, rho) - expect) < 1e-10


def test_relational_quartics_at_landmarks():
    # the singlet point sits on the elliptic cone and parabolic cylinder
    q1, q2, q3, q4 = relational_quartics(1.0, 0.0, 0.0)
    assert abs(q1) < 1e-12 and abs(q2) < 1e-12
    # interior point: strictly inside every applicable surface
    v = injection_region_test  # noqa: F841  (naming aid only)
    rep = check_cptp(swap_invariant_relational(0.05, 0.02, 0.01))
    assert rep.is_cptp


def test_every_theta_term_carries_no_partial_trace():
    # region_scan takes every point's partial trace over the output from e0
    # alone, which holds because each Phi_theta's is exactly zero
    terms = CAT.region_terms
    assert set(terms) == {"e0"} | {f"theta{i}" for i in range(1, 9)}
    for name, (_, trace, _) in terms.items():
        if name != "e0":
            assert np.all(trace == 0), name
    x, y, z = np.array(_SCAN_POINTS).T
    for kind in (INJECTION, RELATIONAL):
        rep = region_scan(kind, x, y, z)
        assert rep.trace_defect.shape == x.shape
        assert np.all(rep.trace_defect == rep.trace_defect[0])
        assert rep.trace_defect[0] <= 1e-15


@pytest.mark.parametrize("kind", [INJECTION, RELATIONAL])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_region_scan_refuses_a_non_finite_coordinate(kind, bad):
    x, y, z = np.zeros((3, 5))
    for name, c in zip("xyz", (x, y, z)):
        c[3] = bad
        with pytest.raises(ValueError, match=f"coordinate {name} = {bad} "
                                             "is not finite"):
            region_scan(kind, x, y, z)
        c[3] = 0.0
