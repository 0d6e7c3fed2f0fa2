"""Process-mode bases: covariance, decomposition, twirl, isotypic parts."""

import ast
import gc
import tracemalloc
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import symmetria
from symmetria import groups, process_modes
from symmetria.axial import single_qubit_modes
from symmetria.bipartite import two_qubit_product_rep
from symmetria.groups import (GroupElement, HaarQuadrature, IrrepLabel,
                              RepSpec, cgc, generators,
                              haar_quadrature, random_su2, wigner_D)
from symmetria.ito import build_itos
from symmetria.linalg_core import (Superoperator, check_cptp,
                                   depolarizing_channel, hs_inner,
                                   identity_channel, random_cptp, vec)
from symmetria.process_modes import (MAX_STACK_BYTES, Diagram,
                                     build_canonical_modes, decompose,
                                     is_symmetric, project_isotypic,
                                     project_isotypic_basis,
                                     superop_group_action, twirl)

QUBIT = RepSpec.su2_spins([1])
QUBIT_MODES = build_canonical_modes(QUBIT, QUBIT)


def test_modes_orthonormal_complete():
    V = np.array([m.op.choi.reshape(-1) for m in QUBIT_MODES.modes])
    assert V.shape[0] == 16
    assert np.linalg.norm(V.conj() @ V.T - np.eye(16)) < 1e-12


def test_mode_covariance_law():
    # conjugation rotates each diagram family by the lam Wigner matrix
    rng = np.random.default_rng(6)
    for _ in range(10):
        g = random_su2(rng)
        for diagram in QUBIT_MODES.diagrams():
            fam = QUBIT_MODES.family(diagram)
            D = wigner_D(diagram.lam, g)
            mats = [m.op for m in fam]
            for c, m in enumerate(fam):
                lhs = superop_group_action(m.op, g, QUBIT, QUBIT)
                rhs = Superoperator.zero(2, 2)
                for r in range(len(fam)):
                    rhs = rhs + D[r, c] * mats[r]
                assert (lhs - rhs).norm() < 1e-10


def test_decompose_round_trip_random_channels():
    rng = np.random.default_rng(9)
    for _ in range(20):
        S = random_cptp(2, 2, rng)
        coeffs = decompose(S, QUBIT_MODES)
        assert coeffs.residual < 1e-12
        assert (coeffs.reconstruct() - S).norm() < 1e-12


def test_coefficient_rotation_law():
    # decomposing the rotated channel rotates each diagram's coefficient
    # vector by the lam Wigner matrix
    rng = np.random.default_rng(12)
    for _ in range(10):
        S = random_cptp(2, 2, rng)
        g = random_su2(rng)
        rot = superop_group_action(S, g, QUBIT, QUBIT)
        a = decompose(S, QUBIT_MODES)
        b = decompose(rot, QUBIT_MODES)
        for diagram in QUBIT_MODES.diagrams():
            D = wigner_D(diagram.lam, g)
            assert np.linalg.norm(
                b.by_diagram(diagram) - D @ a.by_diagram(diagram)
            ) < 1e-9


def test_amplitude_modulus_is_orbit_invariant():
    rng = np.random.default_rng(13)
    S = random_cptp(2, 2, rng)
    a = decompose(S, QUBIT_MODES)
    for _ in range(20):
        g = random_su2(rng)
        b = decompose(superop_group_action(S, g, QUBIT, QUBIT), QUBIT_MODES)
        for diagram in QUBIT_MODES.diagrams():
            assert abs(np.linalg.norm(b.by_diagram(diagram))
                       - np.linalg.norm(a.by_diagram(diagram))) < 1e-9


def test_twirl_is_projection_onto_symmetric():
    rng = np.random.default_rng(21)
    quad = haar_quadrature("su2", 4)
    S = random_cptp(2, 2, rng)
    T = twirl(S, quad, QUBIT, QUBIT)
    assert is_symmetric(T, QUBIT_MODES)
    T2 = twirl(T, quad, QUBIT, QUBIT)
    assert (T2 - T).norm() < 1e-10
    # twirling preserves CPTP
    assert check_cptp(T).is_cptp


def test_isotypic_quadrature_matches_basis_route():
    rng = np.random.default_rng(22)
    quad = haar_quadrature("su2", 4)
    S = random_cptp(2, 2, rng)
    total = Superoperator.zero(2, 2)
    for two_l in (0, 2, 4):
        lam = IrrepLabel.su2(two_l)
        P1 = project_isotypic(S, lam, quad, QUBIT, QUBIT)
        P2 = project_isotypic_basis(S, lam, QUBIT_MODES)
        assert (P1 - P2).norm() < 1e-10
        total = total + P2
    assert (total - S).norm() < 1e-10


def test_isotypic_quadrature_matches_basis_route_zn():
    # Z_N characters are complex, so this fails if the quadrature projector
    # drops the character's conjugation (real SU(2) characters cannot tell)
    rng = np.random.default_rng(23)
    rep = RepSpec.zn_charges([0, 1, 3], 5)
    basis = build_canonical_modes(rep, rep)
    quad = haar_quadrature("zn", 0, modulus=5)
    S = random_cptp(3, 3, rng)
    for charge in range(5):
        lam = IrrepLabel.zn(charge, 5)
        P1 = project_isotypic(S, lam, quad, rep, rep)
        P2 = project_isotypic_basis(S, lam, basis)
        assert P2.norm() > 1e-3
        assert (P1 - P2).norm() < 1e-10


def _twirl_nodes(S, quad, rep_in, rep_out):
    """The node-by-node group average: the oracle for ``twirl``."""
    acc = Superoperator.zero(S.dim_in, S.dim_out)
    for g, w in quad.nodes:
        acc = acc + w * superop_group_action(S, g, rep_in, rep_out)
    return acc


def _project_nodes(S, lam, quad, rep_in, rep_out):
    """The node-by-node isotypic projection: the oracle for
    ``project_isotypic``."""
    acc = Superoperator.zero(S.dim_in, S.dim_out)
    for g, w in quad.nodes:
        ch = np.conj(np.trace(wigner_D(lam, g)))
        acc = acc + (w * lam.dim * ch) * superop_group_action(S, g, rep_in,
                                                              rep_out)
    return acc


def _su2_case(two_js_in, two_js_out, bandlimit=4):
    return (RepSpec.su2_spins(two_js_in), RepSpec.su2_spins(two_js_out),
            haar_quadrature("su2", bandlimit))


GROUP_AVERAGE_CASES = {
    "su2[1]": lambda: _su2_case([1], [1]),
    "su2[1,1]": lambda: _su2_case([1, 1], [1, 1]),
    "su2[2,2]": lambda: _su2_case([2, 2], [2, 2]),
    "two-qubit product": lambda: (two_qubit_product_rep(),) * 2
    + (haar_quadrature("su2", 4),),
    "su2[1]->su2[2]": lambda: _su2_case([1], [2]),
    "z7[0,1,3,5]": lambda: (RepSpec.zn_charges([0, 1, 3, 5], 7),) * 2
    + (haar_quadrature("zn", 0, modulus=7),),
    # bandlimit 1 cannot resolve the spin-2 products of [2,2]
    "su2[2,2] under-resolved": lambda: _su2_case([2, 2], [2, 2], 1),
}


@pytest.mark.parametrize("case", list(GROUP_AVERAGE_CASES))
def test_factored_group_average_matches_the_node_sum(case):
    rep_in, rep_out, quad = GROUP_AVERAGE_CASES[case]()
    S = random_cptp(rep_in.dim, rep_out.dim, np.random.default_rng(50))
    T = twirl(S, quad, rep_in, rep_out)
    assert (T - _twirl_nodes(S, quad, rep_in, rep_out)).norm() < 1e-12
    if quad.kind == "zn":
        lams = [IrrepLabel.zn(c, 7) for c in range(7)]
    else:
        lams = [IrrepLabel.su2(two_l) for two_l in range(5)]
    for lam in lams:
        P = project_isotypic(S, lam, quad, rep_in, rep_out)
        assert (P - _project_nodes(S, lam, quad, rep_in, rep_out)).norm() \
            < 1e-12
    if case.endswith("under-resolved"):
        # the node sum is not the exact twirl there, and the factored
        # average still equals it: its masks keep the aliased charges
        basis = build_canonical_modes(rep_in, rep_out)
        exact = project_isotypic_basis(S, IrrepLabel.su2(0), basis)
        assert (T - exact).norm() > 1e-3


def test_group_averages_never_read_the_nodes():
    rng = np.random.default_rng(51)
    for rep, quad, lam in (
            (RepSpec.su2_spins([1, 2]), haar_quadrature("su2", 4),
             IrrepLabel.su2(2)),
            (RepSpec.zn_charges([0, 2], 5), haar_quadrature("zn", 0, modulus=5),
             IrrepLabel.zn(3, 5))):
        S = random_cptp(rep.dim, rep.dim, rng)
        twirl(S, quad, rep, rep)
        project_isotypic(S, lam, quad, rep, rep)
        # the nodes are a cached property, formed only on first read
        assert "nodes" not in vars(quad)


@pytest.mark.parametrize("case", ["su2[1,1]", "two-qubit product",
                                  "su2[1]->su2[2]", "z7[0,1,3,5]"])
def test_twirl_is_the_trivial_irrep_projection(case):
    rep_in, rep_out, quad = GROUP_AVERAGE_CASES[case]()
    S = random_cptp(rep_in.dim, rep_out.dim, np.random.default_rng(53))
    trivial = (IrrepLabel.zn(0, 7) if quad.kind == "zn"
               else IrrepLabel.su2(0))
    assert np.array_equal(
        twirl(S, quad, rep_in, rep_out).transfer,
        project_isotypic(S, trivial, quad, rep_in, rep_out).transfer)


def test_group_averages_refuse_a_foreign_or_factorless_quadrature():
    S = random_cptp(2, 2, np.random.default_rng(52))
    z5, z7 = RepSpec.zn_charges([0, 1], 5), RepSpec.zn_charges([0, 1], 7)
    quad_z5 = haar_quadrature("zn", 0, modulus=5)
    factorless = HaarQuadrature("su2", 1)
    for call in (lambda: twirl(S, factorless, QUBIT, QUBIT),
                 lambda: twirl(S, quad_z5, QUBIT, QUBIT),
                 lambda: twirl(S, quad_z5, z7, z7),
                 lambda: project_isotypic(S, IrrepLabel.zn(1, 5),
                                          haar_quadrature("su2", 1),
                                          QUBIT, QUBIT),
                 lambda: project_isotypic(S, IrrepLabel.zn(1, 7), quad_z5,
                                          z5, z5)):
        with pytest.raises(ValueError):
            call()


_QUADRATURE_FACTORS = {"betas", "beta_weights", "n_angle"}


def _factor_reads(source: str) -> list:
    """(enclosing function, line) of every read of a quadrature factor
    attribute on anything but ``self``."""
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)
            if (isinstance(child, ast.Attribute)
                    and child.attr in _QUADRATURE_FACTORS
                    and getattr(child.value, "id", None) != "self"):
                hits.append((scope, child.lineno))
            visit(child, inner)

    visit(ast.parse(source), None)
    return hits


def test_factor_read_scan_flags_attributes_in_their_function():
    source = ("def f(quad):\n    return quad.betas\n"
              "def g(self):\n    return self.n_angle\n"
              "x = q.beta_weights\n")
    assert _factor_reads(source) == [("f", 2), (None, 5)]


def test_only_the_projector_reads_the_quadrature_factors():
    # every group average goes through project_isotypic, so the Euler
    # factors (and their layout) are read in one place
    hits = {path.name: _factor_reads(path.read_text())
            for path in sorted(Path(symmetria.__file__).parent.glob("*.py"))}
    found = {(name, scope) for name, lines in hits.items()
             for scope, _ in lines}
    assert found == {("process_modes.py", "project_isotypic")}


def test_unphysical_diagram_has_no_weight():
    # trace preservation kills the diagram that sends the trace-carrying
    # input mode to a traceless output family through a nontrivial carrier
    rng = np.random.default_rng(30)
    key = None
    for d in QUBIT_MODES.diagrams():
        if (d.a_in[0].two_j == 2 and d.a_out[0].two_j == 0
                and d.lam.two_j == 2):
            key = d
    assert key is not None
    worst = 0.0
    for _ in range(100):
        S = random_cptp(2, 2, rng)
        c = decompose(S, QUBIT_MODES).by_diagram(key)
        worst = max(worst, float(np.linalg.norm(c)))
    assert worst <= 1e-10


def test_zn_modes_decompose_exactly():
    rep = RepSpec.zn_charges([0, 1], 7)
    basis = build_canonical_modes(rep, rep)
    rng = np.random.default_rng(2)
    S = random_cptp(2, 2, rng)
    coeffs = decompose(S, basis)
    assert coeffs.residual < 1e-12
    quad = haar_quadrature("zn", 0, modulus=7)
    T = twirl(S, quad, rep, rep)
    assert is_symmetric(T, basis)


def test_decompose_never_builds_a_mode_choi():
    # superoperators store only the transfer matrix; decomposing and testing
    # symmetry on a d = 6 basis (1,296 modes) must not derive any Choi
    rep = RepSpec.su2_spins([1, 1, 1])
    basis = build_canonical_modes(rep, rep)
    S = random_cptp(6, 6, np.random.default_rng(40))
    assert decompose(S, basis).residual < 1e-10
    assert not is_symmetric(S, basis)
    assert all("choi" not in m.op.__dict__ for m in basis.modes)
    assert "choi" not in S.__dict__
    S.choi  # derived on first access, then cached
    assert "choi" in S.__dict__


@pytest.fixture(scope="module", params=["su2[1,1,1]", "z7[0..5]"])
def d6_basis(request):
    rep = {"su2[1,1,1]": RepSpec.su2_spins([1, 1, 1]),
           "z7[0..5]": RepSpec.zn_charges(range(6), 7)}[request.param]
    return build_canonical_modes(rep, rep)


def test_stacked_expansion_matches_per_mode_loop(d6_basis):
    # oracle: one inner product per mode, and the sum of c * mode
    S = random_cptp(6, 6, np.random.default_rng(41))
    coeffs = decompose(S, d6_basis)
    loop = np.array([hs_inner(m.op, S) for m in d6_basis.modes])
    assert np.abs(coeffs.values - loop).max() < 1e-12
    rebuilt = Superoperator.zero(6, 6)
    for c, m in zip(loop, d6_basis.modes):
        rebuilt = rebuilt + c * m.op
    assert (coeffs.reconstruct() - rebuilt).norm() < 1e-12
    assert coeffs.residual < 1e-12


def test_is_symmetric_reads_only_the_coefficients(d6_basis, monkeypatch):
    # oracle: the verdict read off decompose's coefficients; is_symmetric
    # itself must not call decompose, whose residual is a second stack pass
    channels = [identity_channel(6), depolarizing_channel(0.0, 6),
                random_cptp(6, 6, np.random.default_rng(42))]
    expected = []
    for S in channels:
        values = decompose(S, d6_basis).values
        expected.append(all(np.abs(values[span]).max() <= 1e-10
                            for diagram, span in d6_basis.spans.items()
                            if not diagram.lam.is_trivial))
    assert expected == [True, True, False]
    monkeypatch.setattr(process_modes, "decompose", None)
    assert [is_symmetric(S, d6_basis) for S in channels] == expected


def test_families_are_row_spans_of_the_stack(d6_basis):
    for basis in (d6_basis, single_qubit_modes()):
        assert not basis.stack.flags.writeable
        # the spans partition the rows, so no diagram's rows are split
        assert sum(s.stop - s.start for s in basis.spans.values()) \
            == len(basis.labels) == len(basis.stack)
        for diagram, span in basis.spans.items():
            fam = basis.family(diagram)
            assert [(m.diagram, m.k) for m in fam] == list(basis.labels[span])
            assert all(m.diagram == diagram for m in fam)
            assert all(a.k > b.k for a, b in zip(fam, fam[1:]))
        for row, m in zip(basis.stack, basis.modes):
            assert np.array_equal(m.op.transfer.reshape(-1), row)
    # a mode's op is formed from its coupling row alone: at d = 9 one read
    # allocates its own 6,561 entries, not the 689 MB of all the modes
    rep = RepSpec.su2_spins([2, 2, 2])
    basis = build_canonical_modes(rep, rep)
    modes = basis.modes
    tracemalloc.start()
    try:
        op = modes[len(modes) // 2].op
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.transfer.shape == (81, 81)
    assert peak < 1 << 20
    assert "stack" not in basis.__dict__


def test_build_refuses_a_stack_over_the_memory_limit():
    rep = RepSpec.su2_spins([10])  # d = 11: 16 * 11^8 bytes = 3.4 GB
    assert 16 * 11**8 > MAX_STACK_BYTES > 16 * 10**8
    basis = build_canonical_modes(rep, rep)  # the factored basis is small
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="GiB"):
            basis.stack
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# The smallest square carrier whose factored mode basis is predicted over
# the limit.  Of all SU(2) carriers of one dimension the single spin
# predicts the most (checked over every partition of d = 38 and 39; at
# d = 39 it predicts 1.96 GiB), and Z_N carriers predict less.
SMALLEST_REFUSED = RepSpec.su2_spins([39])  # d = 40


def test_build_refuses_a_basis_over_the_memory_limit():
    below = RepSpec.su2_spins([38])
    assert process_modes._basis_bytes(below, below) <= MAX_STACK_BYTES \
        < process_modes._basis_bytes(SMALLEST_REFUSED, SMALLEST_REFUSED)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="GiB"):
            build_canonical_modes(SMALLEST_REFUSED, SMALLEST_REFUSED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_build_and_decompose_peak_is_inside_the_basis_prediction():
    # cold builds: the prediction counts the Clebsch-Gordan blocks and the
    # largest working set, the batch that solves them, a pass of the
    # coupling gather or decompose's working arrays.  Of all carriers of
    # one dimension the single spin predicts the most
    for rep in (RepSpec.su2_spins([15]), RepSpec.su2_spins([1, 2, 3, 0]),
                RepSpec.zn_charges([0, 1, 1, 3, 4, 6], 7)):
        S = identity_channel(rep.dim)
        groups._CG_BLOCKS.clear()
        tracemalloc.start()
        try:
            coeffs = decompose(S, build_canonical_modes(rep, rep))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        predicted = process_modes._basis_bytes(rep, rep)
        assert peak <= predicted
        assert coeffs.residual < 1e-10
        if rep.dim == 16:
            assert predicted / 2 < peak


def test_the_clebsch_gordan_cache_is_inside_its_predicted_bytes():
    # the cache term of _basis_bytes counts every block a cold build reads,
    # the ITO blocks of odd block spins included, and every row's arrays
    for two_js in ([15], [1, 1, 1], [2, 3]):
        rep = RepSpec.su2_spins(two_js)
        groups._CG_BLOCKS.clear()
        build_canonical_modes(rep, rep)
        held = sum(arr.nbytes for block in groups._CG_BLOCKS.values()
                   for arr in block)
        spins = process_modes._family_spins(rep)
        assert held <= process_modes._cg_cache_bytes(
            process_modes._cold_pairs(spins, spins, rep, rep))


def test_a_cold_build_solves_once_per_padded_size(monkeypatch):
    # the Clebsch-Gordan blocks of a cold build take one stacked eigh per
    # padded subspace size: for spin 3/2 the ITO block (3, 3) of size 4
    # and the coupling blocks of sizes 1, 3, 5 and 7; a warm build none
    solves = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (
        solves.append(a.shape[-1]), eigh(a))[1])
    rep = RepSpec.su2_spins([3])
    groups._CG_BLOCKS.clear()
    build_canonical_modes(rep, rep)
    assert sorted(solves) == [1, 3, 4, 5, 7]
    solves.clear()
    build_canonical_modes(rep, rep)
    assert solves == []


def test_block_layout_closed_forms_match_cg_block():
    # _basis_bytes counts a block's entries with _cg_nnz, and the mode
    # labels read each row's (J, M) from the cache; both must describe
    # the blocks that the cache stores
    spin = [[sparse.csr_matrix(J) for J in generators(RepSpec.su2_spins([t]))]
            for t in range(25)]
    for two_j1 in range(25):
        for two_j2 in range(25):
            data, column, (count, two_J, two_M) = groups.cg_blocks(
                [(two_j1, two_j2)])[0]
            assert process_modes._cg_nnz(two_j1, two_j2) == len(data)
            n = (two_j1 + 1) * (two_j2 + 1)
            assert len(count) == len(two_J) == len(two_M) == n
            # every stored (m1, m2) of row (J, M) has m1 + m2 = M
            a, b = np.divmod(column, two_j2 + 1)
            row = np.repeat(np.arange(n), count)
            assert np.array_equal(two_j1 - 2 * a + two_j2 - 2 * b, two_M[row])
            # and each row is a J^2 eigenvector with eigenvalue J(J + 1)
            casimir = sum(
                (sparse.kron(J1, sparse.identity(two_j2 + 1))
                 + sparse.kron(sparse.identity(two_j1 + 1), J2)) ** 2
                for J1, J2 in zip(spin[two_j1], spin[two_j2]))
            C = sparse.csr_matrix((data, column, np.append(0, count.cumsum())),
                                  shape=(n, n))
            defect = C @ casimir - sparse.diags(two_J * (two_J + 2) / 4) @ C
            assert abs(defect).max() <= 1e-10


def _coupled(a: IrrepLabel, b: IrrepLabel) -> list[IrrepLabel]:
    """The irreps in a x b, in the row order of the Clebsch-Gordan block."""
    if a.kind == "zn":
        return [IrrepLabel.zn(a.charge + b.charge, a.modulus)]
    return [IrrepLabel.su2(t)
            for t in range(abs(a.two_j - b.two_j), a.two_j + b.two_j + 2, 2)]


def _dense_oracle(rep_in: RepSpec, rep_out: RepSpec):
    """The dense construction the factored basis replaced: every mode's
    vectorised transfer matrix as one row, accumulated from one scalar
    Clebsch-Gordan coefficient and one outer product per ITO pair.
    Returns (labels, stack)."""
    itos_in, itos_out = build_itos(rep_in), build_itos(rep_out)
    n = (rep_in.dim * rep_out.dim) ** 2
    stack = np.zeros((n, n), dtype=complex)
    labels = []
    for (a_out_lam, a_out_mult), out_fam in _family_elements(itos_out):
        for (a_in_lam, a_in_mult), in_fam in _family_elements(itos_in):
            for lam in _coupled(a_out_lam, a_in_lam):
                diagram = Diagram((a_in_lam, a_in_mult),
                                  (a_out_lam, a_out_mult), lam)
                for two_k in lam.components():
                    row = stack[len(labels)].reshape(rep_out.dim**2,
                                                     rep_in.dim**2)
                    for k_out, T_out in out_fam:
                        for k_in, T_in in in_fam:
                            c = cgc(a_out_lam, k_out, a_in_lam, k_in,
                                    lam, two_k)
                            if c != 0.0:
                                row += c * np.outer(vec(T_out), vec(T_in.T))
                    labels.append((diagram, two_k))
    return tuple(labels), stack


def _family_elements(itos):
    """((lam, mult), [(k, matrix)] in descending k) per ITO family."""
    elements = list(zip(itos.k.tolist(), itos.matrices))
    starts = np.cumsum([0] + [lam.dim for lam, _ in itos.families])
    return [(key, elements[a:b])
            for key, a, b in zip(itos.families, starts, starts[1:])]


def _intertwined_rep():
    rng = np.random.default_rng(45)
    Q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    return RepSpec.su2_spins([1, 2], intertwiner=Q)


ORACLE_CASES = {
    "su2[1,1,1]": lambda: (RepSpec.su2_spins([1, 1, 1]),) * 2,
    "z7[0..5]": lambda: (RepSpec.zn_charges(range(6), 7),) * 2,
    "su2[1,2]-intertwined": lambda: (_intertwined_rep(),) * 2,
    "su2[2]->su2[1,1]": lambda: (RepSpec.su2_spins([2]),
                                 RepSpec.su2_spins([1, 1])),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_factored_basis_matches_the_dense_oracle(case):
    rep_in, rep_out = ORACLE_CASES[case]()
    d_in, d_out = rep_in.dim, rep_out.dim
    basis = build_canonical_modes(rep_in, rep_out)
    labels, stack = _dense_oracle(rep_in, rep_out)
    assert basis.labels == labels
    assert np.abs(basis.stack - stack).max() < 1e-12

    S = random_cptp(d_in, d_out, np.random.default_rng(46))
    K = S.transfer.reshape(-1)
    values = stack.conj() @ K
    coeffs = decompose(S, basis)
    assert np.abs(coeffs.values - values).max() < 1e-12
    assert abs(coeffs.residual - np.linalg.norm(K - stack.T @ values)) < 1e-12
    assert np.abs(coeffs.reconstruct().transfer.reshape(-1)
                  - stack.T @ values).max() < 1e-12

    # rho -> tr(rho) 1/d_out commutes with every group action
    replace = Superoperator.from_transfer(
        np.outer(vec(np.eye(d_out) / d_out), vec(np.eye(d_in))), d_in, d_out)
    nontrivial = np.array([not d.lam.is_trivial for d, _ in labels])
    for channel, expected in ((replace, True), (S, False)):
        oracle = stack.conj() @ channel.transfer.reshape(-1)
        assert bool(np.all(np.abs(oracle[nontrivial]) <= 1e-10)) is expected
        assert is_symmetric(channel, basis) is expected

    for lam in {d.lam for d, _ in labels}:
        kept = np.where([d.lam == lam for d, _ in labels], values, 0.0)
        projected = project_isotypic_basis(S, lam, basis)
        assert np.abs(projected.transfer.reshape(-1)
                      - stack.T @ kept).max() < 1e-12


def _label_loop(rep_in: RepSpec, rep_out: RepSpec) -> tuple:
    """The per-mode label loop the row arrays replaced: one (Diagram, k)
    per mode over the ITO family pairs, output family outermost."""
    fams_out = build_itos(rep_out).families
    fams_in = build_itos(rep_in).families
    labels = []
    for a_out in fams_out:
        for a_in in fams_in:
            for lam in _coupled(a_out[0], a_in[0]):
                diagram = Diagram(a_in, a_out, lam)
                labels.extend((diagram, k) for k in lam.components())
    return tuple(labels)


def _printed_qubit_labels() -> tuple:
    """Labels of axial.single_qubit_modes, by (a_in, a_out, lam) spins."""
    diagrams = {(d.a_in[0].two_j, d.a_out[0].two_j, d.lam.two_j): d
                for d, _ in _label_loop(QUBIT, QUBIT)}
    listed = [((0, 0, 0), 0), ((2, 2, 0), 0)]
    listed += [((0, 2, 2), k) for k in (2, 0, -2)]
    listed += [((2, 2, 2), k) for k in (2, 0, -2)]
    listed += [((2, 2, 4), k) for k in (4, 2, 0, -2, -4)]
    return tuple((diagrams[triple], k) for triple, k in listed)


LABEL_CASES = {
    "su2[1]": lambda: (QUBIT, QUBIT),
    "su2[3]": lambda: (RepSpec.su2_spins([3]),) * 2,
    "su2[1,1,1]": lambda: (RepSpec.su2_spins([1, 1, 1]),) * 2,
    "su2[2,2,2]": lambda: (RepSpec.su2_spins([2, 2, 2]),) * 2,
    "su2[1]->su2[2]": lambda: (QUBIT, RepSpec.su2_spins([2])),
    "su2[1,1]->su2[2]": lambda: (RepSpec.su2_spins([1, 1]),
                                 RepSpec.su2_spins([2])),
    "z3": lambda: (RepSpec.zn_charges(range(3), 3),) * 2,
    "z7[0..5]": lambda: (RepSpec.zn_charges(range(6), 7),) * 2,
    "su2[15]": lambda: (RepSpec.su2_spins([15]),) * 2,
    "printed qubit": None,
}


@pytest.mark.parametrize("case", list(LABEL_CASES))
def test_row_arrays_match_the_label_loop(case):
    if LABEL_CASES[case] is None:
        basis, labels = single_qubit_modes(), _printed_qubit_labels()
    else:
        rep_in, rep_out = LABEL_CASES[case]()
        basis = build_canonical_modes(rep_in, rep_out)
        labels = _label_loop(rep_in, rep_out)
    assert basis.labels == labels
    spans, start = [], 0
    for diagram, rows in groupby(labels, key=lambda label: label[0]):
        stop = start + len(list(rows))
        spans.append((diagram, slice(start, stop)))
        start = stop
    assert list(basis.spans.items()) == spans
    assert basis.diagrams() == [diagram for diagram, _ in spans]
    for diagram, span in spans:
        assert [(m.diagram, m.k) for m in basis.family(diagram)] \
            == list(labels[span])
    assert np.array_equal(basis._nontrivial,
                          [not d.lam.is_trivial for d, _ in labels])
    # one Diagram object per diagram, shared by its rows
    assert len({id(d) for d, _ in basis.labels}) == len(spans)
    # an irrep of another group or modulus selects no row
    rep_in, rep_out = basis.rep_in, basis.rep_out
    S = random_cptp(rep_in.dim, rep_out.dim, np.random.default_rng(50))
    for foreign in (IrrepLabel.su2(0) if rep_in.kind == "zn"
                    else IrrepLabel.zn(0, 2), IrrepLabel.zn(0, 11)):
        assert project_isotypic_basis(S, foreign, basis).norm() == 0.0


def test_numeric_path_makes_no_per_mode_objects():
    # build, decompose, reconstruct, symmetry test and isotypic projection
    # read the row arrays only: no label, span or mode is formed, and the
    # d^4 = 65,536 modes allocate too few Python objects to start the
    # collector (the per-mode label loop triggered 97 gen-0 collections)
    rep = RepSpec.su2_spins([15])
    build_canonical_modes(rep, rep)  # fills the Clebsch-Gordan block cache
    S = random_cptp(16, 16, np.random.default_rng(49))
    gc.collect()
    before = gc.get_stats()[0]["collections"]
    basis = build_canonical_modes(rep, rep)
    coeffs = decompose(S, basis)
    assert not is_symmetric(S, basis)
    assert (coeffs.reconstruct() - S).norm() < 1e-10
    project_isotypic_basis(S, IrrepLabel.su2(2), basis)
    assert gc.get_stats()[0]["collections"] - before < 5
    # the dense stack's refusal counts rows without reading the labels
    with pytest.raises(ValueError, match="GiB"):
        basis.stack
    assert not {"labels", "spans", "modes"} & basis.__dict__.keys()


def _build_and_decompose_traced(rep, seed):
    S = random_cptp(rep.dim, rep.dim, np.random.default_rng(seed))
    tracemalloc.start()
    try:
        basis = build_canonical_modes(rep, rep)
        coeffs = decompose(S, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "stack" not in basis.__dict__
    return basis, coeffs, peak


def test_d9_build_and_decompose_within_200_mb():
    # the dense matrix of all 6,561 modes would be 689 MB
    rep = RepSpec.su2_spins([2, 2, 2])
    basis, coeffs, peak = _build_and_decompose_traced(rep, 47)
    assert len(basis.labels) == 9**4
    assert coeffs.residual <= 1e-10
    assert peak < 200 << 20
    assert peak < 2 * process_modes._basis_bytes(rep, rep)


def test_d16_build_and_decompose_within_2_gb():
    # 65,536 modes, whose dense matrix would be 68.7 GB
    rep = RepSpec.su2_spins([3, 3, 3, 3])
    basis, coeffs, peak = _build_and_decompose_traced(rep, 48)
    assert len(basis.labels) == 16**4
    assert coeffs.residual <= 1e-10
    assert not coeffs.is_symmetric()
    assert peak < 2 << 30
    assert peak < 2 * process_modes._basis_bytes(rep, rep)


def test_decompose_keeps_the_real_coupling_real():
    # a complex vector times the real CSR coupling would copy its data to
    # complex; the (real, imag) pair product allocates no such copy and
    # agrees bit for bit with the complex product
    rep = RepSpec.su2_spins([15])
    basis = build_canonical_modes(rep, rep)
    S = random_cptp(16, 16, np.random.default_rng(49), env_dim=2)
    coeffs = decompose(S, basis)  # warm-up: cached transpose and spans
    rebuilt = coeffs.reconstruct()
    tracemalloc.start()
    try:
        decompose(S, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < basis.coupling.data.nbytes
    y = basis.ito_out @ S.transfer.conj() @ basis.ito_in.T
    assert np.array_equal(coeffs.values, (basis.coupling @ y.ravel()).conj())
    Z = (basis._coupling_t @ coeffs.values).reshape(len(basis.ito_out), -1)
    assert np.array_equal(rebuilt.transfer,
                          basis.ito_out.T @ Z @ basis.ito_in)
