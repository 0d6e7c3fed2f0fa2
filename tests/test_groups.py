"""Wigner matrices, Clebsch-Gordan coefficients, Haar quadrature, and the
Z_N reference frame."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import eigh_tridiagonal

from symmetria import gauge, groups
from symmetria.bipartite import two_qubit_product_rep
from symmetria.groups import (GroupElement, IrrepLabel, LinkFrame, RepSpec,
                              cg_rows, cgc, compose,
                              dual_sign_permutation, generators,
                              haar_quadrature, inverse,
                              random_su2, rep_matrix, su2_from_matrix,
                              su2_matrix, wigner_D, wigner_d)
from symmetria.process_modes import build_canonical_modes
from symmetria.repeatability import build_protocol

RNG = np.random.default_rng(8)


@given(st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_wigner_homomorphism_and_unitarity(two_j, seed):
    rng = np.random.default_rng(seed)
    j = IrrepLabel.su2(two_j)
    g1, g2 = random_su2(rng), random_su2(rng)
    D1, D2 = wigner_D(j, g1), wigner_D(j, g2)
    D12 = wigner_D(j, compose(g1, g2))
    assert np.linalg.norm(D1 @ D2 - D12) < 1e-10
    assert np.linalg.norm(D1 @ D1.conj().T - np.eye(two_j + 1)) < 1e-12
    assert np.linalg.norm(
        wigner_D(j, inverse(g1)) - D1.conj().T
    ) < 1e-10


@pytest.mark.parametrize("two_j", [20, 40, 60, 80, 100])
def test_wigner_unitary_and_homomorphic_at_large_spin(two_j):
    # the exact J_y diagonalisation keeps both laws at machine precision
    # where a float factorial sum loses digits or overflows
    rng = np.random.default_rng(two_j)
    j = IrrepLabel.su2(two_j)
    for _ in range(3):
        g1, g2 = random_su2(rng), random_su2(rng)
        D1 = wigner_D(j, g1)
        assert np.linalg.norm(D1 @ D1.conj().T - np.eye(two_j + 1)) <= 1e-12
        assert np.linalg.norm(
            D1 @ wigner_D(j, g2) - wigner_D(j, compose(g1, g2))) <= 1e-12


def test_wigner_unitary_at_spin_100():
    rng = np.random.default_rng(200)
    D = wigner_D(IrrepLabel.su2(200), random_su2(rng))
    assert np.linalg.norm(D @ D.conj().T - np.eye(201)) <= 1e-12


@pytest.mark.parametrize("beta", [0.0, 0.4, np.pi / 2, 2.5, np.pi])
def test_wigner_small_d_textbook_values(beta):
    # Condon-Shortley d^{1/2}(beta) and d^1(beta), rows and columns in
    # descending m; the Euler angles alpha and gamma only add phases
    c, s = np.cos(beta / 2), np.sin(beta / 2)
    half = np.array([[c, -s], [s, c]])
    cb, sb = np.cos(beta), np.sin(beta)
    one = np.array([
        [(1 + cb) / 2, -sb / np.sqrt(2), (1 - cb) / 2],
        [sb / np.sqrt(2), cb, -sb / np.sqrt(2)],
        [(1 - cb) / 2, sb / np.sqrt(2), (1 + cb) / 2],
    ])
    for two_j, d in ((1, half), (2, one)):
        D = wigner_D(IrrepLabel.su2(two_j), GroupElement.su2(0.0, beta, 0.0))
        assert np.abs(D - d).max() <= 1e-15
        m = np.arange(two_j, -two_j - 1, -2) / 2
        g = GroupElement.su2(0.7, beta, -1.3)
        expect = np.exp(-0.7j * m)[:, None] * d * np.exp(1.3j * m)
        assert np.abs(wigner_D(IrrepLabel.su2(two_j), g) - expect).max() <= 1e-15


def test_su2_euler_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_su2(rng)
        U = su2_matrix(g)
        g2 = su2_from_matrix(U)
        assert np.linalg.norm(su2_matrix(g2) - U) < 1e-10


def _eigen_route_half(g):
    # oracle: the J_y eigen-route d^(1/2)(beta) between the alpha and gamma
    # weight phases, as wigner_D forms every spin j >= 1
    m = np.array([0.5, -0.5])
    return (np.exp(-1j * g.alpha * m)[:, None] * wigner_d(1, [g.beta])[0]
            * np.exp(-1j * g.gamma * m))


def _spin_half_cases():
    rng = np.random.default_rng(9)
    edge = (0.0, math.nextafter(4 * math.pi, 0.0), 4 * math.pi,
            4 * math.pi - 1e-9, 4 * math.pi + 1e-9)
    return ([g for g, _ in haar_quadrature("su2", 4).nodes]
            + [random_su2(rng) for _ in range(200)]
            + [GroupElement.su2(a, b, c) for b in (0.0, math.pi, 2 * math.pi)
               for a in edge for c in edge])


def test_spin_half_closed_form_matches_the_eigen_route():
    qubit = RepSpec.su2_spins([1])
    half = IrrepLabel.su2(1)
    cases = _spin_half_cases()
    assert len(cases) == 500 + 200 + 75
    for g in cases:
        want = _eigen_route_half(g)
        for got in (su2_matrix(g), wigner_D(half, g), rep_matrix(qubit, g)):
            assert got.shape == (2, 2) and got.dtype == complex
            assert np.abs(got - want).max() <= 1e-15


def test_su2_matrix_refuses_a_z_n_element():
    with pytest.raises(ValueError, match="SU\\(2\\)"):
        su2_matrix(GroupElement.zn(1, 3))


def test_compose_inverse_and_round_trip_match_the_eigen_route():
    # the eigen-route results, as compose and inverse formed them with the
    # eigen-route matrix.  An Euler triple names its element only up to
    # (alpha, gamma) -> (alpha + 2 pi, gamma + 2 pi) and the 4 pi period,
    # and rounding can pick either label at a branch cut of the angles, so
    # the elements are compared through the oracle's matrices
    cases = _spin_half_cases()
    for i, g in enumerate(cases):
        h = cases[(7 * i + 3) % len(cases)]
        U, V = _eigen_route_half(g), _eigen_route_half(h)
        for got, want in ((compose(g, h), su2_from_matrix(U @ V)),
                          (inverse(g), su2_from_matrix(U.conj().T)),
                          (su2_from_matrix(su2_matrix(g)),
                           su2_from_matrix(U))):
            assert abs(got.beta - want.beta) <= 1e-14
            assert np.abs(_eigen_route_half(got)
                          - _eigen_route_half(want)).max() <= 1e-14


@pytest.mark.parametrize("rep", [RepSpec.su2_spins([1]),
                                 RepSpec.su2_spins([2]),
                                 RepSpec.su2_spins([7]),
                                 RepSpec.zn_charges([3], 7)],
                         ids=["su2 [1]", "su2 [2]", "su2 [7]", "z7 [3]"])
def test_one_block_rep_matrix_is_its_wigner_block(rep, monkeypatch):
    rng = np.random.default_rng(10)
    elements = ([random_su2(rng) for _ in range(5)] if rep.kind == "su2"
                else [GroupElement.zn(k, 7) for k in range(7)])
    lab, = rep.blocks
    want = [groups._block_diag([wigner_D(lab, g)]) for g in elements]
    calls = []
    block_diag = groups._block_diag
    monkeypatch.setattr(groups, "_block_diag",
                        lambda blocks: calls.append(1) or block_diag(blocks))
    for g, w in zip(elements, want):
        U = rep_matrix(rep, g)
        assert U.dtype == w.dtype and U.tobytes() == w.tobytes()
        # a fresh array: writing to it leaves the next call's result alone
        U[...] = 7.0
        assert rep_matrix(rep, g).tobytes() == w.tobytes()
    assert not calls


@pytest.mark.parametrize("rep", [RepSpec.su2_spins([1, 1]),
                                 two_qubit_product_rep()],
                         ids=["su2 [1, 1]", "two-qubit product"])
def test_several_blocks_or_an_intertwiner_keep_the_block_route(rep,
                                                              monkeypatch):
    calls = []
    block_diag = groups._block_diag
    monkeypatch.setattr(groups, "_block_diag",
                        lambda blocks: calls.append(1) or block_diag(blocks))
    g = random_su2(np.random.default_rng(11))
    D = su2_matrix(g)
    U = rep_matrix(rep, g)
    assert calls == [1]
    if rep.intertwiner is None:
        assert U.tobytes() == block_diag([D, D]).tobytes()
    else:
        assert np.abs(U - np.kron(D, D)).max() <= 1e-15


def test_cgc_orthogonality_exact():
    # sum over (m1, m2) of <j1 m1 j2 m2|J M><j1 m1 j2 m2|J' M'> = delta
    two_j1, two_j2 = 2, 1
    Js = range(abs(two_j1 - two_j2), two_j1 + two_j2 + 2, 2)
    j1 = IrrepLabel.su2(two_j1)
    j2 = IrrepLabel.su2(two_j2)
    pairs = [(m1, m2) for m1 in j1.components() for m2 in j2.components()]
    cols = []
    for two_J in Js:
        J = IrrepLabel.su2(two_J)
        for two_M in J.components():
            cols.append(np.array(
                [cgc(j1, m1, j2, m2, J, two_M) for (m1, m2) in pairs]
            ))
    G = np.array([[c1 @ c2 for c2 in cols] for c1 in cols])
    assert np.linalg.norm(G - np.eye(len(cols))) < 1e-14


def test_cgc_couples_to_total_weight():
    j1 = IrrepLabel.su2(3)
    j2 = IrrepLabel.su2(2)
    J = IrrepLabel.su2(3)
    for m1 in j1.components():
        for m2 in j2.components():
            for M in J.components():
                if m1 + m2 != M:
                    assert cgc(j1, m1, j2, m2, J, M) == 0.0


def test_cg_block_matches_racah_coefficients():
    # each J's rows as cg_rows reads them from the eigen-route block, and
    # the block they stack to, against the exact scalar oracle
    for two_j1 in range(11):
        j1 = IrrepLabel.su2(two_j1)
        for two_j2 in range(11):
            j2 = IrrepLabel.su2(two_j2)
            blocks = []
            for two_J in range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2):
                J = IrrepLabel.su2(two_J)
                exact = np.array([
                    [cgc(j1, m1, j2, m2, J, M)
                     for m1 in j1.components() for m2 in j2.components()]
                    for M in J.components()])
                rows = cg_rows(two_j1, two_j2, two_J)
                assert rows.shape == exact.shape
                assert np.abs(rows - exact).max() <= 1e-14
                blocks.append(rows)
            C = np.vstack(blocks)
            assert np.abs(C @ C.T - np.eye(len(C))).max() <= 1e-14
    for two_J in (1, 4):  # wrong parity, past j1 + j2
        with pytest.raises(ValueError, match="series"):
            cg_rows(1, 1, two_J)


def _assert_cached_block_is(two_j1: int, two_j2: int, C: sparse.csr_matrix,
                            tol: float = 0.0):
    """The cached arrays of j1 x j2 against the CSR matrix C: the columns
    equal to its indices and the row entry counts to np.diff(indptr), index
    dtypes included, and the values to ``tol`` (to the bit when 0)."""
    data, column, (count, _, _) = groups.cg_blocks([(two_j1, two_j2)])[0]
    for got, want in ((column, C.indices), (count, np.diff(C.indptr))):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    if tol:
        assert np.abs(data - C.data).max() <= tol
    else:
        assert data.dtype == C.data.dtype
        assert np.array_equal(data, C.data)


def _per_pair_cg_block(two_j1: int, two_j2: int) -> sparse.csr_matrix:
    """The per-pair route to the Clebsch-Gordan block: one batched ``eigh``
    over the weight subspaces of j1 x j2 alone, each padded to min(d1, d2),
    as a CSR matrix (rows J ascending and M descending, columns (m1, m2)
    row-major).  Its padded matrices are the batched solve's."""
    d1, d2 = two_j1 + 1, two_j2 + 1
    j1, j2 = two_j1 / 2.0, two_j2 / 2.0
    m1 = j1 - np.arange(d1)
    m2 = j2 - np.arange(d2)
    low1 = np.sqrt((j1 + m1) * (j1 - m1 + 1))  # J_- |j1 m1> = low1 |j1 m1-1>
    low2 = np.sqrt((j2 + m2) * (j2 - m2 + 1))
    raise2 = np.sqrt((j2 - m2) * (j2 + m2 + 1))  # J_+ |j2 m2> = raise2 |j2 m2+1>
    two_min, two_top = abs(two_j1 - two_j2), two_j1 + two_j2
    k, n_sub = min(d1, d2), d1 + d2 - 1
    # subspace s has two_M = two_top - 2 s and holds J = two_min / 2 + t
    # for t >= skip[s]; its position i is (m1 index a = first[s] + i, m2
    # index s - a) for i < size[s]
    s = np.arange(n_sub)
    skip = (np.maximum(two_min, np.abs(two_top - 2 * s)) - two_min) // 2
    size = k - skip
    first = np.maximum(0, s - d2 + 1)
    i = t = np.arange(k)
    a = first[:, None] + i
    inside = i < size[:, None]
    a_in, b_in = np.minimum(a, d1 - 1), np.clip(s[:, None] - a, 0, d2 - 1)
    casimir = np.zeros((n_sub, k, k))
    casimir[:, i, i] = np.where(
        inside, j1 * (j1 + 1) + j2 * (j2 + 1) + 2 * m1[a_in] * m2[b_in], -1.0)
    off = np.where(inside[:, 1:], low1[a_in[:, :-1]] * raise2[b_in[:, :-1]],
                   0.0)
    casimir[:, i[1:], i[:-1]] = off
    casimir[:, i[:-1], i[1:]] = off
    V = np.linalg.eigh(casimir)[1]
    # raw <J M| J_- |J, M+1>: J1_- feeds position a from a - 1 and J2_- from
    # a, which sit at positions i - 1 and i of subspace s - 1 while s < d2
    # and at i and i + 1 once its first m1 index has moved
    feed1 = np.where(a > 0, low1[np.maximum(a_in - 1, 0)], 0.0)[:, :, None]
    feed2 = np.where(s[:, None] > a, low2[np.maximum(b_in - 1, 0)],
                     0.0)[:, :, None]
    lo, hi = slice(1, d2), slice(d2, n_sub)
    lo_prev, hi_prev = slice(0, d2 - 1), slice(d2 - 1, n_sub - 1)
    overlap = np.zeros((n_sub, k))
    overlap[lo] = ((feed2[lo] * V[lo] * V[lo_prev]).sum(1)
                   + (feed1[lo, 1:] * V[lo, 1:] * V[lo_prev, :-1]).sum(1))
    overlap[hi] = ((feed1[hi] * V[hi] * V[hi_prev]).sum(1)
                   + (feed2[hi, :-1] * V[hi, :-1] * V[hi_prev, 1:]).sum(1))
    present = t >= skip[:, None]
    sign = np.where(present & (overlap < 0), -1.0, 1.0)
    # the highest weight |J J> starts J's run at s = k - 1 - t, first = 0
    top = (-1.0) ** i @ V[k - 1 - t, :, t].T
    sign[k - 1 - t, t] = np.where(top < 0, -1.0, 1.0)
    V *= np.cumprod(sign, axis=0)[:, None, :]
    # CSR rows (J ascending, M descending) are (t, s) in C order, each row
    # the positions of its subspace, columns a d2 + b ascending
    keep = present.T[:, :, None] & inside
    row_end = np.cumsum(np.broadcast_to(size, (k, n_sub))[present.T])
    return sparse.csr_matrix(
        (V.transpose(2, 0, 1)[keep],
         np.broadcast_to(a * (d2 - 1) + s[:, None], keep.shape)[keep],
         np.concatenate(([0], row_end))), shape=(d1 * d2, d1 * d2))


_PAIRS_UP_TO_24 = [(a, b) for a in range(25) for b in range(25)]


def _build(two_js):
    rep = RepSpec.su2_spins(two_js)
    build_canonical_modes(rep, rep)


@pytest.mark.parametrize("requests", [
    [lambda: _build([1]), lambda: _build([3]),
     lambda: groups.cg_blocks(_PAIRS_UP_TO_24)],
    [lambda: groups.cg_blocks(_PAIRS_UP_TO_24)],
    [lambda pair=pair: groups.cg_blocks([pair])
     for pair in reversed(_PAIRS_UP_TO_24)],
], ids=["su2[1]-then-su2[3]", "one-batch", "reversed-one-by-one"])
def test_batched_solves_match_the_per_pair_route_bit_for_bit(requests):
    # the blocks solved cold in batches of any make-up are the per-pair
    # route's, to the bit and the index dtype
    groups._CG_BLOCKS.clear()
    for request in requests:
        request()
    for pair in _PAIRS_UP_TO_24:
        _assert_cached_block_is(*pair, _per_pair_cg_block(*pair))


def _per_weight_cg_block(two_j1: int, two_j2: int) -> sparse.csr_matrix:
    """The per-weight route to the Clebsch-Gordan block: one
    ``eigh_tridiagonal`` and one J_- sign pass per weight M, as a CSR
    matrix in the same row and column layout."""
    d1, d2 = two_j1 + 1, two_j2 + 1
    j1, j2 = two_j1 / 2.0, two_j2 / 2.0
    m1 = j1 - np.arange(d1)
    m2 = j2 - np.arange(d2)
    low1 = np.sqrt((j1 + m1) * (j1 - m1 + 1))  # J_- |j1 m1> = low1 |j1 m1-1>
    low2 = np.sqrt((j2 + m2) * (j2 - m2 + 1))
    raise2 = np.sqrt((j2 - m2) * (j2 + m2 + 1))  # J_+ |j2 m2> = raise2 |j2 m2+1>
    two_min, two_top = abs(two_j1 - two_j2), two_j1 + two_j2
    rows, cols, vals = [], [], []
    prev_a = prev_V = None
    # s = (two_top - two_M) / 2 indexes M descending; the subspace holds
    # (m1 index a, m2 index s - a), ordered by a ascending
    for s in range(d1 + d2 - 1):
        a = np.arange(max(0, s - d2 + 1), min(s, d1 - 1) + 1)
        b = s - a
        two_M = two_top - 2 * s
        off = low1[a[:-1]] * raise2[b[:-1]]  # J1_- J2_+ between neighbours
        _, V = eigh_tridiagonal(  # columns: J ascending
            j1 * (j1 + 1) + j2 * (j2 + 1) + 2 * m1[a] * m2[b], off)
        two_J = np.arange(max(two_min, abs(two_M)), two_top + 1, 2)
        top = two_J == two_M  # the highest weight |J J>, if J = M occurs
        sign = np.empty(len(two_J))
        sign[top] = (-1.0) ** a @ V[:, top]
        if prev_V is not None:  # overlap with J_- applied to |J, M+1>
            lowered = np.zeros((d1 + 1, prev_V.shape[1]))
            lowered[prev_a + 1] += low1[prev_a, None] * prev_V
            lowered[prev_a] += low2[s - 1 - prev_a, None] * prev_V
            prev_col = (two_J[~top] - max(two_min, abs(two_M + 2))) // 2
            sign[~top] = np.sum(lowered[a][:, prev_col] * V[:, ~top], axis=0)
        V *= np.where(sign < 0, -1.0, 1.0)
        t = (two_J - two_min) // 2  # rows of the spins below J
        rows.append(np.repeat(t * (two_min + 1) + t * (t - 1)
                              + (two_J - two_M) // 2, len(a)))
        cols.append(np.tile(a * d2 + b, len(two_J)))
        vals.append(V.T.reshape(-1))
        prev_a, prev_V = a, V
    n = d1 * d2
    return sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                     np.concatenate(cols))),
                             shape=(n, n))


@pytest.mark.parametrize("pairs", [
    [(a, b) for a in range(25) for b in range(25)],
    [(76, 76), (76, 0), (0, 76), (76, 1), (60, 17), (38, 76)],
], ids=["up-to-24", "large"])
def test_cg_block_matches_the_per_weight_route(pairs):
    # the batched eigensolve against one eigh_tridiagonal per weight: the
    # same columns and row entry counts, index dtypes included, and the
    # same coefficients
    for two_j1, two_j2 in pairs:
        _assert_cached_block_is(two_j1, two_j2,
                                _per_weight_cg_block(two_j1, two_j2), 1e-13)


def test_cg_block_signs_at_spin_38_match_racah():
    # rows J = 72, M = 0 and M = -1 of 38 x 38, where the component that a
    # single-endpoint sign rule would read is below rounding
    j = IrrepLabel.su2(76)
    rows = cg_rows(76, 76, 144)
    J = IrrepLabel.su2(144)
    for two_M in (0, -2):
        row = rows[(144 - two_M) // 2]
        exact = [cgc(j, m1, j, m2, J, two_M)
                 for m1 in j.components() for m2 in j.components()]
        assert np.abs(row - exact).max() <= 1e-13
        assert np.abs(row).max() > 0.1


def test_groups_loads_no_scipy():
    # the Clebsch-Gordan blocks are solved, cached and read with numpy
    # alone
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy as np, symmetria.groups as g\n"
         "g.cg_layout(np.array([3, 1]), np.array([2, 1]))\n"
         "g.cg_rows(2, 2, 4)\n"
         "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']"],
        capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_dual_sign_permutation_intertwines_conjugate():
    rng = np.random.default_rng(11)
    for two_j in (1, 2, 3):
        j = IrrepLabel.su2(two_j)
        C = dual_sign_permutation(j)
        for _ in range(5):
            g = random_su2(rng)
            D = wigner_D(j, g)
            assert np.linalg.norm(C @ D.conj() @ np.linalg.inv(C) - D) < 1e-10


def test_generators_match_derivative():
    rep = RepSpec.su2_spins([1, 2])
    Jx, Jy, Jz = generators(rep)
    eps = 1e-6
    # D(alpha, 0, 0) = exp(-i alpha Jz), so the derivative at 0 is -i Jz
    g = GroupElement.su2(eps, 0.0, 0.0)
    num = (rep_matrix(rep, g) - np.eye(rep.dim)) / eps
    assert np.linalg.norm(num + 1j * Jz) < 1e-5


def test_haar_quadrature_exactness_su2():
    quad = haar_quadrature("su2", 4)
    # character orthogonality: int chi_j(g) conj(chi_k(g)) dg = delta_jk
    for two_j in range(0, 5):
        for two_k in range(0, 5):
            val = quad.integrate(
                lambda g: np.trace(wigner_D(IrrepLabel.su2(two_j), g))
                * np.conj(np.trace(wigner_D(IrrepLabel.su2(two_k), g)))
            )
            assert abs(val - (1.0 if two_j == two_k else 0.0)) < 1e-10


def test_haar_quadrature_zn():
    quad = haar_quadrature("zn", 0, modulus=5)
    for c in range(5):
        val = quad.integrate(
            lambda g: np.exp(2j * np.pi * c * g.g / 5)
        )
        assert abs(val - (1.0 if c == 0 else 0.0)) < 1e-14


def test_haar_quadrature_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown group kind 'u1'"):
        haar_quadrature("u1", 2)


def _eager_nodes(kind, bandlimit):
    """The node tuple as it was once built eagerly, node by node: the
    oracle for the nodes formed from the factors on read."""
    if kind == "zn":
        return tuple((GroupElement.zn(k, bandlimit), 1.0 / bandlimit)
                     for k in range(bandlimit))
    n_ang = 2 * bandlimit + 2
    xs, ws = np.polynomial.legendre.leggauss(bandlimit + 1)
    betas = [math.acos(float(np.clip(x, -1.0, 1.0))) for x in xs]
    nodes = []
    for ia in range(n_ang):
        alpha = 4.0 * math.pi * ia / n_ang
        for beta, wb in zip(betas, ws):
            for ic in range(n_ang):
                gamma = 4.0 * math.pi * ic / n_ang
                w = (wb / 2.0) / (n_ang * n_ang)
                nodes.append((GroupElement.su2(alpha, beta, gamma), w))
    return tuple(nodes)


@pytest.mark.parametrize("kind,bandlimit", [("su2", 0), ("su2", 1),
                                             ("su2", 4), ("su2", 7),
                                             ("zn", 5)])
def test_haar_quadrature_is_the_product_of_its_factors(kind, bandlimit):
    # group averages read the factors in place of the nodes, which are
    # formed from the factors on first read
    if kind == "zn":
        quad = haar_quadrature("zn", 0, modulus=bandlimit)
        product = [((0.0, 0.0, 0.0, k), 1.0 / quad.modulus)
                   for k in range(quad.modulus)]
    else:
        quad = haar_quadrature("su2", bandlimit)
        n = quad.n_angle
        assert n == 2 * bandlimit + 2 and len(quad.betas) == bandlimit + 1
        grid = [4.0 * math.pi * k / n for k in range(n)]
        product = [((alpha, beta, gamma, 0), (1.0 / n) * wb * (1.0 / n))
                   for alpha in grid
                   for beta, wb in zip(quad.betas, quad.beta_weights)
                   for gamma in grid]
    assert "nodes" not in vars(quad)
    assert len(quad.nodes) == len(product)
    for (g, w), (euler, w_product) in zip(quad.nodes, product):
        assert np.abs(np.subtract((g.alpha, g.beta, g.gamma, g.g),
                                  euler)).max() <= 1e-15
        assert abs(w - w_product) <= 1e-15
    assert quad.nodes == _eager_nodes(kind, bandlimit)


def test_zn_rep_matrix_phases():
    rep = RepSpec.zn_charges([0, 1, 3], 4)
    g = GroupElement.zn(1, 4)
    w = np.exp(2j * np.pi / 4)
    expect = np.diag([1.0, w, w ** 3])
    assert np.linalg.norm(rep_matrix(rep, g) - expect) < 1e-14


def _shift_by_loop(N, k):
    # oracle: the shift permutation built entry by entry
    M = np.zeros((N, N), dtype=complex)
    for n in range(N):
        M[(n + k) % N, n] = 1.0
    return M


@pytest.mark.parametrize("N", [1, 2, 3, 5, 16])
def test_link_frame_shift_matches_the_loop_built_permutation(N):
    frame = LinkFrame(N)
    for k in range(-N - 1, 2 * N + 1):
        D = frame.delta_power(k)
        assert D.dtype == complex
        assert np.array_equal(D, _shift_by_loop(N, k))


@pytest.mark.parametrize("N", [2, 5, 16])
def test_link_frame_delta_profile_matches_dense_traces(N):
    frame = LinkFrame(N)
    sigma = RNG.normal(size=(N, N)) + 1j * RNG.normal(size=(N, N))
    dense = [np.trace(frame.delta_power(k) @ sigma) for k in range(N)]
    assert np.abs(frame.delta_profile(sigma) - dense).max() < 1e-14


def test_link_frame_refuses_an_empty_group():
    with pytest.raises(ValueError):
        LinkFrame(0)


def test_build_protocol_refuses_a_one_level_ladder():
    with pytest.raises(ValueError, match="at least 2"):
        build_protocol(np.eye(1), 1)


def test_gauge_links_and_the_ladder_share_one_frame_class():
    assert gauge.LinkFrame is LinkFrame
