"""Irreducible tensor operator bases: covariance, orthonormality, phases."""

import numpy as np
import pytest

from symmetria.groups import (ZN, GroupElement, IrrepLabel, RepSpec,
                              cg_rows, haar_quadrature, random_su2,
                              rep_matrix, wigner_D)
from symmetria.ito import build_itos, state_mode_project
from symmetria.linalg_core import vec
from symmetria.process_modes import build_canonical_modes

RNG = np.random.default_rng(17)

REPS = [
    RepSpec.su2_spins([1]),
    RepSpec.su2_spins([2]),
    RepSpec.su2_spins([3]),
    RepSpec.su2_spins([0, 2]),
    RepSpec.su2_spins([1, 1]),
]


def _family_stacks(basis):
    """((lam, mult), matrices of the family in descending k) per family."""
    dims = [lam.dim for lam, _ in basis.families]
    return zip(basis.families,
               np.split(basis.matrices, np.cumsum(dims)[:-1]))


def _covariance_defect(basis, g):
    """Column-form law: U T_k U^dag = sum_j D(g)_{jk} T_j, per family."""
    rep = basis.rep
    U = rep_matrix(rep, g)
    worst = 0.0
    for (lam, mult), mats in _family_stacks(basis):
        D = wigner_D(lam, g)
        for c, Tk in enumerate(mats):
            lhs = U @ Tk @ U.conj().T
            rhs = sum(D[r, c] * mats[r] for r in range(len(mats)))
            worst = max(worst, np.linalg.norm(lhs - rhs))
    return worst


@pytest.mark.parametrize("rep", REPS, ids=lambda r: str([b.two_j for b in r.blocks]))
def test_ito_covariance_random_rotations(rep):
    basis = build_itos(rep)
    rng = np.random.default_rng(4)
    for _ in range(10):
        assert _covariance_defect(basis, random_su2(rng)) < 1e-10


def test_ito_covariance_at_quadrature_nodes():
    rep = RepSpec.su2_spins([1, 2])
    basis = build_itos(rep)
    quad = haar_quadrature("su2", 2)
    for g, _w in quad.nodes:
        assert _covariance_defect(basis, g) < 1e-10


@pytest.mark.parametrize("rep", REPS, ids=lambda r: str([b.two_j for b in r.blocks]))
def test_ito_orthonormal_complete(rep):
    basis = build_itos(rep)
    V = basis.matrices.reshape(len(basis.matrices), -1)
    G = V.conj() @ V.T
    assert V.shape[0] == rep.dim ** 2
    assert np.linalg.norm(G - np.eye(rep.dim ** 2)) < 1e-12


def test_ito_phase_convention_highest_weight():
    # first nonzero entry of the highest-k element of each family is real > 0
    for spins in [[t] for t in range(39)] + [[1, 2]]:
        basis = build_itos(RepSpec.su2_spins(spins))
        for (lam, mult), fam in _family_stacks(basis):
            top = fam[0].reshape(-1)
            first = top[np.flatnonzero(np.abs(top) > 1e-12)[0]]
            assert abs(first.imag) < 1e-12 and first.real > 0


def test_zn_itos_are_charge_graded():
    N = 5
    rep = RepSpec.zn_charges([0, 1, 3], N)
    basis = build_itos(rep)
    g = GroupElement.zn(1, N)
    U = rep_matrix(rep, g)
    for (lam, _), T in zip(basis.families, basis.matrices):
        lhs = U @ T @ U.conj().T
        phase = np.exp(2j * np.pi * lam.charge / N)
        assert np.linalg.norm(lhs - phase * T) < 1e-12


def test_state_mode_project_resolves_identity():
    rep = RepSpec.su2_spins([1, 1])
    basis = build_itos(rep)
    rng = np.random.default_rng(1)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    total = np.zeros_like(A)
    for lam in dict.fromkeys(lam for lam, _ in basis.families):
        total = total + state_mode_project(A, basis, lam)
    assert np.linalg.norm(total - A) < 1e-12


def _phase_fixed(mats):
    """Multiply the family by a unit phase so the first nonzero entry of the
    highest-k component (first element) is real positive."""
    top = mats[0]
    flat = top.reshape(-1)
    idx = np.flatnonzero(np.abs(flat) > 1e-12)
    if len(idx) == 0:
        return mats
    ph = flat[idx[0]] / abs(flat[idx[0]])
    return [m / ph for m in mats]


def _oracle_itos(rep):
    """The object-per-element construction the one-array build replaced:
    one dense matrix per element, each family's phase fixed numerically
    from its top component.  Returns [(key, k, matrix)] in basis order."""
    dim = rep.dim
    blocks = list(rep.irrep_blocks())
    elements = []
    for lab2, b2, off2 in blocks:
        for lab1, b1, off1 in blocks:
            if rep.kind == ZN:
                lam = IrrepLabel.zn(lab1.charge - lab2.charge, rep.modulus)
                m = np.zeros((dim, dim), dtype=complex)
                m[off1, off2] = 1.0
                elements.append(((lam, (b2, b1)), 0, m))
                continue
            d1, d2 = lab1.dim, lab2.dim
            for two_lam in range(abs(lab1.two_j - lab2.two_j),
                                 lab1.two_j + lab2.two_j + 2, 2):
                lam = IrrepLabel.su2(two_lam)
                C = cg_rows(lab1.two_j, lab2.two_j, two_lam).reshape(-1, d1,
                                                                     d2)
                C = (C * (-1.0) ** np.arange(d2))[:, :, ::-1]
                mats = []
                for block in C:
                    m = np.zeros((dim, dim), dtype=complex)
                    m[off1:off1 + d1, off2:off2 + d2] = block
                    mats.append(m)
                for two_k, m in zip(lam.components(), _phase_fixed(mats)):
                    elements.append(((lam, (b2, b1)), two_k, m))
    if rep.intertwiner is not None:
        Q = rep.intertwiner
        elements = [(key, k, Q @ m @ Q.conj().T) for key, k, m in elements]
    return elements


def _intertwined_rep():
    rng = np.random.default_rng(45)
    Q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    return RepSpec.su2_spins([1, 2], intertwiner=Q)


ORACLE_REPS = {f"su2[{t}]": (lambda t=t: RepSpec.su2_spins([t]))
               for t in range(39)}
ORACLE_REPS.update({
    f"su2{spins}": (lambda spins=spins: RepSpec.su2_spins(spins))
    for spins in ([0, 2], [1, 1], [1, 1, 1], [2, 2, 2], [3, 1, 0])})
ORACLE_REPS.update({
    "su2[1,2]-intertwined": _intertwined_rep,
    "z5[0,1,3]": lambda: RepSpec.zn_charges([0, 1, 3], 5),
    "z7[0..5]": lambda: RepSpec.zn_charges(range(6), 7),
})


@pytest.mark.parametrize("case", list(ORACLE_REPS))
def test_one_array_build_matches_the_element_oracle(case):
    # the closed-form family sign moves an entry by at most one ulp from
    # the oracle's numerically fixed phase
    rep = ORACLE_REPS[case]()
    basis = build_itos(rep)
    keys, ks, mats = zip(*_oracle_itos(rep))
    assert basis.families == tuple(dict.fromkeys(keys))
    assert basis.k.tolist() == list(ks)
    assert basis.matrices.shape == (rep.dim ** 2, rep.dim, rep.dim)
    assert np.abs(basis.matrices - np.array(mats)).max() <= 2.3e-16


@pytest.mark.parametrize("reps", [
    (RepSpec.su2_spins([2]), RepSpec.su2_spins([1, 1])),
    (RepSpec.su2_spins([1, 1, 1]), RepSpec.su2_spins([3, 1, 0])),
    (_intertwined_rep(), RepSpec.su2_spins([2, 2])),
    (RepSpec.zn_charges([0, 1, 3], 5), RepSpec.zn_charges([2, 4], 5)),
], ids=["su2[2]->su2[1,1]", "su2[1,1,1]->su2[3,1,0]",
        "intertwined->su2[2,2]", "z5[0,1,3]->z5[2,4]"])
def test_mode_basis_factors_match_the_element_oracle(reps):
    # the mode engine reads the ITO array as vec(T) rows (output) and
    # vec(T^T) rows (input)
    rep_in, rep_out = reps
    basis = build_canonical_modes(rep_in, rep_out)
    oracle_out, oracle_in = _oracle_itos(rep_out), _oracle_itos(rep_in)
    assert basis.families == tuple(
        tuple(dict.fromkeys(key for key, _, _ in oracle)) for oracle in
        (oracle_out, oracle_in))
    ito_out = np.array([vec(m) for _, _, m in oracle_out])
    ito_in = np.array([vec(m.T) for _, _, m in oracle_in])
    assert np.abs(basis.ito_out - ito_out).max() <= 2.3e-16
    assert np.abs(basis.ito_in - ito_in).max() <= 2.3e-16
