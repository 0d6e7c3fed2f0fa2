"""The paper's printed single-qubit process-mode table, as a test oracle.

``single_qubit_modes`` writes the 13 physical qubit modes in their printed
(unnormalised) form and checks them against the canonical basis; the tests
of ``symmetria.axial`` and ``symmetria.process_modes`` read it.
"""

import math

import numpy as np
from scipy import sparse

from symmetria.axial import _ID2, _QUBIT_REP, _SZ, _map_from_terms
from symmetria.process_modes import ProcessModeBasis, build_canonical_modes

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # sigma_+
_SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # sigma_-


def single_qubit_modes() -> ProcessModeBasis:
    """The hand-coded qubit process modes in their printed (unnormalised)
    form, organised by the same diagram labels as the canonical basis.

    Asserts that, after normalisation, they are related to
    ``build_canonical_modes(qubit, qubit)`` by a unitary change of basis.
    """
    canon = build_canonical_modes(_QUBIT_REP, _QUBIT_REP)
    spans = {
        (d.a_in[0].two_j, d.a_out[0].two_j, d.lam.two_j): span
        for d, span in canon.spans.items()
    }
    r = 1.0 / (2.0 * math.sqrt(2.0))
    listed = []  # (state-mode triple, k doubled, (A, B) term list)
    listed.append(((0, 0, 0), 0, [(_ID2 / 2, _ID2)]))
    # rho -> rho - tr(rho) 1/2, the identity written as sum_ij E_ij tr(E_ji rho)
    listed.append(((2, 2, 0), 0, [(E, E.T) for E in np.eye(4).reshape(4, 2, 2)]
                   + [(-_ID2 / 2, _ID2)]))
    for k, s in ((2, _SP), (0, _SZ), (-2, _SM)):
        listed.append(((0, 2, 2), k, [(s, _ID2)]))
    listed.append(((2, 2, 2), 2, [(-r * _SM, _SZ), (r * _SZ, _SM)]))
    listed.append(((2, 2, 2), 0, [(1j * r * _SX, _SY), (-1j * r * _SY, _SX)]))
    listed.append(((2, 2, 2), -2, [(-r * _SP, _SZ), (r * _SZ, _SP)]))
    quad = {
        4: [(0.5 * _SM, _SM)],
        2: [(r * _SM, _SZ), (r * _SZ, _SM)],
        0: [(_SX / (4 * math.sqrt(6)), _SX), (_SY / (4 * math.sqrt(6)), _SY),
            (-_SZ / (2 * math.sqrt(6)), _SZ)],
        -2: [(-r * _SP, _SZ), (-r * _SZ, _SP)],
        -4: [(0.5 * _SP, _SP)],
    }
    for k, terms in quad.items():
        listed.append(((2, 2, 4), k, terms))

    # each printed mode's coupling row: its coordinates over the canonical
    # (output ITO, input ITO) pairs, conj(A) K B^dag for the unitary A, B
    A, B = canon.ito_out, canon.ito_in
    coupling = np.array([
        (A.conj() @ _map_from_terms(terms).transfer @ B.conj().T).reshape(-1)
        for *_, terms in listed])
    first = [spans[triple].start for triple, _, _ in listed]
    printed = ProcessModeBasis(
        _QUBIT_REP, _QUBIT_REP, canon.pair[first],
        canon.lam[first], np.array([k for _, k, _ in listed], dtype=np.int32),
        A, B, sparse.csr_matrix(coupling))

    # The printed catalog omits the unphysical (a=1 -> a~=0, lam=1) diagram,
    # so it spans the 13-dimensional physical subspace: check a unitary
    # change of basis against the canonical modes minus that diagram.  Both
    # bases share the unitary A (x) B, so their couplings show it.
    P = coupling / np.linalg.norm(coupling, axis=1, keepdims=True)
    C = np.delete(canon.coupling.toarray(), spans[(2, 0, 2)], axis=0)
    V = P.conj() @ C.T
    assert np.linalg.norm(V @ V.conj().T - np.eye(len(P))) < 1e-10
    return printed
