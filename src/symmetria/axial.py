"""Spherical harmonics on S^2, polar decomposition of axial processes into
invariant amplitudes plus an orbit point, and the single-qubit axial catalog.

An axial process (one with a residual U(1) symmetry about an axis n) has mode
coefficients that are unnormalised spherical-harmonic wavefunctions of the
axis:

    alpha_{lam,k}(theta, phi) = a_lam (-1)^k Y_{lam,-k}(theta, phi)

with one complex amplitude a_lam per diagram family, constant along the whole
group orbit of the process.  ``polar_decompose`` extracts the amplitudes and
the orbit point; ``axial_table`` catalogs five standard single-qubit channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import sparse

from .groups import (SU2, GroupElement, IrrepLabel, RepSpec, cg_rows,
                     dual_sign_permutation, wigner_D)
from .linalg_core import (Superoperator, choi_of, depolarizing_channel, kron,
                          unitary_channel, vec)
from .process_modes import (ModeCoefficients, ProcessModeBasis,
                            _mode_values, build_canonical_modes, decompose)

POINT = "point"          # symmetric process: orbit is a single point
SPHERE = "sphere"        # axial process: orbit is S^2, point (theta, phi)
FULL_GROUP = "full_group"  # trivial stabilizer: orbit is the whole group

SYM_TOL = 1e-10     # relative non-trivial weight below which S is symmetric
SPHERE_TOL = 1e-6   # relative axial-fit residual above which S is not axial


def sph_harm(two_j: int, two_m: int, theta: float, phi: float) -> complex:
    """Orthonormal spherical harmonic Y_{j,m}(theta, phi), Condon-Shortley.

    Indices are doubled (``two_j = 2j``); only integer j is defined on the
    sphere, so odd ``two_j`` raises.
    """
    if two_j % 2 != 0 or two_m % 2 != 0:
        raise ValueError("spherical harmonics exist for integer j, m only")
    j, m = two_j // 2, two_m // 2
    if abs(m) > j:
        raise ValueError(f"|m|={abs(m)} exceeds j={j}")
    return complex(np.conj(_harmonic_vector(two_j, theta, phi)[j - m]))


def _harmonic_vector(two_lam: int, theta: float, phi: float) -> np.ndarray:
    """The covariant coefficient pattern (-1)^k Y_{lam,-k} = conj(Y_{lam,k})
    for k descending: sqrt((2 lam + 1)/(4 pi)) times the k = 0 column of
    D^lam(phi, theta, 0), so its squared norm is (2 lam + 1)/(4 pi).
    """
    if two_lam % 2 != 0:
        raise ValueError("spherical harmonics exist for integer j, m only")
    D = wigner_D(IrrepLabel.su2(two_lam), GroupElement.su2(phi, theta, 0.0))
    return math.sqrt((two_lam + 1) / (4.0 * math.pi)) * D[:, two_lam // 2]


# rows map a Cartesian vector n to its lam = 1 pattern (k = +1, 0, -1)
_U = np.array([[-1.0, 1.0j, 0.0], [0.0, 0.0, math.sqrt(2.0)],
               [1.0, 1.0j, 0.0]]) / math.sqrt(2.0)


@lru_cache(maxsize=None)
def _axis_map(two_lam: int) -> np.ndarray:
    """The (9, (2 lam + 1)^2) matrix taking alpha (x) conj(alpha) to the
    row-major tensor of ``_axis_tensor``.  Cached and shared: do not modify.
    """
    if two_lam % 2 != 0:  # no harmonic pattern, and <lam 0; lam 0 | 2 0> = 0
        raise ValueError("spherical harmonics exist for integer j, m only")
    lam = IrrepLabel.su2(two_lam)
    # the J = 2 rows of each CG block, M descending; the second factor of
    # alpha (x) conj(alpha) is taken to beta by Y^T; the norm
    # <lam 0; lam 0 | 2 0> is the J = 2, M = 0 row at column (lam, lam)
    dim = two_lam + 1
    rows, to_matrix = (cg_rows(t, t, 4) for t in (two_lam, 2))
    couple = (rows.reshape(5, dim, dim)
              @ dual_sign_permutation(lam).T).reshape(5, dim * dim)
    norm = (-1) ** (two_lam // 2) * rows[2, two_lam // 2 * (dim + 1)]
    M = kron(_U.conj().T, _U.conj().T) @ to_matrix.T @ couple / norm
    M.setflags(write=False)
    return M


def _axis_tensor(alpha: np.ndarray, two_lam: int) -> np.ndarray:
    """Real symmetric 3x3 tensor of a lam >= 1 coefficient family.

    alpha is coupled at spin 2 with its dual conjugate beta = Y^T conj(alpha)
    (Y from ``dual_sign_permutation``), which transforms like alpha; the five
    components are read as a matrix X in the lam = 1 pattern basis and
    taken to Cartesian axes, Re(U^dag X conj(U)).  Rotating alpha by D^lam(g)
    rotates the tensor by R(g).  An axial family a * _harmonic_vector(n)
    couples to (-1)^lam <lam 0; lam 0 | 2 0> times a positive multiple of
    n n^T - 1/3; that factor, nonzero for every lam >= 1, is divided out, so
    n is the top eigenvector.
    """
    T = _axis_map(two_lam) @ (alpha[:, None] * alpha.conj()).ravel()
    return T.real.reshape(3, 3)


@dataclass(frozen=True)
class OrbitPoint:
    """Where a process sits on its orbit.

    ``kind`` is POINT (symmetric), SPHERE (axial, axis at (theta, phi)) or
    FULL_GROUP (trivial stabilizer; ``g`` = su2(phi, theta, 0) at the
    tensor axis and ``warning`` is set because no sphere model applies).
    """

    kind: str
    theta: float = 0.0
    phi: float = 0.0
    g: GroupElement | None = None
    warning: bool = False

    def __post_init__(self):
        if self.kind == SPHERE:
            assert 0.0 <= self.theta <= math.pi
            assert 0.0 <= self.phi < 2 * math.pi


@dataclass(frozen=True)
class PolarData:
    """Invariant amplitudes a_lam per diagram family plus the orbit point.

    ``invariants`` maps each Diagram to its complex amplitude; the modulus of
    every amplitude is constant along the orbit of the process.
    ``fit_residual`` is the norm of the part of the coefficient vector not
    explained by the axial model.
    """

    invariants: dict = field(default_factory=dict)  # Diagram -> complex
    orbit_point: OrbitPoint = OrbitPoint(POINT)
    fit_residual: float = 0.0


def _family_coeffs(values: np.ndarray, basis: ProcessModeBasis):
    """Per-diagram coefficient vectors (k descending), split by triviality."""
    trivial, vector = [], []
    for d, span in basis.spans.items():
        alpha = values[span]
        if d.lam.is_trivial:
            trivial.append((d, alpha))
        else:
            vector.append((d, alpha))
    return trivial, vector


def polar_decompose(S: Superoperator, basis: ProcessModeBasis) -> PolarData:
    """Split a process into invariant amplitudes and an orbit point.

    Symmetric processes return a POINT orbit with the trivial-family
    amplitudes only.  Axial processes return a SPHERE point with one
    amplitude per diagram and a small ``fit_residual``.  A process whose
    coefficients do not fit the sphere model (trivial stabilizer) is
    reported as FULL_GROUP, at the same tensor axis, with a warning flag.
    """
    if basis.rep_in.kind != SU2:
        raise ValueError("polar decomposition over the sphere requires SU(2)")
    # the coefficients alone: decompose's residual is never read here
    trivial, vector = _family_coeffs(_mode_values(S.transfer, basis), basis)
    scale = max(1.0, S.norm())

    # a lam = 0 family is one coefficient, a_0 Y_00 with Y_00 = 1/sqrt(4 pi)
    invariants = {
        d: complex(a[0]) * math.sqrt(4.0 * math.pi) for d, a in trivial
    }
    weights = [float(np.vdot(a, a).real) for _, a in vector]
    asym = math.sqrt(sum(weights))
    if asym <= SYM_TOL * scale:
        return PolarData(invariants, OrbitPoint(POINT), asym)

    # Axis: the top eigenvector of the dominant family's tensor, in the
    # upper hemisphere (on the equator n_x > 0, then n_y > 0)
    d, alpha = vector[weights.index(max(weights))]
    n = np.linalg.eigh(_axis_tensor(alpha, d.lam.two_j))[1][:, 2]
    if n[2] < 0 or (n[2] == 0 and (n[0] < 0 or (n[0] == 0 and n[1] < 0))):
        n = -n
    theta = math.acos(min(1.0, max(-1.0, n[2])))
    phi = math.atan2(n[1], n[0]) % (2 * math.pi)

    residual2 = 0.0
    harmonics = {}
    for d, alpha in vector:
        two = d.lam.two_j
        if two not in harmonics:
            harmonics[two] = _harmonic_vector(two, theta, phi)
        y = harmonics[two]
        a = complex(np.vdot(y, alpha)) * (4.0 * math.pi / (two + 1))
        invariants[d] = a
        r = alpha - a * y
        residual2 += float(np.vdot(r, r).real)
    fit_residual = math.sqrt(residual2)

    if fit_residual > SPHERE_TOL * scale:
        g = GroupElement.su2(phi, theta, 0.0)
        return PolarData(
            invariants, OrbitPoint(FULL_GROUP, theta, phi, g=g, warning=True),
            fit_residual,
        )
    return PolarData(invariants, OrbitPoint(SPHERE, theta, phi), fit_residual)


# ---------------------------------------------------------------------------
# single-qubit axial catalog
# ---------------------------------------------------------------------------

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # sigma_+
_SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # sigma_-
_ID2 = np.eye(2, dtype=complex)


def _map_from_terms(terms) -> Superoperator:
    """Superoperator rho -> sum_i A_i tr(B_i rho) from (A_i, B_i) pairs."""
    K = np.zeros((4, 4), dtype=complex)
    for A, B in terms:
        K += np.outer(vec(np.asarray(A, dtype=complex)),
                      vec(np.asarray(B, dtype=complex).T))
    return Superoperator.from_transfer(K, 2, 2)


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


_QUBIT_REP = RepSpec.su2_spins([1])


@dataclass(frozen=True)
class TableRow:
    """One channel of the axial catalog.

    ``computed`` holds the oracle amplitudes (a0, a1_inj, a1, a2) in the
    table's convention; ``printed`` the values as published; ``deviation``
    the per-entry absolute difference; ``note`` documents resolved typos and
    genuine discrepancies.
    """

    name: str
    params: dict
    channel: Superoperator
    computed: tuple
    printed: tuple
    deviation: tuple
    reconstruction_residual: float
    note: str = ""


# Frozen per-slot scale factors mapping our orthonormal-mode amplitudes at
# the pole to the published convention.  Documented by the anchor rows:
# rotation and projective measurement fix s0, s1, s2; state preparation
# fixes s1_inj.
_SLOT_SCALES = (1.0, -1.0, 1.0, math.sqrt(1.5))

_SLOT_KEYS = ((2, 2, 0), (0, 2, 2), (2, 2, 2), (2, 2, 4))


def _slot_amplitudes(coeffs: ModeCoefficients) -> tuple:
    """Oracle (a0, a1_inj, a1, a2) in the published convention.

    Reads the k=0 coefficient of each slot's diagram family from the mode
    decomposition of a z-axial channel, scaled by the frozen per-slot factors.
    """
    lookup = {
        (d.a_in[0].two_j, d.a_out[0].two_j, d.lam.two_j): coeffs.by_diagram(d)
        for d in coeffs.basis.diagrams()
    }
    out = []
    for key, s in zip(_SLOT_KEYS, _SLOT_SCALES):
        alpha = lookup[key]
        out.append(s * complex(alpha[len(alpha) // 2]))  # k = 0 entry
    return tuple(out)


def dephasing_channel(p: float) -> Superoperator:
    """rho -> p rho + (1-p) sum_k Pi_k rho Pi_k about the z axis."""
    pi0 = np.diag([1.0, 0.0]).astype(complex)
    pi1 = np.diag([0.0, 1.0]).astype(complex)
    return choi_of(
        [math.sqrt(p) * _ID2, math.sqrt(1 - p) * pi0, math.sqrt(1 - p) * pi1],
        2, 2,
    )


def projective_measurement_channel() -> Superoperator:
    """rho -> sum_k Pi_k tr(Pi_k rho) for the z-basis projectors."""
    pi0 = np.diag([1.0, 0.0]).astype(complex)
    pi1 = np.diag([0.0, 1.0]).astype(complex)
    return choi_of([pi0, pi1], 2, 2)


def rotation_channel(angle: float) -> Superoperator:
    """Conjugation by exp(i angle/2 sigma_z)."""
    U = np.diag([np.exp(0.5j * angle), np.exp(-0.5j * angle)])
    return unitary_channel(U)


def state_preparation_channel(p: float) -> Superoperator:
    """rho -> tr(rho) (1 + p sigma_z)/2."""
    out = (_ID2 + p * _SZ) / 2
    return _map_from_terms([(out, _ID2)])


def depolarizing_qubit(p: float) -> Superoperator:
    """rho -> p rho + (1-p) tr(rho) 1/2."""
    return depolarizing_channel(p, 2)


def axial_table(p: float = 0.3, angle: float = 0.7) -> list[TableRow]:
    """The five-channel single-qubit axial catalog.

    Each row builds the channel about the z axis, decomposes it once, and
    reports from that decomposition the oracle amplitudes (a0, a1_inj, a1,
    a2) next to the published values and the reconstruction residual.
    Published-value typos and discrepancies are resolved in the row notes;
    the decomposition itself is always the authority.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle}")
    basis = build_canonical_modes(_QUBIT_REP, _QUBIT_REP)
    s = math.sin(angle)
    c = math.cos(angle)
    rows_def = [
        (
            "dephasing",
            {"p": p},
            dephasing_channel(p),
            ((2 * p - 1) / math.sqrt(3.0), 0.0, 1 - p, 0.0),
            "published a0=(2p-1)/sqrt3 and a1=1-p disagree with the "
            "decomposition: the channel has no spin-1 part at all and its "
            "amplitudes are a0=-(2p+1)/sqrt3 and a2=1-p; the 1-p weight "
            "belongs in the a2 slot.",
        ),
        (
            "projective measurement",
            {},
            projective_measurement_channel(),
            (-1 / math.sqrt(3.0), 0.0, 0.0, 1.0),
            "published as a 5-tuple (-1/sqrt3,0,0,1,0) against a 4-entry "
            "header; resolved by dropping the trailing 0, which matches the "
            "decomposition (and equals dephasing at p=0).",
        ),
        (
            "rotation about z",
            {"angle": angle},
            rotation_channel(angle),
            (-(1 + 2 * c) / math.sqrt(3.0),
             0.0,
             -1j * math.sqrt(2.0) * 2.0 * s * c,  # sin(2 angle)
             2.0 * s * s),
            "published row mixes angle conventions: a0 uses the half-angle "
            "unitary exp(i phi/2 sigma_z) while a1, a2 are printed for the "
            "doubled angle.  In a single convention the decomposition gives "
            "a1=-i sqrt2 sin(phi), a2=2 sin^2(phi/2)=1-cos(phi).",
        ),
        (
            "state preparation",
            {"p": p},
            state_preparation_channel(p),
            (0.0, p, 0.0, 0.0),
            "",
        ),
        (
            "depolarizing",
            {"p": p},
            depolarizing_qubit(p),
            ((1 - 4 * p) / math.sqrt(3.0), 0.0, 0.0, 0.0),
            "published a0=(1-4p)/sqrt3 disagrees with the decomposition, "
            "which gives a0=-sqrt3 p (zero for the completely depolarizing "
            "channel, -sqrt3 for the identity).",
        ),
    ]
    rows = []
    for name, params, chan, printed, note in rows_def:
        coeffs = decompose(chan, basis)
        computed = _slot_amplitudes(coeffs)
        rows.append(
            TableRow(
                name=name,
                params=params,
                channel=chan,
                computed=computed,
                printed=tuple(complex(v) for v in printed),
                deviation=tuple(
                    abs(cv - pv) for cv, pv in zip(computed, printed)
                ),
                reconstruction_residual=coeffs.residual,
                note=note,
            )
        )
    return rows
