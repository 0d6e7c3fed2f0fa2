"""Gauging a global Z_N symmetry of a bipartite/lattice process to a local
one via link reference frames.

Each oriented link (x -> y) carries a Hilbert space of dimension N with a
group-element basis |h>, transforming under the local action as
|h> -> |g_x + h - g_y mod N>.  A charge-lambda coupling acts on the link by
left multiplication with L_lambda = sum_h omega^{lambda h} |h><h|, which
carries exactly the covariance phase needed to cancel the transformation of
the matter factors.  Because Z_N x Z_N is finite and generated by (1, 0)
and (0, 1), local invariance is checked exactly on the two generators, and
a gauge-fixed stabilizer by enumerating every element; neither needs
quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .groups import ZN, GroupElement, RepSpec, rep_matrix
from .linalg_core import Superoperator, conjugate, kron
from .process_modes import ProcessModeBasis


# ---------------------------------------------------------------------------
# Link reference frames and couplings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkFrame:
    """Z_N reference frame on an oriented link (source -> target)."""

    N: int
    source: object = "x"
    target: object = "y"

    @property
    def dim(self) -> int:
        return self.N

    def basis_state(self, h: int) -> np.ndarray:
        v = np.zeros(self.N, dtype=complex)
        v[h % self.N] = 1.0
        return v

    def charge_operator(self, lam: int) -> np.ndarray:
        """L_lambda = sum_h omega^{lambda h} |h><h|."""
        w = np.exp(2j * np.pi * (lam % self.N) * np.arange(self.N) / self.N)
        return np.diag(w)


def link_action(frame: LinkFrame, g_x: int, g_y: int) -> np.ndarray:
    """Permutation unitary |h> -> |g_x + h - g_y mod N>."""
    N = frame.N
    P = np.zeros((N, N), dtype=complex)
    for h in range(N):
        P[(g_x + h - g_y) % N, h] = 1.0
    return P


@dataclass(frozen=True)
class GaugeCoupling:
    """Charge-lambda link coupling: the (non-CP, building-block)
    superoperator A_lambda(sigma) = L_lambda sigma."""

    frame: LinkFrame
    lam: int

    @property
    def superop(self) -> Superoperator:
        L = self.frame.charge_operator(self.lam)
        N = self.frame.N
        # row-major vec: vec(L sigma) = (L kron I) vec(sigma)
        return Superoperator.from_transfer(
            kron(L, np.eye(N)), N, N
        )

    def covariance_phase(self, g_x: int, g_y: int) -> complex:
        """A_lambda picks up omega^{-lambda g_x + lambda g_y} under the
        link action conjugation."""
        N = self.frame.N
        return np.exp(2j * np.pi * self.lam * (g_y - g_x) / N)


def coupling_covariance_defect(c: GaugeCoupling) -> float:
    """Max residual of the exact covariance law over all of Z_N x Z_N."""
    worst = 0.0
    for gx in range(c.frame.N):
        for gy in range(c.frame.N):
            P = link_action(c.frame, gx, gy)
            lhs = conjugate(c.superop, P, P)
            rhs = c.covariance_phase(gx, gy) * c.superop
            worst = max(worst, (lhs - rhs).norm())
    return worst


# ---------------------------------------------------------------------------
# Gauging a 2-symmetric element
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugedProcess:
    """A superoperator on A_x (x) link (x) A_y, locally Z_N x Z_N invariant."""

    rep_x: RepSpec
    rep_y: RepSpec
    frame: LinkFrame
    lam: int
    superop: Superoperator
    invariance_residual: float


def _local_unitary(rep_x: RepSpec, rep_y: RepSpec, frame: LinkFrame,
                   gx: int, gy: int) -> np.ndarray:
    """U_{g_x} (x) U_{(g_x,g_y)} (x) U_{g_y} on A_x (x) link (x) A_y."""
    Ux = rep_matrix(rep_x, GroupElement.zn(gx, frame.N))
    Uy = rep_matrix(rep_y, GroupElement.zn(gy, frame.N))
    return kron(kron(Ux, link_action(frame, gx, gy)), Uy)


def local_invariance_residual(S: Superoperator, rep_x: RepSpec,
                              rep_y: RepSpec, frame: LinkFrame) -> float:
    """Max norm defect of U_{g_x} (x) U_{(g_x,g_y)} (x) U_{g_y} invariance
    over the generators (1, 0) and (0, 1) of Z_N x Z_N.  It is zero exactly
    when S is invariant under the whole group; any other element is a word
    of at most 2(N - 1) generators, so its defect is at most 2(N - 1) times
    this one."""
    return max((conjugate(S, U, U) - S).norm()
               for U in (_local_unitary(rep_x, rep_y, frame, 1, 0),
                         _local_unitary(rep_x, rep_y, frame, 0, 1)))


def gauge_2symmetric(chi: Superoperator, lam: int, frame: LinkFrame,
                     modes_x: ProcessModeBasis,
                     modes_y: ProcessModeBasis,
                     tol: float = 1e-10) -> GaugedProcess:
    """Insert the charge-lambda link coupling into a globally symmetric
    bipartite element chi = sum_j Phi^lam_{x,j} (x) Phi^{lam*}_{y,j},
    producing sum_j Phi^lam_{x,j} (x) A_lam (x) Phi^{lam*}_{y,j} on
    A_x (x) link (x) A_y.  Raises ValueError unless chi carries charge lam at
    x and -lam at y (to tol relative to |chi|); the mode bases give the reps.
    """
    if modes_x.rep_in.kind != ZN or modes_y.rep_in.kind != ZN:
        raise ValueError("gauging is implemented for Z_N reps")
    N = frame.N
    if (modes_x.rep_in.blocks[0][0].modulus != N
            or modes_y.rep_in.blocks[0][0].modulus != N):
        raise ValueError("link modulus must match the matter rep modulus")
    lam = lam % N
    dx, dy = modes_x.rep_in.dim, modes_y.rep_in.dim
    if chi.dim_in != dx * dy or chi.dim_out != dx * dy:
        raise ValueError("element dimension does not match the mode bases")

    # chi has charge lam at x and -lam at y iff conjugating it by the
    # generators U_x(1) and U_y(1) multiplies it by omega^lam and omega^-lam
    omega = np.exp(2j * np.pi * lam / N)
    for gx, gy, phase in ((1, 0, omega), (0, 1, np.conj(omega))):
        U = kron(rep_matrix(modes_x.rep_in, GroupElement.zn(gx, N)),
                 rep_matrix(modes_y.rep_in, GroupElement.zn(gy, N)))
        if (conjugate(chi, U, U) - phase * chi).norm() > tol * chi.norm():
            raise ValueError("element is not globally symmetric with charge "
                             f"{lam} at x and {(-lam) % N} at y")
    # insert the coupling: x (x) y (x) link -> x (x) link (x) y
    perm = np.eye(dx * dy * N).reshape(dx, dy, N, dx * dy * N)
    P = perm.transpose(0, 2, 1, 3).reshape(dx * N * dy, dx * dy * N)
    gauged = conjugate(chi.tensor(GaugeCoupling(frame, lam).superop), P, P)
    res = local_invariance_residual(gauged, modes_x.rep_in, modes_y.rep_in,
                                    frame)
    return GaugedProcess(modes_x.rep_in, modes_y.rep_in, frame, lam,
                         gauged, res)


def degauge_marginal(G: GaugedProcess) -> Superoperator:
    """Trace out the link initialized at |0><0|: the marginal on A_x (x) A_y
    recovers the pre-gauge element (the coupling has unit 0,0 entry)."""
    dx = G.rep_x.dim
    dy = G.rep_y.dim
    N = G.frame.N
    d = dx * N * dy
    T = G.superop.transfer.reshape(dx, N, dy, dx, N, dy,
                                   dx, N, dy, dx, N, dy)
    # input link state |0><0|, trace output link
    out = T[:, :, :, :, :, :, :, 0, :, :, 0, :]
    out = np.einsum("ihjkhlmnpq->ijklmnpq", out)
    return Superoperator.from_transfer(
        out.reshape((dx * dy) ** 2, (dx * dy) ** 2), dx * dy, dx * dy
    )


# ---------------------------------------------------------------------------
# Gauge fixing by pre/post-selection on the link
# ---------------------------------------------------------------------------

def gauge_fix(G: GaugedProcess, h1: int, h2: int) -> Superoperator:
    """Pre-select the link at |h1> and post-select at |h2>:
    E_{h1,h2} = (id (x) Pi_{h2}) o E o (id (x) Pi_{h1})."""
    def link_projector(h):
        v = G.frame.basis_state(h)
        return kron(kron(np.eye(G.rep_x.dim), np.outer(v, v.conj())),
                    np.eye(G.rep_y.dim))
    return conjugate(G.superop, link_projector(h2), link_projector(h1))


def gauge_fix_stabilizer(G: GaugedProcess, h1: int, h2: int,
                         tol: float = 1e-10) -> list:
    """All pairs (g_x, g_y) under which the gauge-fixed element stays
    invariant, found by exact enumeration.  The fixed element transforms as
    E_{h1,h2} -> E_{g_x+h1-g_y, g_x+h2-g_y}, so for h1 = h2 the stabilizer
    is the diagonal {(g, g)}."""
    fixed = gauge_fix(G, h1, h2)
    keep = []
    for gx in range(G.frame.N):
        for gy in range(G.frame.N):
            U = _local_unitary(G.rep_x, G.rep_y, G.frame, gx, gy)
            if (conjugate(fixed, U, U) - fixed).norm() <= tol:
                keep.append((gx, gy))
    return keep


# ---------------------------------------------------------------------------
# Lattice demo: hardcore matter on a small torus with Z_N links
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugedLattice:
    """Hardcore-boson matter on lattice sites coupled to Z_N link frames.

    A product-basis index has one digit per site (its occupation, most
    significant first), then one per link (its group element).  Every lattice
    operator is monomial in that basis and is built from the digit tables."""

    Lx: int
    Ly: int
    N: int
    sites: tuple            # site coordinates (x, y)
    links: tuple            # oriented links ((x1,y1), (x2,y2))
    H_free: np.ndarray      # matter-only Hamiltonian, embedded in full space
    H_gauged: np.ndarray    # hopping dressed with link operators
    gauss_ops: dict         # (site_index, g) -> local symmetry unitary
    wilson_ops: tuple       # plaquette loop operators (both orientations)
    _occ: np.ndarray        # (num sites, dim) site occupations per basis index
    _linkval: np.ndarray    # (num links, dim) link group elements per index
    _incidence: np.ndarray  # (num sites, num links): +1 source, -1 target
    _sector: np.ndarray     # (dim,) charge-sector label per link-Fourier index

    @property
    def dim(self) -> int:
        return 2 ** len(self.sites) * self.N ** len(self.links)

    def _monomial_action(self, charges):
        """The local-group unitary for a charge tuple, as a monomial matrix:
        U |k> = phase[k] |perm[k]>.  Every Gauss unitary is a permutation of
        the product basis times site phases, so products stay monomial."""
        N = self.N
        charges = np.asarray(charges, dtype=int) % N
        expo = charges @ self._occ  # site phase exponents per basis index
        # link (x -> y) shifts by g_x - g_y
        newval = (self._linkval + (charges @ self._incidence)[:, None]) % N
        shape = (2,) * len(self.sites) + (N,) * len(self.links)
        perm = np.ravel_multi_index(tuple(self._occ) + tuple(newval), shape)
        phase = np.exp(2j * np.pi * expo / N)
        return perm, phase

    def local_action(self, charges) -> np.ndarray:
        """Dense unitary of the product of per-site Gauss actions."""
        perm, phase = self._monomial_action(charges)
        U = np.zeros((self.dim, self.dim), dtype=complex)
        U[perm, np.arange(self.dim)] = phase
        return U

    def _conjugate(self, charges, rows, cols, vals):
        """U M U^dag for the local-group unitary U of a charge tuple, without
        forming U: the entries vals of M at (rows, cols) move to (perm[rows],
        perm[cols]) and pick up phase[rows] conj(phase[cols]).  The index
        arrays may broadcast against vals.  Returns (values, positions)."""
        perm, phase = self._monomial_action(charges)
        return (phase[rows] * vals * phase[cols].conj(),
                (perm[rows], perm[cols]))

    def gauss_commutators(self, M: np.ndarray) -> dict:
        """||G M - M G|| for every Gauss unitary G, keyed and ordered as
        ``gauss_ops``.  G is unitary, so this equals ||G M G^dag - M||, which
        the nonzeros of M give without a matrix product."""
        M = sparse.coo_matrix(np.asarray(M, dtype=complex))
        charges = np.eye(len(self.sites), dtype=int)
        out = {}
        for s, g in self.gauss_ops:
            GMG = sparse.coo_matrix(self._conjugate(
                g * charges[s], M.row, M.col, M.data), M.shape)
            out[s, g] = float(np.linalg.norm((GMG - M).data))
        return out

    def twirl(self, rho: np.ndarray) -> np.ndarray:
        """Exact average over the full local group Z_N^{num sites}.

        After a per-link Fourier transform every local unitary is diagonal
        with phase omega^{sum_x g_x q_x}, where the site charge
        q_x = n_x + sum(outgoing link momenta) - sum(incoming link momenta).
        The twirl therefore keeps exactly the matrix elements whose charge
        vectors agree mod N, which is a masked conjugation instead of a sum
        over the whole group (cross-checked against ``twirl_enumerate``).
        """
        T = self._link_dft()
        same = self._sector[:, None] == self._sector[None, :]
        rf = self._link_frame(np.asarray(rho, dtype=complex), T)
        return self._link_frame(rf * same, T.conj().T)

    def twirl_enumerate(self, rho: np.ndarray) -> np.ndarray:
        """Direct group-sum twirl; the oracle for ``twirl``."""
        k = np.arange(self.dim)
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        group = list(np.ndindex((self.N,) * len(self.sites)))
        for charges in group:
            vals, at = self._conjugate(charges, k[:, None], k, rho)
            acc[at] += vals
        return acc / len(group)

    def dynamics_commutation_defects(self, V: np.ndarray, states) -> list:
        """Norms of (V G(rho) V^dag - G(V rho V^dag)) for each state, where
        G is the local twirl.  Computed entirely in the link-Fourier frame.
        States given as 1-D arrays are treated as pure-state vectors: then
        G(|phi><phi|) = sum_q P_q |phi><phi| P_q over the charge sectors q,
        so V G(rho) V^dag = W W^dag with one column V P_q phi per sector."""
        T = self._link_dft()
        Vf = self._link_frame(np.asarray(V, dtype=complex), T)
        same = self._sector[:, None] == self._sector[None, :]
        sectors = np.arange(self.N ** len(self.sites))
        in_sector = self._sector[:, None] == sectors
        out = []
        for s in states:
            s = np.asarray(s, dtype=complex)
            if s.ndim == 1:
                phi = (T @ s.reshape(2 ** len(self.sites), -1, 1)).ravel()
                W = (Vf * phi) @ in_sector
                v = Vf @ phi  # V rho V^dag = |v><v| costs no matrix product
                diff = W @ W.conj().T - same * np.outer(v, v.conj())
            else:
                rf = self._link_frame(s, T)
                diff = (Vf @ (same * rf) @ Vf.conj().T
                        - same * (Vf @ rf @ Vf.conj().T))
            out.append(float(np.linalg.norm(diff)))
        return out

    def _link_dft(self) -> np.ndarray:
        """The N-point DFT on every link, an (N^links)-square matrix.  Row k
        of one link's factor is <k| = N^{-1/2} sum_h w^{kh} <h|, so the shift
        |h> -> |h+s> becomes the phase w^{ks}."""
        N = self.N
        dft = np.exp(2j * np.pi * np.outer(np.arange(N), np.arange(N))
                     / N) / np.sqrt(N)
        T = np.ones((1, 1), dtype=complex)
        for _ in self.links:
            T = kron(T, dft)
        return T

    def _link_frame(self, M: np.ndarray, T: np.ndarray) -> np.ndarray:
        """F M F^dag with F = identity on the sites (x) T on the links.  The
        links are the trailing digits of each index, so this is one product
        with T from each side instead of two with the dim-square F."""
        d, S = self.dim, 2 ** len(self.sites)
        M = (T @ M.reshape(S, -1, d)).reshape(d, d)
        return (M.reshape(d, S, -1) @ T.conj().T).reshape(d, d)


def build_gauged_lattice(Lx: int = 2, Ly: int = 2, N: int = 3) -> GaugedLattice:
    """Assemble the free and gauged hopping Hamiltonians, the per-site
    Gauss-law unitaries, and the plaquette loop operators.

    Sites carry one hardcore mode (a qubit); each oriented link between
    adjacent sites carries a Z_N frame.  Parallel duplicate edges from the
    periodic wrap are deduplicated, so the default 2x2 lattice has 4 sites
    and 4 links forming a single plaquette.
    """
    if Lx < 1 or Ly < 1:
        raise ValueError("lattice sides must be at least 1")
    if Lx * Ly > 4 or N > 4 or N < 2:
        raise ValueError("lattice exceeds the desk-scale guard")
    sites = [(x, y) for y in range(Ly) for x in range(Lx)]
    s_index = {s: i for i, s in enumerate(sites)}
    links = []
    for (x, y) in sites:
        for (dx, dy) in ((1, 0), (0, 1)):
            tgt = ((x + dx) % Lx, (y + dy) % Ly)
            # skip self-loops and the reverse of a link already listed
            if tgt != (x, y) and (tgt, (x, y)) not in links:
                links.append(((x, y), tgt))
    ns, nl = len(sites), len(links)
    dim = 2 ** ns * N ** nl
    if dim > 2 ** 4 * 4 ** 4:
        raise ValueError("total Hilbert dimension exceeds the guard")

    # per-basis-index digit tables (sites most significant, then links)
    shape = (2,) * ns + (N,) * nl
    digits = np.array(np.unravel_index(np.arange(dim), shape))
    occ, linkval = digits[:ns], digits[ns:]
    stride = dim // np.cumprod(shape)
    w = np.diag(LinkFrame(N).charge_operator(1))  # w[h] = omega^h

    H_free = np.diag(occ.sum(axis=0)).astype(complex)
    H_gauged = H_free.copy()
    incidence = np.zeros((ns, nl), dtype=int)
    for li, (src, tgt) in enumerate(links):
        i, j = s_index[src], s_index[tgt]
        incidence[i, li], incidence[j, li] = 1, -1
        # a_i^dag a_j moves the particle from j to i; the gauged copy picks
        # up the link phase omega^h, and the adjoint sits at the transpose
        k = np.flatnonzero((occ[i] == 0) & (occ[j] == 1))
        moved = k + stride[i] - stride[j]
        H_free[moved, k] = H_free[k, moved] = 1.0
        H_gauged[moved, k] = w[linkval[li, k]]
        H_gauged[k, moved] = w[linkval[li, k]].conj()

    # site charges of each link-Fourier index, q = n + incidence @ momenta:
    # the link digits reinterpret directly as momenta
    q = (occ + incidence @ linkval) % N
    sector = np.ravel_multi_index(tuple(q), (N,) * ns)

    lat = GaugedLattice(Lx, Ly, N, tuple(sites), tuple(links), H_free,
                        H_gauged, {}, _wilson_loops(sites, links, linkval, w),
                        occ, linkval, incidence, sector)
    charges = np.eye(ns, dtype=int)
    gauss_ops = {(s, g): lat.local_action(g * charges[s])
                 for s in range(ns) for g in range(1, N)}
    return replace(lat, gauss_ops=gauss_ops)


def _wilson_loops(sites, links, linkval, w):
    """Plaquette loop operators: the product of L over the cycle, with L^{-1}
    on links traversed against their orientation, both orientations.  Each
    is the diagonal omega^(sum of +-h) along the cycle."""
    l_index = {l: i for i, l in enumerate(links)}
    loops = []
    for cyc in _plaquette_cycles(sites, links):
        for seq in (cyc, tuple(reversed(cyc))):
            expo = 0
            for u, v in zip(seq, seq[1:] + seq[:1]):
                if (u, v) in l_index:
                    expo = expo + linkval[l_index[(u, v)]]
                else:
                    expo = expo - linkval[l_index[(v, u)]]
            loops.append(np.diag(w[expo % len(w)]))
    return tuple(loops)


def _plaquette_cycles(sites, links):
    """Elementary 4-cycles of the (undirected) link graph."""
    adj = {s: set() for s in sites}
    for (u, v) in links:
        adj[u].add(v)
        adj[v].add(u)
    found = []
    seen = set()
    for a in sites:
        for b in adj[a]:
            for c in adj[b] - {a}:
                for d in adj[c] - {b}:
                    if d != a and a in adj[d]:
                        key = frozenset((a, b, c, d))
                        if len(key) == 4 and key not in seen:
                            seen.add(key)
                            found.append((a, b, c, d))
    return found


@dataclass(frozen=True)
class FreeStateVerdict:
    is_free: bool
    twirl_distance: float


def free_state_check(lattice: GaugedLattice, rho: np.ndarray,
                     tol: float = 1e-10) -> FreeStateVerdict:
    """Is rho invariant under the exact local-group twirl?  (The dynamics
    check is ``GaugedLattice.dynamics_commutation_defects``.)

    The distance ||rho - twirl(rho)|| is read in the link-Fourier frame,
    where the twirl keeps exactly the same-sector entries: the frame change
    is unitary, so it is the norm of the off-sector entries there."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (lattice.dim, lattice.dim):
        raise ValueError("state dimension mismatch")
    rf = lattice._link_frame(rho, lattice._link_dft())
    sector = lattice._sector
    dist = float(np.linalg.norm(rf[sector[:, None] != sector[None, :]]))
    return FreeStateVerdict(dist <= tol, dist)
