"""Gauging a global Z_N symmetry of a bipartite/lattice process to a local
one via link reference frames.

Each oriented link (x -> y) carries a Hilbert space of dimension N with a
group-element basis |h>, transforming under the local action as
|h> -> |g_x + h - g_y mod N>.  A charge-lambda coupling acts on the link by
left multiplication with L_lambda = sum_h omega^{lambda h} |h><h|, which
carries exactly the covariance phase needed to cancel the transformation of
the matter factors.  Because Z_N is finite, every invariance statement is
checked by exact enumeration rather than quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .groups import ZN, GroupElement, RepSpec, rep_matrix
from .linalg_core import Superoperator, conjugate
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
            np.kron(L, np.eye(N)), N, N
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
    return np.kron(np.kron(Ux, link_action(frame, gx, gy)), Uy)


def local_invariance_residual(S: Superoperator, rep_x: RepSpec,
                              rep_y: RepSpec, frame: LinkFrame) -> float:
    """Max norm defect of U_{g_x} (x) U_{(g_x,g_y)} (x) U_{g_y} invariance
    over the full exact enumeration of Z_N x Z_N."""
    worst = 0.0
    for gx in range(frame.N):
        for gy in range(frame.N):
            U = _local_unitary(rep_x, rep_y, frame, gx, gy)
            worst = max(worst, (conjugate(S, U, U) - S).norm())
    return worst


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
        U = np.kron(rep_matrix(modes_x.rep_in, GroupElement.zn(gx, N)),
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
        return np.kron(np.kron(np.eye(G.rep_x.dim), np.outer(v, v.conj())),
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

_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # a |1> = |0>
_NUMBER = _LOWER.conj().T @ _LOWER


@dataclass(frozen=True)
class GaugedLattice:
    """Hardcore-boson matter on lattice sites coupled to Z_N link frames."""

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
    _cache: dict = field(default_factory=dict, compare=False)

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
        shift = np.zeros(self._linkval.shape, dtype=int)
        s_index = {s: i for i, s in enumerate(self.sites)}
        for li, (src, tgt) in enumerate(self.links):
            shift[li] = charges[s_index[src]] - charges[s_index[tgt]]
        newval = (self._linkval + shift) % N
        # recompose the basis index from unchanged occupations + new links
        nl = len(self.links)
        base = np.zeros(self.dim, dtype=int)
        for si in range(len(self.sites)):
            base = base * 2 + self._occ[si]
        for li in range(nl):
            base = base * N + newval[li]
        perm = base
        phase = np.exp(2j * np.pi * expo / N)
        return perm, phase

    def local_action(self, charges) -> np.ndarray:
        """Dense unitary of the product of per-site Gauss actions."""
        perm, phase = self._monomial_action(charges)
        U = np.zeros((self.dim, self.dim), dtype=complex)
        U[perm, np.arange(self.dim)] = phase
        return U

    def twirl(self, rho: np.ndarray) -> np.ndarray:
        """Exact average over the full local group Z_N^{num sites}.

        After a per-link Fourier transform every local unitary is diagonal
        with phase omega^{sum_x g_x q_x}, where the site charge
        q_x = n_x + sum(outgoing link momenta) - sum(incoming link momenta).
        The twirl therefore keeps exactly the matrix elements whose charge
        vectors agree mod N, which is a masked conjugation instead of a sum
        over the whole group (cross-checked against ``twirl_enumerate``).
        """
        F, mask = self._fourier_mask()
        return F.conj().T @ ((F @ rho @ F.conj().T) * mask) @ F

    def twirl_enumerate(self, rho: np.ndarray) -> np.ndarray:
        """Direct group-sum twirl; the oracle for ``twirl``."""
        ns = len(self.sites)
        acc = np.zeros_like(rho, dtype=complex)
        for idx in range(self.N ** ns):
            charges = [(idx // self.N ** s) % self.N for s in range(ns)]
            perm, phase = self._monomial_action(charges)
            acc[np.ix_(perm, perm)] += (phase[:, None]
                                        * phase.conj()[None, :]) * rho
        return acc / self.N ** ns

    def dynamics_commutation_defects(self, V: np.ndarray, states) -> list:
        """Norms of (V G(rho) V^dag - G(V rho V^dag)) for each state, where
        G is the local twirl.  Computed entirely in the link-Fourier frame,
        so each state costs a handful of dense products.  States given as
        1-D arrays are treated as pure-state vectors."""
        F, mask = self._fourier_mask()
        Vf = F @ np.asarray(V, dtype=complex) @ F.conj().T
        out = []
        for s in states:
            s = np.asarray(s, dtype=complex)
            if s.ndim == 1:
                phi = F @ s
                rf = np.outer(phi, phi.conj())
                v = Vf @ phi  # V rho V^dag = |v><v| costs no matrix product
                evolved = np.outer(v, v.conj())
            else:
                rf = F @ s @ F.conj().T
                evolved = Vf @ rf @ Vf.conj().T
            lhs = Vf @ (mask * rf) @ Vf.conj().T
            out.append(float(np.linalg.norm(lhs - mask * evolved)))
        return out

    def _fourier_mask(self):
        if "fourier" not in self._cache:
            N, ns, nl = self.N, len(self.sites), len(self.links)
            # row k of the link transform is <k| = N^{-1/2} sum_h w^{kh} <h|,
            # so the shift |h> -> |h+s> becomes the phase w^{ks}
            dft = np.exp(2j * np.pi * np.outer(np.arange(N), np.arange(N))
                         / N) / np.sqrt(N)
            F = np.array([[1.0 + 0j]])
            for f in range(ns + nl):
                F = np.kron(F, np.eye(2) if f < ns else dft)
            # per-basis-index site charges in the link-Fourier basis: the
            # link digit tables reinterpret directly as momenta
            s_index = {s: i for i, s in enumerate(self.sites)}
            q = self._occ.astype(int).copy()
            for li, (src, tgt) in enumerate(self.links):
                q[s_index[src]] += self._linkval[li]
                q[s_index[tgt]] -= self._linkval[li]
            q %= N
            mask = np.all(q[:, :, None] == q[:, None, :], axis=0)
            self._cache["fourier"] = (F, mask.astype(float))
        return self._cache["fourier"]


def _embed(ops: dict, ns: int, nl: int, N: int) -> np.ndarray:
    """Kron an operator dict {factor_index: matrix} into the full space,
    factors ordered sites (qubits) then links (dim N)."""
    out = np.array([[1.0 + 0j]])
    for f in range(ns + nl):
        d = 2 if f < ns else N
        out = np.kron(out, ops.get(f, np.eye(d, dtype=complex)))
    return out


def build_gauged_lattice(Lx: int = 2, Ly: int = 2, N: int = 3) -> GaugedLattice:
    """Assemble the free and gauged hopping Hamiltonians, the per-site
    Gauss-law unitaries, and the plaquette loop operators.

    Sites carry one hardcore mode (a qubit); each oriented link between
    adjacent sites carries a Z_N frame.  Parallel duplicate edges from the
    periodic wrap are deduplicated, so the default 2x2 lattice has 4 sites
    and 4 links forming a single plaquette.
    """
    if Lx * Ly > 4 or N > 4 or N < 2:
        raise ValueError("lattice exceeds the desk-scale guard")
    sites = [(x, y) for y in range(Ly) for x in range(Lx)]
    s_index = {s: i for i, s in enumerate(sites)}
    links = []
    seen_pairs = set()
    for (x, y) in sites:
        for (dx, dy) in ((1, 0), (0, 1)):
            tgt = ((x + dx) % Lx, (y + dy) % Ly)
            if tgt == (x, y):
                continue
            pair = frozenset(((x, y), tgt))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            links.append(((x, y), tgt))
    ns, nl = len(sites), len(links)
    dim = 2 ** ns * N ** nl
    if dim > 2 ** 4 * 4 ** 4:
        raise ValueError("total Hilbert dimension exceeds the guard")
    l_index = {l: ns + i for i, l in enumerate(links)}

    frame = LinkFrame(N)
    L_op = frame.charge_operator(1)

    H_free = np.zeros((dim, dim), dtype=complex)
    H_gauged = np.zeros((dim, dim), dtype=complex)
    adag, a = _LOWER.conj().T, _LOWER
    for s in sites:
        H_free += _embed({s_index[s]: _NUMBER}, ns, nl, N)
        H_gauged += _embed({s_index[s]: _NUMBER}, ns, nl, N)
    for (src, tgt) in links:
        i, j = s_index[src], s_index[tgt]
        hop = (_embed({i: adag, j: a}, ns, nl, N)
               + _embed({i: a, j: adag}, ns, nl, N))
        H_free += hop
        f = l_index[(src, tgt)]
        dressed = _embed({i: adag, f: L_op, j: a}, ns, nl, N)
        H_gauged += dressed + dressed.conj().T

    # per-site Gauss unitaries: phase on the site, shifts on incident links
    gauss_ops = {}
    for s in sites:
        for g in range(1, N):
            ops = {s_index[s]: np.diag(np.exp(2j * np.pi * g
                                              * np.diag(_NUMBER).real / N))}
            for (src, tgt) in links:
                if src == s:
                    ops[l_index[(src, tgt)]] = link_action(frame, g, 0)
                elif tgt == s:
                    ops[l_index[(src, tgt)]] = link_action(frame, 0, g)
            gauss_ops[(s_index[s], g)] = _embed(ops, ns, nl, N)

    wilson_ops = tuple(_wilson_loops(sites, links, l_index, ns, nl, N, L_op))

    # per-basis-index digit tables (sites most significant, then links)
    idx = np.arange(dim)
    occ = np.zeros((ns, dim), dtype=int)
    linkval = np.zeros((nl, dim), dtype=int)
    stride = dim
    for f in range(ns + nl):
        d = 2 if f < ns else N
        stride //= d
        digit = (idx // stride) % d
        if f < ns:
            occ[f] = digit
        else:
            linkval[f - ns] = digit
    return GaugedLattice(Lx, Ly, N, tuple(sites), tuple(links),
                         H_free, H_gauged, gauss_ops, wilson_ops,
                         occ, linkval)


def _wilson_loops(sites, links, l_index, ns, nl, N, L_op):
    """Plaquette loop operators: product of L over the cycle, with L^{-1}
    on links traversed against their orientation; both orientations."""
    link_set = {l: l_index[l] for l in links}
    loops = []
    # find 4-cycles site sequences (elementary plaquettes) on the dedup graph
    cycles = _plaquette_cycles(sites, links)
    Linv = L_op.conj().T
    for cyc in cycles:
        for seq in (cyc, tuple(reversed(cyc))):
            ops = {}
            ok = True
            n = len(seq)
            for i in range(n):
                u, v = seq[i], seq[(i + 1) % n]
                if (u, v) in link_set:
                    f, M = link_set[(u, v)], L_op
                elif (v, u) in link_set:
                    f, M = link_set[(v, u)], Linv
                else:
                    ok = False
                    break
                ops[f] = ops.get(f, np.eye(N, dtype=complex)) @ M
            if ok:
                loops.append(_embed(ops, ns, nl, N))
    return loops


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
    dynamics_defect: float | None  # |E(G(rho)) - G(E(rho))| if E supplied


def free_state_check(lattice: GaugedLattice, rho: np.ndarray,
                     t: float | None = None,
                     tol: float = 1e-10) -> FreeStateVerdict:
    """Is rho invariant under the exact local-group twirl?  If a time t is
    given, also verify the gauged evolution commutes with the twirl."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (lattice.dim, lattice.dim):
        raise ValueError("state dimension mismatch")
    g_rho = lattice.twirl(rho)
    dist = float(np.linalg.norm(rho - g_rho))
    defect = None
    if t is not None:
        U = expm(-1j * t * lattice.H_gauged)
        ev = lambda s: U @ s @ U.conj().T
        defect = float(np.linalg.norm(ev(g_rho) - lattice.twirl(ev(rho))))
    return FreeStateVerdict(dist <= tol, dist, defect)
