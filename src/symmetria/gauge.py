"""Gauging a global Z_N symmetry of a bipartite/lattice process to a local
one via link reference frames.

Each oriented link (x -> y) carries a Hilbert space of dimension N with a
group-element basis |h>, transforming under the local action as
|h> -> |g_x + h - g_y mod N>.  The charge-lambda coupling
A_lambda(sigma) = L_lambda sigma, with L_lambda = sum_h omega^{lambda h}
|h><h|, carries exactly the covariance phase needed to cancel the
transformation of the matter factors; gauging inserts it between the two
factors by one product.  Every local action is a ``Monomial`` (charges are
phases, link actions are shifts) that moves matrix entries; no dense unitary
is multiplied.  Local invariance is checked exactly on the generators (1, 0)
and (0, 1) of Z_N x Z_N.  Gauge fixing keeps one link block, which every
g_x != g_y moves to other link digits, so the stabilizer is read off that
block alone.  On the lattice the local twirl is a projection whose finest
blocks in the product basis are the gauge orbits, so the twirl checks
gather entries along those orbits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np
from scipy import sparse

from .groups import ZN, LinkFrame, RepSpec
from .linalg_core import Monomial, Superoperator, conjugate, kron
from .process_modes import ProcessModeBasis


@dataclass(frozen=True)
class GaugedProcess:
    """A superoperator on A_x (x) link (x) A_y, locally Z_N x Z_N invariant."""

    rep_x: RepSpec
    rep_y: RepSpec
    frame: LinkFrame
    lam: int
    superop: Superoperator
    invariance_residual: float


def _local_action(rep_x: RepSpec, rep_y: RepSpec, N: int,
                  gx: int, gy: int) -> Monomial:
    """U_{g_x} (x) Delta^{g_x - g_y} (x) U_{g_y} on A_x (x) link (x) A_y
    with the reps in their canonical frames; no link factor for N = 1."""
    a, h, b = np.indices((rep_x.dim, N, rep_y.dim)).reshape(3, -1)
    turns = (gx * rep_x.weights[a] / rep_x.modulus
             + gy * rep_y.weights[b] / rep_y.modulus)
    return Monomial((a * N + (h + gx - gy) % N) * rep_y.dim + b,
                    np.exp(2j * np.pi * turns))


def _canonical(S: Superoperator, rep_x: RepSpec, rep_y: RepSpec,
               N: int = 1) -> Superoperator:
    """S on A_x (x) link (x) A_y (no link for N = 1) in the reps' canonical
    frames, by one dense conjugation if either rep has an intertwiner."""
    if rep_x.intertwiner is None and rep_y.intertwiner is None:
        return S
    W = kron(kron(rep_x.frame.conj().T, np.eye(N)), rep_y.frame.conj().T)
    return conjugate(S, W, W)


def local_invariance_residual(S: Superoperator, rep_x: RepSpec,
                              rep_y: RepSpec, frame: LinkFrame) -> float:
    """Max norm defect of U_{g_x} (x) U_{(g_x,g_y)} (x) U_{g_y} invariance
    over the generators (1, 0) and (0, 1) of Z_N x Z_N.  It is zero exactly
    when S is invariant under the whole group; any other element is a word
    of at most 2(N - 1) generators, so its defect is at most 2(N - 1) times
    this one."""
    K = _canonical(S, rep_x, rep_y, frame.N).transfer
    return max(float(np.linalg.norm(
        _local_action(rep_x, rep_y, frame.N, gx, gy).transfer().conjugate(K)
        - K)) for gx, gy in ((1, 0), (0, 1)))


def gauge_2symmetric(chi: Superoperator, lam: int, frame: LinkFrame,
                     modes_x: ProcessModeBasis,
                     modes_y: ProcessModeBasis) -> GaugedProcess:
    """Insert the charge-lambda link coupling into a globally symmetric
    bipartite element chi = sum_j Phi^lam_{x,j} (x) Phi^{lam*}_{y,j},
    producing sum_j Phi^lam_{x,j} (x) A_lam (x) Phi^{lam*}_{y,j} on
    A_x (x) link (x) A_y, with A_lam(sigma) = L_lam sigma on the link.
    Raises ValueError unless chi carries charge lam at x and -lam at y (to
    1e-10 relative to |chi|); the mode bases give the reps."""
    rep_x, rep_y = modes_x.rep_in, modes_y.rep_in
    if rep_x.kind != ZN or rep_y.kind != ZN:
        raise ValueError("gauging is implemented for Z_N reps")
    N, lam, dx, dy = frame.N, lam % frame.N, rep_x.dim, rep_y.dim
    if rep_x.modulus != N or rep_y.modulus != N:
        raise ValueError("link modulus must match the matter rep modulus")
    if chi.dim_in != dx * dy or chi.dim_out != dx * dy:
        raise ValueError("element dimension does not match the mode bases")
    # chi has charge lam at x and -lam at y iff conjugating it by the
    # generators U_x(1) and U_y(1) multiplies it by omega^lam and omega^-lam
    K = _canonical(chi, rep_x, rep_y).transfer
    omega = np.exp(2j * np.pi * lam / N)
    for gx, gy, phase in ((1, 0, omega), (0, 1, np.conj(omega))):
        U = _local_action(rep_x, rep_y, 1, gx, gy).transfer()
        if np.linalg.norm(U.conjugate(K) - phase * K) > 1e-10 * chi.norm():
            raise ValueError("element is not globally symmetric with charge "
                             f"{lam} at x and {(-lam) % N} at y")
    # insert the coupling: the transfer of sigma -> L_lam sigma on the link
    # is L_lam (x) I, its digits placed between x's and y's on each side
    d = dx * N * dy
    gauged = Superoperator(d, d, np.einsum(
        "abcdefgh,ik,jl->aibcjdekfglh", chi.transfer.reshape((dx, dy) * 4),
        frame.charge_operator(lam), np.eye(N)).reshape(d * d, d * d))
    res = local_invariance_residual(gauged, rep_x, rep_y, frame)
    return GaugedProcess(rep_x, rep_y, frame, lam, gauged, res)


def degauge_marginal(G: GaugedProcess) -> Superoperator:
    """Trace out the link initialized at |0><0|: the marginal on A_x (x) A_y
    recovers the pre-gauge element (the coupling has unit 0,0 entry)."""
    dx, N, dy = G.rep_x.dim, G.frame.N, G.rep_y.dim
    T = G.superop.transfer.reshape((dx, N, dy) * 4)
    # input link state |0><0|, trace output link
    out = np.einsum("ihjkhlmnpq->ijklmnpq", T[:, :, :, :, :, :, :, 0, :, :, 0])
    return Superoperator.from_transfer(
        out.reshape((dx * dy) ** 2, (dx * dy) ** 2), dx * dy, dx * dy)


def gauge_fix(G: GaugedProcess, h1: int, h2: int) -> Superoperator:
    """Pre-select the link at |h1> and post-select at |h2>:
    E_{h1,h2} = (id (x) Pi_{h2}) o E o (id (x) Pi_{h1}), the mask keeping
    the transfer entries with output link digits h2 and input digits h1."""
    N, dims = G.frame.N, (G.rep_x.dim, G.frame.N, G.rep_y.dim)
    at = (np.s_[:], h2 % N, np.s_[:]) * 2 + (np.s_[:], h1 % N, np.s_[:]) * 2
    fixed = np.zeros(dims * 4, dtype=complex)
    fixed[at] = G.superop.transfer.reshape(dims * 4)[at]
    return Superoperator(G.superop.dim_in, G.superop.dim_out,
                         fixed.reshape(G.superop.transfer.shape))


def gauge_fix_stabilizer(G: GaugedProcess, h1: int, h2: int) -> list:
    """All pairs g = (g_x, g_y) that leave the gauge-fixed element invariant
    to 1e-10.  The fixed element is one link block E (output link digits h2,
    input digits h1), and g moves it to the digits (g_x + h2 - g_y,
    g_x + h1 - g_y).  For g_x != g_y those entries are disjoint from E's, so
    the defect is sqrt(2) ||E||; a pair (g, g) leaves the link alone and
    acts on E's matter block by the gather U_g (x) U_g."""
    rep_x, rep_y, N = G.rep_x, G.rep_y, G.frame.N
    d = rep_x.dim * rep_y.dim
    at = (np.s_[:], h2 % N, np.s_[:]) * 2 + (np.s_[:], h1 % N, np.s_[:]) * 2
    E = G.superop.transfer.reshape((rep_x.dim, N, rep_y.dim) * 4)[at]
    K = _canonical(Superoperator(d, d, E.reshape(d * d, d * d)), rep_x,
                   rep_y).transfer
    moved = np.sqrt(2) * np.linalg.norm(K) <= 1e-10
    fixed = [np.linalg.norm(_local_action(rep_x, rep_y, 1, g, g).transfer()
                            .conjugate(K) - K) <= 1e-10 for g in range(N)]
    return [(gx, gy) for gx in range(N) for gy in range(N)
            if (fixed[gx] if gx == gy else moved)]


@dataclass(frozen=True)
class GaugedLattice:
    """Hardcore-boson matter on lattice sites coupled to Z_N link frames.

    A product-basis index has one digit per site (its occupation, most
    significant first), then one per link (its group element).  Every lattice
    operator is monomial in that basis and is held as index structure, with
    sparse forms ``hamiltonian`` and ``wilson_phases``; the dense ``H_free``,
    ``H_gauged``, ``wilson_ops`` and ``gauss_ops`` and the twirl checks'
    gauge-orbit tables are formed at first read."""

    Lx: int
    Ly: int
    N: int
    sites: tuple            # site coordinates (x, y)
    links: tuple            # oriented links ((x1,y1), (x2,y2))
    _occ: np.ndarray        # (num sites, dim) site occupations per basis index
    _linkval: np.ndarray    # (num links, dim) link group elements per index
    _incidence: np.ndarray  # (num sites, num links): +1 source, -1 target
    _number: np.ndarray     # (dim,) the number term's diagonal
    _hops: np.ndarray       # (3, hops): link, k, moved = a_src^dag a_tgt k
    _loops: tuple           # per Wilson loop, its exponent vector mod N

    @property
    def dim(self) -> int:
        return 2 ** len(self.sites) * self.N ** len(self.links)

    @cached_property
    def number_class(self) -> np.ndarray:
        """The number class n mod N of each site block: block a holds the
        indices whose site digits are the bits of a, so n is a's bit count."""
        return self._occ[:, ::self.dim >> len(self.sites)].sum(axis=0) % self.N

    def _monomial_action(self, charges) -> Monomial:
        """The local-group unitary for a charge tuple: link (x -> y) shifts
        by g_x - g_y, and site x contributes the phase omega^(g_x n_x)."""
        N = self.N
        charges = np.asarray(charges, dtype=int) % N
        newval = (self._linkval + (charges @ self._incidence)[:, None]) % N
        shape = (2,) * len(self.sites) + (N,) * len(self.links)
        perm = np.ravel_multi_index(tuple(self._occ) + tuple(newval), shape)
        return Monomial(perm, np.exp(2j * np.pi * (charges @ self._occ) / N))

    @property
    def _gauss_actions(self) -> dict:
        """(site_index, g) -> the Gauss unitary G_s(g) as a ``Monomial``."""
        charges = np.eye(len(self.sites), dtype=int)
        return {(s, g): self._monomial_action(g * charges[s])
                for s in range(len(self.sites)) for g in range(1, self.N)}

    @cached_property
    def gauss_ops(self) -> dict:
        """(site_index, g) -> the dense Gauss unitary G_s(g)."""
        return {key: U.dense() for key, U in self._gauss_actions.items()}

    def hamiltonian(self, gauged: bool = True) -> sparse.coo_matrix:
        """H_gauged (or H_free) as COO: the number diagonal, each hop at
        (moved, k), times omega^h if gauged, its adjoint at (k, moved)."""
        (li, k, moved), n = self._hops, np.arange(self.dim)
        w = LinkFrame(self.N).charge_operator(1).diagonal()  # omega^h
        v = w[self._linkval[li, k]] if gauged else np.ones(len(k))
        return sparse.coo_matrix((np.r_[self._number, v, np.conj(v)],
                                  (np.r_[n, moved, k], np.r_[n, k, moved])),
                                 (self.dim,) * 2, dtype=complex)

    @property
    def wilson_phases(self) -> tuple:
        """The diagonals of ``wilson_ops``: omega^(loop exponent)."""
        w = LinkFrame(self.N).charge_operator(1).diagonal()
        return tuple(w[e] for e in self._loops)

    @cached_property
    def H_free(self) -> np.ndarray:
        """Matter-only hopping plus the number term, dense."""
        return _dense(self.hamiltonian(gauged=False))

    @cached_property
    def H_gauged(self) -> np.ndarray:
        """Hopping dressed with the link operators, dense."""
        return _dense(self.hamiltonian(gauged=True))

    @cached_property
    def wilson_ops(self) -> tuple:
        """The plaquette loop operators (both orientations), dense."""
        return tuple(np.diag(p) for p in self.wilson_phases)

    def gauss_commutators(self, M) -> dict:
        """||G M - M G|| for every Gauss unitary G, keyed and ordered as
        ``gauss_ops``, M dense or sparse.  G is unitary, so this equals
        ||G M G^dag - M||, which M's nonzeros give without a matrix product."""
        M = sparse.coo_matrix(M, dtype=complex)
        out = {}
        for key, U in self._gauss_actions.items():
            GMG = sparse.coo_matrix(U.move(M.row, M.col, M.data), M.shape)
            out[key] = float(np.linalg.norm((GMG - M).data))
        return out

    def twirl(self, rho: np.ndarray) -> np.ndarray:
        """Exact average over the full local group Z_N^{num sites}.  The
        global subgroup (every g_x equal) leaves the links alone and
        multiplies entry (i, j) by omega^(g (n_i - n_j)), so it zeroes the
        entries between total-number classes and fixes those inside one.
        There the twirl averages over the coset representatives, which move
        each entry along a gauge orbit of K entries with the phases v; on an
        orbit it is the rank-one projection x -> v mean(conj(v) x).  One
        gather and one scatter per class, no change of basis."""
        rho = self._density(rho)
        out = np.zeros_like(rho)
        for at, v, x in self._orbit_gathers(rho):
            out.put(at, np.multiply(v, x.mean(axis=0), out=x))
            del x  # freed before the next class's gather
        return out

    def twirl_enumerate(self, rho: np.ndarray) -> np.ndarray:
        """Direct group-sum twirl; the oracle for ``twirl``."""
        rho, ns = np.asarray(rho, dtype=complex), len(self.sites)
        return sum(self._monomial_action(c).conjugate(rho)
                   for c in np.ndindex((self.N,) * ns)) / self.N ** ns

    def dynamics_commutation_defects(self, V: np.ndarray, states) -> list:
        """Norms of (V G(rho) V^dag - G(V rho V^dag)) for each state, where
        G is the local twirl, computed in the product basis.  States given
        as 1-D arrays are treated as pure-state vectors: then
        G(|phi><phi|) = Y Y^dag with one column P_q phi per charge sector q,
        so the difference is D = W W^dag - Y Y^dag with W = V [P_q phi]_q and
        Y = [P_q V phi]_q.  With E = W - Y, D = M C M^dag for M = [Y E] and
        C = [[0, 1], [1, 1]], so ||D||^2 = tr((C M^dag M)^2): no d x d
        product, and each term scales with E, so small defects stay precise."""
        d = self.dim
        V = np.asarray(V, dtype=complex)
        if V.shape != (d, d):
            raise ValueError(f"dynamics V has shape {V.shape}, expected "
                             f"({d}, {d})")
        L = d >> len(self.sites)
        out = []
        for i, s in enumerate(states):
            s = np.asarray(s, dtype=complex)
            if s.shape == (d,):
                phi, psi = self._sector_columns(s), self._sector_columns(V @ s)
                n = sum(cols.shape[1] for _, cols in phi)
                M = np.zeros((d, 2 * n), dtype=complex)  # [Y W], then [Y E]
                Y, E = M[:, :n], M[:, n:]
                at = 0
                for (idx, cols), (_, ycols) in zip(phi, psi):
                    k = cols.shape[1]
                    # V on the class's link blocks only, as column slices
                    for b, start in enumerate(idx[::L]):
                        E[:, at:at + k] += (V[:, start:start + L]
                                            @ cols[b * L:(b + 1) * L])
                    Y[idx, at:at + k] = ycols
                    at += k
                E -= Y
                G = M.conj().T @ M
                CG = np.r_[G[n:], G[:n] + G[n:]]  # by row blocks
                out.append(float(np.sqrt(max((CG * CG.T).sum().real, 0.0))))
            elif s.shape == (d, d):
                out.append(float(np.linalg.norm(
                    V @ self.twirl(s) @ V.conj().T
                    - self.twirl(V @ s @ V.conj().T))))
            else:
                raise ValueError(f"state {i} has shape {s.shape}, expected "
                                 f"({d},) or ({d}, {d})")
        return out

    def _sector_columns(self, phi: np.ndarray) -> list:
        """[P_q phi]_q in the product basis, per number class: (class
        indices, one column per charge sector of the class on those rows).
        On the orbit {perm_h i} of an index i in site block a, the coset
        representative g moves perm_h i to perm_(g+h) i with the phase
        omega^(g . n_a).  So once that phase is taken off, the orbit's
        Fourier component p (the character table E) is the part of phi in
        the class's sector p, the same sector for every orbit."""
        orbit, E, classes = self._orbits
        K, L = len(E), self.dim >> len(self.sites)
        phi = phi.reshape(-1, L)
        out = []
        for idx, blocks, u, _ in classes:
            u = u.T[:, :, None]  # (blocks, K, 1)
            coef = (phi[blocks][:, orbit] * u.conj()).transpose(0, 2, 1) @ E
            cols = np.empty((len(blocks), L, K), dtype=complex)
            cols[:, orbit.ravel()] = (u[..., None] * E.conj()[:, None]
                                      * coef[:, None] / K).reshape(
                                          len(blocks), -1, K)
            out.append((idx, cols.reshape(-1, K)))
        return out

    def _density(self, rho) -> np.ndarray:
        """rho as a C-contiguous complex (dim, dim) array; ValueError naming
        the shape otherwise."""
        rho, d = np.ascontiguousarray(rho, dtype=complex), self.dim
        if rho.shape != (d, d):
            raise ValueError(f"state has shape {rho.shape}, expected "
                             f"({d}, {d})")
        return rho

    def _orbit_gathers(self, rho: np.ndarray):
        """(at, v, conj(v) x) per number class: x is the class's diagonal
        block of rho (C-contiguous) along its gauge orbits (axis 0).  The
        tables are intp, the index type ``take`` reads without a copy, and
        each gather is dropped before the next forms once the caller drops
        it."""
        for _, _, u, at in self._orbits[2]:
            v = (u[:, :, None] * u[:, None].conj())[..., None]
            x = rho.take(at)
            x *= v.conj()
            yield at, v, x
            del x

    @cached_property
    def _orbits(self) -> tuple:
        """Gauge-orbit tables: (orbit, E, classes).  The K = N^(sites - 1)
        coset representatives g of the global subgroup (g = 0 on the first
        site) shift link (x -> y) by g_x - g_y and multiply site block a by
        u[g, a] = omega^(g . n_a).  On a connected lattice only g = 0 fixes a
        link configuration, so the link indices fall into R orbits of K (one
        per holonomy class), the columns of ``orbit`` (K, R), in every site
        block.  E[h, p] = omega^(p . h) is the character table.  Per number
        class: (indices, site blocks, u, at), at (K, blocks, blocks, R L) the
        intp flat positions of its diagonal block along the entry orbits
        (a L + orbit[g, r], b L + perm_g m), which g moves with the phase
        u[g, a] conj(u[g, b])."""
        N, ns, d = self.N, len(self.sites), self.dim
        L = d >> ns
        g = np.array(list(np.ndindex((1,) + (N,) * (ns - 1))))
        actions = [self._monomial_action(c) for c in g]
        shift = np.array([U.perm[:L] for U in actions], dtype=np.intp)
        phase = np.array([U.phase[::L] for U in actions])  # (K, site blocks)
        orbit = shift[:, np.unique(shift.min(axis=0))]
        E = np.exp(2j * np.pi * (g @ g.T % N) / N)
        pairs = (orbit[:, :, None] * d + shift[:, None]).reshape(len(g), -1)
        classes = []
        for c in range(N):
            blocks = np.flatnonzero(self.number_class == c)
            if len(blocks):
                corner = blocks[:, None] * (L * d) + blocks * L
                classes.append(((blocks[:, None] * L + np.arange(L)).ravel(),
                                blocks, phase[:, blocks],
                                corner[:, :, None] + pairs[:, None, None]))
        return orbit, E, tuple(classes)


def build_gauged_lattice(Lx: int = 2, Ly: int = 2, N: int = 3) -> GaugedLattice:
    """The lattice's index structure (digit tables, number term, hops and
    plaquette loop exponents; no d x d array).  Sites carry one hardcore
    mode (a qubit), each oriented link between adjacent sites a Z_N frame.
    Parallel duplicate edges from the periodic wrap are deduplicated, so
    the default 2x2 lattice has 4 sites and 4 links forming one plaquette."""
    if Lx < 1 or Ly < 1:
        raise ValueError("lattice sides must be at least 1")
    if N < 2:
        raise ValueError("lattice link modulus must be at least 2")
    if Lx * Ly > 4 or N > 4:
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

    # per-basis-index digit tables (sites most significant, then links)
    shape = (2,) * ns + (N,) * nl
    digits = np.array(np.unravel_index(np.arange(dim), shape))
    occ, linkval = digits[:ns], digits[ns:]
    stride = dim // np.cumprod(shape)
    incidence = np.zeros((ns, nl), dtype=int)
    hops = [np.zeros((3, 0), dtype=int)]  # a 1x1 lattice has no link
    for li, (src, tgt) in enumerate(links):
        i, j = s_index[src], s_index[tgt]
        incidence[i, li], incidence[j, li] = 1, -1
        # a_i^dag a_j moves the particle from j to i
        k = np.flatnonzero((occ[i] == 0) & (occ[j] == 1))
        hops.append([np.full_like(k, li), k, k + stride[i] - stride[j]])
    # plaquette loops: the product of L over the cycle, L^{-1} on links
    # traversed against their orientation, is the diagonal omega^(sum of +-h)
    l_index = {l: i for i, l in enumerate(links)}
    loops = []
    for cyc in _plaquette_cycles(sites, links):
        expo = sum(linkval[l_index[(u, v)]] if (u, v) in l_index
                   else -linkval[l_index[(v, u)]]
                   for u, v in zip(cyc, cyc[1:] + cyc[:1]))
        loops += [expo % N, -expo % N]  # the reversed cycle's is -expo
    return GaugedLattice(Lx, Ly, N, tuple(sites), tuple(links), occ, linkval,
                         incidence, occ.sum(axis=0), np.hstack(hops),
                         tuple(loops))


def _dense(M: sparse.coo_matrix) -> np.ndarray:
    """M as a complex array: one zeros and one scatter (no duplicates)."""
    out = np.zeros(M.shape, dtype=complex)
    out[M.row, M.col] = M.data
    return out


def _plaquette_cycles(sites, links):
    """Elementary 4-cycles of the (undirected) link graph, each once, as the
    first of its orderings in ``sites`` order."""
    edges, found = {frozenset(l) for l in links}, {}
    for cyc in permutations(sites, 4):
        if all(frozenset(e) in edges for e in zip(cyc, cyc[1:] + cyc[:1])):
            found.setdefault(frozenset(cyc), cyc)
    return list(found.values())


@dataclass(frozen=True)
class FreeStateVerdict:
    is_free: bool
    twirl_distance: float


def free_state_check(lattice: GaugedLattice,
                     rho: np.ndarray) -> FreeStateVerdict:
    """Is rho invariant under the exact local-group twirl, to a distance
    ||rho - twirl(rho)|| of 1e-10?  (The dynamics check is
    ``GaugedLattice.dynamics_commutation_defects``.)  The distance counts the
    entries between two number classes as they stand, since the twirl zeroes
    them, and inside each class the residual conj(v) x - mean(conj(v) x)
    along every gauge orbit.  The squares are summed directly:
    ||rho||^2 - ||twirl(rho)||^2 would cancel to about 1e-10 at rho = I/d."""
    rho = lattice._density(rho)
    # squared norm of every (site block, site block) pair of link blocks
    S = 2 ** len(lattice.sites)
    L = lattice.dim // S
    X = rho.view(float).reshape(S, L, S, 2 * L)
    pairs = np.einsum("aibj,aibj->ab", X, X)
    number = lattice.number_class
    sq = pairs[number[:, None] != number].sum()
    for _, _, x in lattice._orbit_gathers(rho):
        x -= x.mean(axis=0)
        x = x.view(float).ravel()
        sq += x @ x
        del x  # freed before the next class's gather
    dist = float(np.sqrt(sq))
    return FreeStateVerdict(dist <= 1e-10, dist)
