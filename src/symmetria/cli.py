"""Command-line surface for the symmetria library.

Subcommands wrap the library modules: channel files in, diagram-labelled
tables / CSV scans out, every float with 12 significant digits.  Each returns
its lines and its checks, (value, tol) pairs that hold iff value <= tol (a
NaN fails): decompose's and each table row's reconstruction residual,
bipartite FILE's non-invariant residual, each catalytic round's Choi
distance and the X residual, gauge's invariance residual per trial and worst
Gauss commutators with H_gauged and a Wilson loop (catalytic and gauge print
a verdict from them).  Only ``main`` maps checks to exit codes: 0 success, 1
a failed check, 2 parse error (including out-of-range numeric options), 3
semantic error (dimensions, group kind, or any value the library rejects).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain, islice

import numpy as np
from scipy import sparse

from .axial import axial_table, polar_decompose
from .bipartite import (INJECTION, classify, decompose_symmetric,
                        injection_coords, pair_sum, region_scan,
                        two_qubit_catalog, two_qubit_product_rep, twirl_rank)
from .gauge import (build_gauged_lattice, free_state_check, gauge_2symmetric,
                    gauge_fix_stabilizer)
from .groups import LinkFrame, RepSpec
from .linalg_core import Superoperator, check_cptp, choi_of
from .process_modes import build_canonical_modes, check_budget, decompose
from .repeatability import (build_protocol, catalytic_bytes,
                            measure_prepare_form, sequential_use)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3


class ParseError(Exception):
    pass


class SemanticError(Exception):
    pass


# ---------------------------------------------------------------------------
# Formatting: 12 significant digits, deterministic
# ---------------------------------------------------------------------------

# one printf spec per number; the imaginary part carries its own sign
_REAL = "%.12g"
_COMPLEX = "%.12g%+.12gj"


def _format_rows(row: str, values: np.ndarray) -> list:
    """One string per row of the float array values (n, k), formatted by
    the printf row of k fields in one pass.  Adding 0.0 turns -0.0 into 0.0
    (and no nonzero float prints as 0 at 12 significant digits), so no
    number prints as -0; a signalling NaN stays a NaN, without a warning."""
    with np.errstate(invalid="ignore"):
        values = values + 0.0
    if not len(values):
        return []
    return ("\n".join([row] * len(values))
            % tuple(values.ravel().tolist())).split("\n")


def fmt_all(a) -> list:
    """The numbers of a (any shape, real or complex) in C order, each with
    12 significant digits: 1.5, 0, nan, -inf, 1e-05-2j, 0+nanj."""
    a = np.asarray(a)
    if a.dtype.kind == "c":
        return _format_rows(_COMPLEX, a.astype(complex).reshape(-1)
                            .view(float).reshape(-1, 2))
    return _format_rows(_REAL, a.astype(float).reshape(-1, 1))


def fmt(x) -> str:
    return fmt_all(x)[0]


def _fmt_each(groups: list) -> list:
    """fmt_all of each collection of numbers in groups, all in one pass."""
    texts = iter(fmt_all(list(chain.from_iterable(groups))))
    return [list(islice(texts, len(g))) for g in groups]


def convention_block() -> list:
    return [
        "conventions:",
        "  vec order: row-major (C order)",
        "  tensor covariance: column form U T_k U^dag = sum_j D_jk T_j",
        "  Clebsch-Gordan phases: Condon-Shortley",
        "  basis ordering: descending weight within each irrep block",
    ]


def header(command: str, *before: str) -> list:
    """The command line, any lines before the conventions, the conventions."""
    return [f"command: {command}", *before, *convention_block()]


def passed(checks) -> bool:
    """True iff every (value, tol) check holds; a NaN value fails."""
    return all(value <= tol for value, tol in checks)


# ---------------------------------------------------------------------------
# Channel file ingestion
# ---------------------------------------------------------------------------

def _list(value, field: str) -> list:
    if type(value) is not list:
        raise ParseError(f"{field!r} must be a list, got {json.dumps(value)}")
    return value


def _integer(value, field: str) -> int:
    """A JSON integer of at most 64 bits; null, a bool, a float, a string,
    a container or a larger integer is a parse error naming the field."""
    if type(value) is not int or not -2 ** 63 <= value < 2 ** 63:
        raise ParseError(f"{field!r} must be a 64-bit integer, got "
                         f"{json.dumps(value)}")
    return value


_NUMBER_TYPES = (int, float)


def _as_matrix(data, field: str) -> np.ndarray:
    """Nested lists with complex entries as [re, im] pairs of numbers."""
    for row in _list(data, field):
        for c in _list(row, field):
            if (type(c) is not list or len(c) != 2
                    or type(c[0]) not in _NUMBER_TYPES
                    or type(c[1]) not in _NUMBER_TYPES):
                raise ParseError(f"bad matrix payload in {field!r}: an entry "
                                 "is not an [re, im] pair of numbers")
    try:
        pairs = np.array(data, dtype=float)
    except (ValueError, OverflowError) as e:  # ragged rows, a huge integer
        raise ParseError(f"bad matrix payload in {field!r}: {e}")
    # (rows, columns, 2) unless there is no entry at all
    return pairs.view(complex)[..., 0] if pairs.ndim == 3 else pairs + 0j


def _parse_group(desc) -> RepSpec:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ParseError("group descriptor must be an object with 'kind'")
    kind = desc["kind"]
    if kind == "su2":
        if "two_j" not in desc:
            raise ParseError("su2 descriptor needs 'two_j': list of doubled spins")
        return RepSpec.su2_spins([_integer(t, "two_j")
                                  for t in _list(desc["two_j"], "two_j")])
    if kind == "su2-qubits":
        if _integer(desc.get("n", 2), "n") != 2:
            raise SemanticError("only the two-qubit product rep is supported")
        return two_qubit_product_rep()
    if kind == "zn":
        if "charges" not in desc or "modulus" not in desc:
            raise ParseError("zn descriptor needs 'charges' and 'modulus'")
        return RepSpec.zn_charges([_integer(c, "charges")
                                   for c in _list(desc["charges"], "charges")],
                                  _integer(desc["modulus"], "modulus"))
    raise SemanticError(f"unknown group kind {kind!r}")


def load_channel(path: str, allow_nonphysical: bool = False):
    """Parse a ChannelFile into (Superoperator, rep_in, rep_out)."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ParseError(f"cannot read channel file: {e}")
    if not isinstance(data, dict):
        raise ParseError("channel file must be a JSON object")
    for key in ("dim_in", "dim_out", "group"):
        if key not in data:
            raise ParseError(f"channel file missing {key!r}")
    dim_in = _integer(data["dim_in"], "dim_in")
    dim_out = _integer(data["dim_out"], "dim_out")
    rep_in = _parse_group(data["group"])
    # one rep object when the file names one group: the basis build then
    # forms its ITO basis once
    rep_out = (_parse_group(data["group_out"]) if "group_out" in data
               else rep_in)
    if rep_in.dim != dim_in or rep_out.dim != dim_out:
        raise SemanticError(
            f"group dims ({rep_in.dim}, {rep_out.dim}) do not match "
            f"declared dims ({dim_in}, {dim_out})"
        )
    if "kraus" in data:
        kraus = [_as_matrix(K, "kraus") for K in _list(data["kraus"], "kraus")]
        for K in kraus:
            if K.shape != (dim_out, dim_in):
                raise SemanticError("Kraus operator shape mismatch")
        S = choi_of(kraus, dim_in, dim_out)
    elif "choi" in data:
        J = _as_matrix(data["choi"], "choi")
        if J.shape != (dim_in * dim_out, dim_in * dim_out):
            raise SemanticError("Choi matrix shape mismatch")
        S = Superoperator.from_choi(J, dim_in, dim_out)
    else:
        raise ParseError("channel file needs a 'kraus' or 'choi' payload")
    report = check_cptp(S)
    if not report.is_cptp and not allow_nonphysical:
        raise SemanticError(
            f"channel is not CPTP (min Choi eigenvalue "
            f"{fmt(report.min_choi_eigenvalue)}, trace defect "
            f"{fmt(report.trace_defect)}); pass --allow-nonphysical "
            "to proceed"
        )
    return S, rep_in, rep_out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_decompose(args):
    S, rep_in, rep_out = load_channel(args.file, args.allow_nonphysical)
    basis = build_canonical_modes(rep_in, rep_out)
    coeffs = decompose(S, basis)
    out = header(f"decompose {args.file}", f"tolerance: {fmt(args.tol)}")
    out.append("modes:")
    bounds = basis.diagram_rows[0].tolist()
    values = coeffs.values
    starts = bounds[:-1]
    # each diagram's |a| as np.linalg.norm forms it, sqrt(re.re + im.im)
    mags = np.sqrt(np.add.reduceat(values.real ** 2, starts)
                   + np.add.reduceat(values.imag ** 2, starts))
    comps = fmt_all(values)
    for label, mag, start, stop in zip(basis.diagram_labels(),
                                       fmt_all(mags), starts, bounds[1:]):
        out.append(f"  {label}  |a| = {mag}  components: "
                   + " ".join(comps[start:stop]))
    sym = coeffs.is_symmetric(tol=args.tol)
    out.append(f"symmetric: {'yes' if sym else 'no'}")
    out.append(f"reconstruction residual: {fmt(coeffs.residual)}")
    return out, [(coeffs.residual, max(args.tol, 1e-8))]


def cmd_polar(args):
    S, rep_in, rep_out = load_channel(args.file, args.allow_nonphysical)
    basis = build_canonical_modes(rep_in, rep_out)
    pd = polar_decompose(S, basis)
    out = header(f"polar {args.file}")
    out.append(f"orbit point: kind={pd.orbit_point.kind} "
               f"theta={fmt(pd.orbit_point.theta)} "
               f"phi={fmt(pd.orbit_point.phi)}")
    if pd.orbit_point.warning:
        out.append("warning: residual above sphere tolerance; "
                   "orbit may exceed the axial class")
    out.append("invariant amplitudes:")
    items = sorted(pd.invariants.items(), key=lambda kv: str(kv[0]))
    amps = np.array([a for _, a in items], dtype=complex)
    for (diagram, _), a, mag in zip(items, fmt_all(amps),
                                    fmt_all(abs(amps))):
        out.append(f"  {diagram}  a = {a}  |a| = {mag}")
    out.append(f"fit residual: {fmt(pd.fit_residual)}")
    return out, []


def cmd_table(args):
    rows = axial_table(p=args.p, angle=args.angle)
    out = header(f"table p={fmt(args.p)} angle={fmt(args.angle)}")
    # every number of the table in three passes: parameters, amplitudes
    # (complex) and deviations with their maximum and the residual (real)
    params = _fmt_each([row.params.values() for row in rows])
    amps = _fmt_each([row.computed + row.printed for row in rows])
    reals = _fmt_each([row.deviation + (np.max(row.deviation),
                                        row.reconstruction_residual)
                       for row in rows])
    for row, par, amp, real in zip(rows, params, amps, reals):
        k = len(row.computed)
        out.append(f"row: {row.name}  params: "
                   + " ".join(map("=".join, zip(row.params, par))))
        out.append("  computed : " + " ".join(amp[:k]))
        out.append("  published: " + " ".join(amp[k:]))
        out.append("  deviation: " + " ".join(real[:-2])
                   + f"  (max {real[-2]})")
        out.append(f"  reconstruction residual: {real[-1]}")
        if row.note:
            out.append(f"  note: {row.note}")
    worst = np.max([row.reconstruction_residual for row in rows], initial=0.0)
    out.append(f"worst reconstruction residual: {fmt(worst)}")
    return out, [(row.reconstruction_residual, 1e-8) for row in rows]


def cmd_bipartite(args):
    cat = two_qubit_catalog()
    out = header("bipartite" + (f" {args.file}" if args.file else ""))
    out.append(f"invariant space dimension (twirl rank): "
               f"{twirl_rank(cat.basis)}")
    out.append("symmetric basis elements:")
    elements = cat.basis.elements
    norms = fmt_all([el.op.norm() ** 2 for el in elements])
    for el, norm in zip(elements, norms):
        out.append(f"  {el.diagram}  class={classify(el.diagram)}  "
                   f"|chi|^2 = {norm}")
    if args.file:
        S, rep_in, rep_out = load_channel(args.file, args.allow_nonphysical)
        if S.dim_in != 4 or S.dim_out != 4:
            raise SemanticError("bipartite decomposition expects a "
                                "two-qubit (4x4) channel")
        coeffs = decompose_symmetric(S, cat.basis)
        out.append("symmetric-basis coefficients:")
        c = fmt_all([coeffs.values[el.diagram] for el in elements])
        out.extend(f"  {el.diagram}  c = {v}" for el, v in zip(elements, c))
        out.append(f"non-invariant residual: {fmt(coeffs.residual)}")
        return out, [(coeffs.residual, args.tol)]
    return out, []


# Grid points per stacked CPTP solve: enough to amortise the per-call cost,
# few enough that a chunk's (128, 6, 6) stack of zero-weight Choi blocks
# stays at 74 KB.
REGION_CHUNK = 128


def _region_bytes(n: int, columns: int) -> int:
    """Upper bound on what n^3 CSV rows of this many numeric columns hold:
    per row a str header (49 B) and a list slot (8 B), at most 19 characters
    per column, and the same characters again in the joined output."""
    return n ** 3 * (57 + 2 * 19 * columns)


def cmd_region(args):
    n = args.grid
    injection = args.kind == INJECTION
    check_budget(_region_bytes(n, 8 if injection else 5),
                 f"the CSV rows of region --grid {n}")
    out = ["x,y,z,X,Y,Z,min_eig,inside" if injection
           else "x,y,z,min_eig,inside"]
    axis = -1.0 + 2.0 * np.arange(n) / (n - 1) if n > 1 else np.zeros(1)
    row = ",".join([_REAL] * (7 if injection else 4)) + ",%d"
    for start in range(0, n ** 3, REGION_CHUNK):
        p = np.arange(start, min(start + REGION_CHUNK, n ** 3))
        x, y, z = axis[p // (n * n)], axis[p // n % n], axis[p % n]
        rep = region_scan(args.kind, x, y, z)
        cols = ((x, y, z) + (injection_coords(x, y, z) if injection else ())
                + (rep.min_choi_eigenvalue, rep.is_cptp))
        out.extend(_format_rows(row, np.column_stack(cols)))
    return out, []


def _random_state(rng, n: int) -> np.ndarray:
    """B B^dag / tr(B B^dag) for a complex Gaussian B: a random n x n
    density matrix (B is freed on return, before any round runs)."""
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = B @ B.conj().T
    return rho / np.trace(rho)


def cmd_catalytic(args):
    d = args.dim_a
    D = args.ladder
    check_budget(catalytic_bytes(d, D, args.rounds),
                 f"catalytic --dim-a {d} --ladder {D} --rounds {args.rounds}")
    rng = np.random.default_rng(args.seed)
    q, r = np.linalg.qr(rng.normal(size=(d, d))
                        + 1j * rng.normal(size=(d, d)))
    U = q * (np.diag(r) / np.abs(np.diag(r)))
    P = build_protocol(U, D)
    out = header(f"catalytic dim_a={d} ladder={D} rounds={args.rounds} "
                 f"sigma={args.sigma} seed={args.seed}")
    if args.sigma == "frame":
        sigma = P.ladder.frame_projector(0)
    elif args.sigma == "mixed":
        sigma = np.eye(D, dtype=complex) / D
    else:
        sigma = _random_state(rng, D)
    inputs = [_random_state(rng, d) for _ in range(args.rounds)]
    rep = sequential_use(P, sigma, inputs)
    figures = [(rec.choi_distance_to_first, rec.reference_fidelity)
               for rec in rep.rounds]
    for i, (d, f) in enumerate(_fmt_each(figures)):
        out.append(f"round {i + 1}: choi distance to round 1 = {d}  "
                   f"reference overlap = {f}")
    if rep.crosscheck_residual is not None:
        out.append(f"two-round full-tensor cross-check: "
                   f"{fmt(rep.crosscheck_residual)}")
    mp = measure_prepare_form(P)
    out.append(f"measure-prepare X residual: {fmt(mp.max_x_residual)}")
    checks = [(x, 1e-10)
              for x in [d for d, _ in figures] + [mp.max_x_residual]]
    out.append(f"verdict: {'pass' if passed(checks) else 'fail'}")
    return out, checks


def _gauge_bytes(n: int, lat) -> int:
    """Predicted peak bytes of ``gauge --n n`` on the lattice ``lat``: the
    larger of its two stages, plus 1 MiB of small arrays.  The two-site
    stage holds a (4n)^2 x (4n)^2 complex gauged element and the gather of
    its invariance residual; the lattice stage the int64 digit tables, the
    complex maximally mixed state, the intp orbit tables of each number
    class's diagonal block, and the largest class's gather beside its mean
    over the K = N^(sites - 1) orbit positions."""
    sites, L = len(lat.sites), lat.N ** len(lat.links)
    # squared site-block count of each number class n mod N, ascending
    blocks = sorted(c * c for c in np.bincount(lat.number_class).tolist())
    lattice = (8 * (sites + len(lat.links) + 1) * lat.dim + 16 * lat.dim ** 2
               + (8 * sum(blocks) + 16 * blocks[-1]) * L * L
               + 16 * blocks[-1] * L * L // lat.N ** (sites - 1))
    return max(2 * 16 * (4 * n) ** 4, lattice) + (1 << 20)


def cmd_gauge(args):
    rng = np.random.default_rng(args.seed)
    N = args.n
    try:
        Lx, Ly = (int(v) for v in args.lattice.lower().split("x"))
    except ValueError:
        raise ParseError("lattice must look like '2x2'")
    if Lx < 1 or Ly < 1:
        raise ParseError(f"lattice sides must be >= 1, got {args.lattice}")
    # the lattice is index structure only, so it is built (and its guards
    # checked) before the prediction and the two-site trials
    lat = build_gauged_lattice(Lx, Ly, args.lattice_n)
    if N > 0:
        check_budget(_gauge_bytes(N, lat), f"gauge --n {N}")
    out = header(f"gauge n={N} lattice={args.lattice} seed={args.seed}")

    # random 2-symmetric elements, gauged and checked on the generators
    frame = LinkFrame(N)
    rep = RepSpec.zn_charges([0, 1], N)
    basis = build_canonical_modes(rep, rep)
    # modes on the charge-{0, 1} rep carry charges 0, +-1 and +-2 only
    charges = np.unique(basis.lam).tolist()  # reduced mod N
    residuals = []
    for trial in range(args.trials):
        lam = charges[rng.integers(0, len(charges))]
        x, y = (np.flatnonzero(basis.lam == q % N) for q in (lam, -lam))
        # c = normal + 1j normal for each mode pair, x outermost
        c = rng.normal(size=(len(x), len(y), 2)) @ [1.0, 1.0j]
        chi = pair_sum(basis, basis, np.repeat(x, len(y)), np.tile(y, len(x)),
                       c.ravel())
        G = gauge_2symmetric(chi, lam, frame, basis, basis)
        residuals.append(G.invariance_residual)
        if trial == 0:
            stab = gauge_fix_stabilizer(G, 0, 0)
            out.append(f"gauge fix h1=h2=0 stabilizer: {stab}")
        del G  # the byte budget counts one gauged element at a time
    out.append(f"max local-invariance residual over {args.trials} random "
               f"elements: {fmt(np.max(residuals))}")

    # lattice demo
    out.append(f"lattice: {Lx}x{Ly} sites, {len(lat.links)} links, "
               f"Z_{lat.N} frames, dim {lat.dim}")
    # the sparse forms: no dense Hamiltonian or loop is formed
    gauged = lat.gauss_commutators(lat.hamiltonian(gauged=True))
    for (s, g), c in zip(gauged, fmt_all(list(gauged.values()))):
        out.append(f"  [G_{s}({g}), H_gauged] norm: {c}")
    worst_comm = np.max(list(gauged.values()))
    out.append(f"max Gauss commutator with H_gauged: {fmt(worst_comm)}")
    free = lat.gauss_commutators(lat.hamiltonian(gauged=False)).values()
    out.append(f"min Gauss commutator with H_free: {fmt(np.min(list(free)))}")
    wilson = [np.max(list(lat.gauss_commutators(sparse.diags(p)).values()))
              for p in lat.wilson_phases]
    worst_wilson = np.max(wilson, initial=0.0)
    out.append(f"max Gauss commutator with a Wilson loop: {fmt(worst_wilson)}")
    for wi, p in enumerate(lat.wilson_phases):
        ev = np.sort(p.real)  # the loops are diagonal
        out.append(f"wilson op {wi} spectrum (real parts): "
                   + " ".join(fmt_all(ev[:4])) + " ...")
    mixed = np.eye(lat.dim, dtype=complex)
    mixed /= lat.dim
    v = free_state_check(lat, mixed)
    out.append(f"maximally mixed state free: {v.is_free} "
               f"(twirl distance {fmt(v.twirl_distance)})")
    checks = [(x, 1e-10) for x in residuals + [worst_comm, worst_wilson]]
    out.append(f"verdict: {'pass' if passed(checks) else 'fail'}")
    return out, checks


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _at_least(kind, lo):
    """argparse type: a finite number of type kind, >= lo (argparse exits 2
    otherwise)."""
    def parse(text):
        v = kind(text)
        if not lo <= v < np.inf:  # NaN fails every comparison
            raise argparse.ArgumentTypeError(
                f"must be a finite number >= {lo}, got {text}")
        return v
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


@functools.cache  # parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="symmetria",
        description="Process-mode decompositions, polar data, bipartite "
                    "catalogs, catalytic protocols, and lattice gauging.",
    )
    p.add_argument("--seed", type=_at_least(int, 0), default=None,
                   help="RNG seed (default: SYMMETRIA_SEED env var or 0)")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="expand a channel in process modes")
    d.add_argument("file")
    d.add_argument("--tol", type=_at_least(float, 0.0), default=1e-10)
    d.add_argument("--allow-nonphysical", action="store_true")
    d.set_defaults(func=cmd_decompose)

    pl = sub.add_parser("polar", help="orbit-invariant amplitudes + axis")
    pl.add_argument("file")
    pl.add_argument("--allow-nonphysical", action="store_true")
    pl.set_defaults(func=cmd_polar)

    t = sub.add_parser("table", help="single-qubit axial channel table")
    t.add_argument("--p", type=float, default=0.3)
    t.add_argument("--angle", type=float, default=0.7)
    t.set_defaults(func=cmd_table)

    b = sub.add_parser("bipartite", help="two-qubit symmetric catalog")
    b.add_argument("file", nargs="?", default=None)
    b.add_argument("--tol", type=_at_least(float, 0.0), default=1e-10)
    b.add_argument("--allow-nonphysical", action="store_true")
    b.set_defaults(func=cmd_bipartite)

    r = sub.add_parser("region", help="CPTP region scan as CSV")
    r.add_argument("--kind", choices=("injection", "relational"),
                   default="injection")
    r.add_argument("--grid", type=_at_least(int, 1), default=20)
    r.set_defaults(func=cmd_region)

    c = sub.add_parser("catalytic", help="cyclic-ladder protocol report")
    c.add_argument("--dim-a", type=_at_least(int, 1), default=2)
    c.add_argument("--ladder", type=_at_least(int, 2), default=16)
    c.add_argument("--rounds", type=_at_least(int, 1), default=5)
    c.add_argument("--sigma", choices=("frame", "mixed", "random"),
                   default="random")
    c.set_defaults(func=cmd_catalytic)

    g = sub.add_parser("gauge", help="gauging + lattice Gauss/Wilson report")
    g.add_argument("--n", type=int, default=4,
                   help="link modulus for the two-site gauging check")
    g.add_argument("--trials", type=_at_least(int, 1), default=10)
    g.add_argument("--lattice", default="2x2")
    g.add_argument("--lattice-n", type=int, default=3,
                   help="link modulus for the lattice demo")
    g.set_defaults(func=cmd_gauge)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        seed = os.environ.get("SYMMETRIA_SEED", "0")
        try:
            args.seed = _at_least(int, 0)(seed)
        except (ValueError, argparse.ArgumentTypeError):
            parser.error(f"SYMMETRIA_SEED must be an integer >= 0, got {seed!r}")
    try:
        lines, checks = args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (SemanticError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SEMANTIC
    print("\n".join(lines))
    return EXIT_OK if passed(checks) else EXIT_FAIL
