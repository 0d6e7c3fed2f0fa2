"""Command-line surface for the symmetria library.

Subcommands wrap the library modules with deterministic, reproducible
reports: channel files in, diagram-labelled tables / CSV scans out.  All
floats are printed with 12 significant digits so identical invocations
produce byte-identical output.

Exit codes: 0 success, 1 assertion/test failure (a residual above
tolerance), 2 parse error (including out-of-range numeric options), 3
semantic error (dimensions, group kind, or any value the library rejects).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .axial import axial_table, polar_decompose
from .bipartite import (classify, decompose_symmetric, injection_coords,
                        injection_channel, swap_invariant_relational,
                        two_qubit_catalog, twirl_rank)
from .gauge import (LinkFrame, build_gauged_lattice, free_state_check,
                    gauge_2symmetric, gauge_fix_stabilizer)
from .groups import RepSpec, cg_block, IrrepLabel
from .linalg_core import Superoperator, check_cptp, choi_of
from .process_modes import build_canonical_modes, decompose
from .repeatability import (FrameState, build_protocol,
                            check_crosscheck_size, measure_prepare_form,
                            sequential_use)

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

def fmt(x) -> str:
    if isinstance(x, complex) or (isinstance(x, np.generic)
                                  and np.iscomplexobj(x)):
        x = complex(x)
        re, im = f"{x.real:.12g}", f"{x.imag:.12g}"
        # normalise negative zeros for byte-stable output
        re = "0" if re == "-0" else re
        im = "0" if im == "-0" else im
        sign = "+" if not im.startswith("-") else ""
        return f"{re}{sign}{im}j"
    v = f"{float(x):.12g}"
    return "0" if v == "-0" else v


def convention_block() -> list:
    return [
        "conventions:",
        "  vec order: row-major (C order)",
        "  tensor covariance: column form U T_k U^dag = sum_j D_jk T_j",
        "  Clebsch-Gordan phases: Condon-Shortley",
        "  basis ordering: descending weight within each irrep block",
    ]


# ---------------------------------------------------------------------------
# Channel file ingestion
# ---------------------------------------------------------------------------

def _as_matrix(data) -> np.ndarray:
    """Nested lists with complex entries as [re, im] pairs."""
    try:
        arr = np.array(
            [[complex(c[0], c[1]) for c in row] for row in data],
            dtype=complex,
        )
    except (TypeError, IndexError, ValueError) as e:
        raise ParseError(f"bad matrix payload: {e}")
    return arr


def _parse_group(desc) -> RepSpec:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ParseError("group descriptor must be an object with 'kind'")
    kind = desc["kind"]
    if kind == "su2":
        if "two_j" not in desc:
            raise ParseError("su2 descriptor needs 'two_j': list of doubled spins")
        return RepSpec.su2_spins([int(t) for t in desc["two_j"]])
    if kind == "su2-qubits":
        n = int(desc.get("n", 2))
        if n != 2:
            raise SemanticError("only the two-qubit product rep is supported")
        return two_qubit_product_rep()
    if kind == "zn":
        if "charges" not in desc or "modulus" not in desc:
            raise ParseError("zn descriptor needs 'charges' and 'modulus'")
        return RepSpec.zn_charges([int(c) for c in desc["charges"]],
                                  int(desc["modulus"]))
    raise SemanticError(f"unknown group kind {kind!r}")


def two_qubit_product_rep() -> RepSpec:
    """Spin-0 + spin-1 blocks conjugated onto the qubit (x) qubit product
    basis by the Clebsch-Gordan intertwiner, so rep_matrix = U (x) U."""
    # rows of the block: coupled (J, M) = (0, 0), (1, 1), (1, 0), (1, -1);
    # columns: product (m1, m2) descending, as the qubit (x) qubit basis
    Q = cg_block(1, 1).toarray().T.astype(complex)
    return RepSpec(
        "su2",
        ((IrrepLabel.su2(0), 1), (IrrepLabel.su2(2), 1)),
        intertwiner=Q,
    )


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
    dim_in, dim_out = int(data["dim_in"]), int(data["dim_out"])
    rep_in = _parse_group(data["group"])
    rep_out = _parse_group(data.get("group_out", data["group"]))
    if rep_in.dim != dim_in or rep_out.dim != dim_out:
        raise SemanticError(
            f"group dims ({rep_in.dim}, {rep_out.dim}) do not match "
            f"declared dims ({dim_in}, {dim_out})"
        )
    if "kraus" in data:
        kraus = [_as_matrix(K) for K in data["kraus"]]
        for K in kraus:
            if K.shape != (dim_out, dim_in):
                raise SemanticError("Kraus operator shape mismatch")
        S = choi_of(kraus, dim_in, dim_out)
    elif "choi" in data:
        J = _as_matrix(data["choi"])
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

def cmd_decompose(args, out: list) -> int:
    S, rep_in, rep_out = load_channel(args.file, args.allow_nonphysical)
    basis = build_canonical_modes(rep_in, rep_out)
    coeffs = decompose(S, basis)
    out.append(f"command: decompose {args.file}")
    out.append(f"tolerance: {fmt(args.tol)}")
    out.extend(convention_block())
    out.append("modes:")
    for diagram in basis.diagrams():
        vecs = coeffs.by_diagram(diagram)
        mag = float(np.linalg.norm(vecs))
        comps = " ".join(fmt(v) for v in vecs)
        out.append(f"  {diagram}  |a| = {fmt(mag)}  components: {comps}")
    sym = coeffs.is_symmetric(tol=args.tol)
    out.append(f"symmetric: {'yes' if sym else 'no'}")
    out.append(f"reconstruction residual: {fmt(coeffs.residual)}")
    return EXIT_OK if coeffs.residual <= max(args.tol, 1e-8) else EXIT_FAIL


def cmd_polar(args, out: list) -> int:
    S, rep_in, rep_out = load_channel(args.file, args.allow_nonphysical)
    basis = build_canonical_modes(rep_in, rep_out)
    pd = polar_decompose(S, basis)
    out.append(f"command: polar {args.file}")
    out.extend(convention_block())
    out.append(f"orbit point: kind={pd.orbit_point.kind} "
               f"theta={fmt(pd.orbit_point.theta)} "
               f"phi={fmt(pd.orbit_point.phi)}")
    if pd.orbit_point.warning:
        out.append("warning: residual above sphere tolerance; "
                   "orbit may exceed the axial class")
    out.append("invariant amplitudes:")
    for diagram, a in sorted(pd.invariants.items(), key=lambda kv: str(kv[0])):
        out.append(f"  {diagram}  a = {fmt(a)}  |a| = {fmt(abs(a))}")
    out.append(f"fit residual: {fmt(pd.fit_residual)}")
    return EXIT_OK


def cmd_table(args, out: list) -> int:
    rows = axial_table(p=args.p, angle=args.angle)
    out.append(f"command: table p={fmt(args.p)} angle={fmt(args.angle)}")
    out.extend(convention_block())
    worst = 0.0
    for row in rows:
        out.append(f"row: {row.name}  params: "
                   + " ".join(f"{k}={fmt(v)}" for k, v in row.params.items()))
        out.append("  computed : "
                   + " ".join(fmt(v) for v in row.computed))
        out.append("  published: "
                   + " ".join(fmt(v) for v in row.printed))
        out.append("  deviation: "
                   + " ".join(fmt(v) for v in row.deviation)
                   + f"  (max {fmt(max(row.deviation))})")
        out.append(f"  reconstruction residual: "
                   f"{fmt(row.reconstruction_residual)}")
        if row.note:
            out.append(f"  note: {row.note}")
        worst = max(worst, row.reconstruction_residual)
    out.append(f"worst reconstruction residual: {fmt(worst)}")
    return EXIT_OK if worst <= 1e-8 else EXIT_FAIL


def cmd_bipartite(args, out: list) -> int:
    cat = two_qubit_catalog()
    out.append("command: bipartite" + (f" {args.file}" if args.file else ""))
    out.extend(convention_block())
    out.append(f"invariant space dimension (twirl rank): "
               f"{twirl_rank(cat.basis)}")
    out.append("symmetric basis elements:")
    for el in cat.basis.elements:
        out.append(f"  {el.diagram}  class={classify(el.diagram)}  "
                   f"|chi|^2 = {fmt(el.op.norm() ** 2)}")
    if args.file:
        S, rep_in, rep_out = load_channel(args.file, args.allow_nonphysical)
        if S.dim_in != 4 or S.dim_out != 4:
            raise SemanticError("bipartite decomposition expects a "
                                "two-qubit (4x4) channel")
        coeffs = decompose_symmetric(S, cat.basis)
        out.append("symmetric-basis coefficients:")
        for el in cat.basis.elements:
            out.append(f"  {el.diagram}  c = "
                       f"{fmt(coeffs.values[el.diagram])}")
        out.append(f"non-invariant residual: {fmt(coeffs.residual)}")
        return EXIT_OK if coeffs.residual <= args.tol else EXIT_FAIL
    return EXIT_OK


def cmd_region(args, out: list) -> int:
    n = args.grid
    out.append("x,y,z,X,Y,Z,min_eig,inside" if args.kind == "injection"
               else "x,y,z,min_eig,inside")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x = -1.0 + 2.0 * i / (n - 1) if n > 1 else 0.0
                y = -1.0 + 2.0 * j / (n - 1) if n > 1 else 0.0
                z = -1.0 + 2.0 * k / (n - 1) if n > 1 else 0.0
                if args.kind == "injection":
                    S = injection_channel(x, y, z)
                    cols = (x, y, z) + injection_coords(x, y, z)
                else:
                    S = swap_invariant_relational(x, y, z)
                    cols = (x, y, z)
                rep = check_cptp(S, psd_tol=1e-8)
                out.append(
                    ",".join(fmt(v) for v in cols)
                    + f",{fmt(rep.min_choi_eigenvalue)},{1 if rep.is_cptp else 0}"
                )
    return EXIT_OK


def cmd_catalytic(args, out: list) -> int:
    rng = np.random.default_rng(args.seed)
    d = args.dim_a
    D = args.ladder
    check_crosscheck_size(d, D, args.rounds)
    q, r = np.linalg.qr(rng.normal(size=(d, d))
                        + 1j * rng.normal(size=(d, d)))
    U = q * (np.diag(r) / np.abs(np.diag(r)))
    P = build_protocol(U, D)
    out.append(f"command: catalytic dim_a={d} ladder={D} "
               f"rounds={args.rounds} sigma={args.sigma} seed={args.seed}")
    out.extend(convention_block())
    if args.sigma == "frame":
        sigma = FrameState(P.ladder, 0).density
    elif args.sigma == "mixed":
        sigma = np.eye(D, dtype=complex) / D
    else:
        A = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
        sigma = A @ A.conj().T
        sigma /= np.trace(sigma)
    inputs = []
    for _ in range(args.rounds):
        B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = B @ B.conj().T
        inputs.append(rho / np.trace(rho))
    rep = sequential_use(P, sigma, inputs)
    worst = 0.0
    for i, rec in enumerate(rep.rounds):
        out.append(f"round {i + 1}: choi distance to round 1 = "
                   f"{fmt(rec.choi_distance_to_first)}  "
                   f"reference overlap = {fmt(rec.reference_fidelity)}")
        worst = max(worst, rec.choi_distance_to_first)
    if rep.crosscheck_residual is not None:
        out.append(f"two-round full-tensor cross-check: "
                   f"{fmt(rep.crosscheck_residual)}")
    mp = measure_prepare_form(P)
    out.append(f"measure-prepare X residual: {fmt(mp.max_x_residual)}")
    ok = worst <= 1e-10 and mp.max_x_residual <= 1e-10
    out.append(f"verdict: {'pass' if ok else 'fail'}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_gauge(args, out: list) -> int:
    rng = np.random.default_rng(args.seed)
    N = args.n
    try:
        Lx, Ly = (int(v) for v in args.lattice.lower().split("x"))
    except ValueError:
        raise ParseError("lattice must look like '2x2'")
    if Lx < 1 or Ly < 1:
        raise ParseError(f"lattice sides must be >= 1, got {args.lattice}")
    out.append(f"command: gauge n={N} lattice={args.lattice} "
               f"seed={args.seed}")
    out.extend(convention_block())

    # random 2-symmetric elements, gauged and checked on the generators
    frame = LinkFrame(N)
    rep = RepSpec.zn_charges([0, 1], N)
    basis = build_canonical_modes(rep, rep)
    # modes on the charge-{0, 1} rep carry charges 0, +-1 and +-2 only
    charges = sorted({m.diagram.lam.charge % N for m in basis.modes})
    worst = 0.0
    for trial in range(args.trials):
        lam = charges[rng.integers(0, len(charges))]
        mx = [m for m in basis.modes if m.diagram.lam.charge % N == lam]
        my = [m for m in basis.modes
              if m.diagram.lam.charge % N == (-lam) % N]
        chi = None
        for m1 in mx:
            for m2 in my:
                c = rng.normal() + 1j * rng.normal()
                term = c * m1.op.tensor(m2.op)
                chi = term if chi is None else chi + term
        G = gauge_2symmetric(chi, lam, frame, basis, basis)
        worst = max(worst, G.invariance_residual)
        if trial == 0:
            stab = gauge_fix_stabilizer(G, 0, 0)
            out.append(f"gauge fix h1=h2=0 stabilizer: {stab}")
    out.append(f"max local-invariance residual over {args.trials} random "
               f"elements: {fmt(worst)}")

    # lattice demo
    lat = build_gauged_lattice(Lx, Ly, args.lattice_n)
    out.append(f"lattice: {Lx}x{Ly} sites, {len(lat.links)} links, "
               f"Z_{lat.N} frames, dim {lat.dim}")
    gauged = lat.gauss_commutators(lat.H_gauged)
    for (s, g), c in gauged.items():
        out.append(f"  [G_{s}({g}), H_gauged] norm: {fmt(c)}")
    worst_comm = max(gauged.values())
    out.append(f"max Gauss commutator with H_gauged: {fmt(worst_comm)}")
    free = lat.gauss_commutators(lat.H_free)
    out.append(f"min Gauss commutator with H_free: {fmt(min(free.values()))}")
    wilson = [max(lat.gauss_commutators(W).values()) for W in lat.wilson_ops]
    worst_wilson = max(wilson, default=0.0)
    out.append(f"max Gauss commutator with a Wilson loop: {fmt(worst_wilson)}")
    for wi, W in enumerate(lat.wilson_ops):
        ev = np.sort(np.diag(W).real)  # the loops are diagonal
        out.append(f"wilson op {wi} spectrum (real parts): "
                   + " ".join(fmt(v) for v in ev[:4]) + " ...")
    v = free_state_check(lat, np.eye(lat.dim) / lat.dim)
    out.append(f"maximally mixed state free: {v.is_free} "
               f"(twirl distance {fmt(v.twirl_distance)})")
    ok = worst <= 1e-10 and max(worst_comm, worst_wilson) <= 1e-10
    out.append(f"verdict: {'pass' if ok else 'fail'}")
    return EXIT_OK if ok else EXIT_FAIL


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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="symmetria",
        description="Process-mode decompositions, polar data, bipartite "
                    "catalogs, catalytic protocols, and lattice gauging.",
    )
    p.add_argument("--seed", type=int, default=None,
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
        args.seed = int(os.environ.get("SYMMETRIA_SEED", "0"))
    out: list = []
    try:
        code = args.func(args, out)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (SemanticError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SEMANTIC
    print("\n".join(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
