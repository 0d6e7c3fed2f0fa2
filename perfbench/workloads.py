"""The four benchmark workloads.

Each ``setup_<name>(rng, workdir)`` builds the workload's inputs from
the seeded generator and returns a :class:`Workload`: a fixed cycle of ops
that the harness repeats.  An op is one call into the library (or one
``cli.main(argv)``); its ``check`` runs outside the op's timing.

Library calls go through module attributes (``pm.decompose``, not a name
imported here) so the traced run's wrappers see them.  Why each workload
exists and which layer metric should move which end-to-end metric is in
README.md beside this file.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import symmetria.cli as cli_mod
from symmetria import axial as ax
from symmetria import bipartite as bp
from symmetria import gauge as ga
from symmetria import groups as gr
from symmetria import linalg_core as lc
from symmetria import process_modes as pm

import cli_ops


class Failure(Exception):
    """An op's output failed the benchmark's verification."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object, "Checks"], None]
    # Malformed CLI input: the contract asks for exit 2 or 3.  A failure
    # here is a contract violation, not a wrong result.
    malformed: bool = False


@dataclass
class Workload:
    ops: list
    # Roughly the seconds one cycle of ops, with its checks and probes,
    # takes on the reference machine (2-vCPU VM, one OpenBLAS thread).  The
    # harness runs max(2, round(seconds / nominal_cycle_s)) cycles, so the
    # op count, and with it the tail percentile's rank, is the same on
    # every run of a given --seconds.  The values are chosen so that
    # --seconds 18 puts op_p50_ms and op_tail_ms inside classes of several
    # samples of one op (see README.md).
    nominal_cycle_s: float


@dataclass
class Checks:
    """Verdicts and accuracy-drift figures gathered by the checks."""

    margins: dict = field(default_factory=dict)   # name -> worst decades
    maxima: dict = field(default_factory=dict)    # name -> largest value

    def within(self, name: str, value: float, tol: float) -> None:
        """Require value <= tol and record log10(tol / value)."""
        value = float(value)
        if not value <= tol:  # also catches NaN
            raise Failure(f"{name} = {value:.3e} above tolerance {tol:.0e}")
        margin = math.log10(tol / max(value, 1e-300))
        self.margins[name] = min(self.margins.get(name, math.inf), margin)

    def record_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0.0), float(value))

    @staticmethod
    def expect(condition: bool, message: str) -> None:
        if not condition:
            raise Failure(message)


def _unit_vector(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _random_density(rng, dim):
    M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = M @ M.conj().T
    return rho / np.trace(rho)


# ---------------------------------------------------------------------------
# modes: process-mode build / decompose / symmetry test per carrier
# ---------------------------------------------------------------------------

MODE_CARRIERS = (
    ("su2[1]", lambda: gr.RepSpec.su2_spins([1])),
    ("su2[3]", lambda: gr.RepSpec.su2_spins([3])),
    ("su2[1,1,1]", lambda: gr.RepSpec.su2_spins([1, 1, 1])),
    ("z7[0..5]", lambda: gr.RepSpec.zn_charges(range(6), 7)),
    ("su2[2,2,2]", lambda: gr.RepSpec.su2_spins([2, 2, 2])),
)
DECOMPOSES_PER_CARRIER = 3


def setup_modes(rng, workdir) -> Workload:
    ops = []
    for label, make_rep in MODE_CARRIERS:
        rep = make_rep()
        ops += _carrier_ops(label, rep, rng)
    return Workload(ops, nominal_cycle_s=10.0)


def _carrier_ops(label, rep, rng):
    d = rep.dim
    channels = [lc.random_cptp(d, d, rng) for _ in range(DECOMPOSES_PER_CARRIER)]
    identity = lc.identity_channel(d)
    depolarizing = lc.depolarizing_channel(0.0, d)  # X -> tr(X) I/d
    probes = rng.choice(d ** 4, size=min(6, d ** 4), replace=False)
    held = {}

    def build():
        held["basis"] = pm.build_canonical_modes(rep, rep)
        return held["basis"]

    def check_build(basis, checks):
        checks.expect(len(basis.modes) == d ** 4,
                      f"{len(basis.modes)} modes, expected d^4 = {d ** 4}")
        ops_ = [basis.modes[int(i)].op for i in probes]
        gram = np.array([[lc.hs_inner(a, b) for b in ops_] for a in ops_])
        checks.within("modes.orthonormality",
                      np.abs(gram - np.eye(len(ops_))).max(), 1e-10)

    def check_residual(coeffs, checks):
        checks.within("decompose.residual", coeffs.residual, 1e-10)

    def symmetric_check(expected, last=False):
        def check(verdict, checks):
            if last:
                # end of this carrier's segment: free the basis (d = 9
                # holds 1.36 GB) outside op timing
                held.clear()
            checks.expect(verdict is expected,
                          f"is_symmetric gave {verdict}, expected {expected}")
        return check

    out = [Op(f"build {label}", build, check_build)]
    for i, S in enumerate(channels):
        out.append(Op(f"decompose {label} #{i}",
                      lambda S=S: pm.decompose(S, held["basis"]),
                      check_residual))
    for name, S, expected in (("identity", identity, True),
                              ("depolarizing", depolarizing, True),
                              ("random", channels[0], False)):
        out.append(Op(f"is_symmetric {label} {name}",
                      lambda S=S: pm.is_symmetric(S, held["basis"]),
                      symmetric_check(expected, last=name == "random")))
    return out


# ---------------------------------------------------------------------------
# twirl: quadrature group averages and the small-matrix group layer
# ---------------------------------------------------------------------------

# Two spin-1/2 copies: haar_quadrature(4) integrates the conjugation action
# and the spin-0/1 characters exactly here.  A single spin-3/2 carrier
# (also d = 4) needs a higher bandlimit: its four-fold products alias at
# bandlimit 4 (twirl off by 0.07 in Hilbert-Schmidt norm).
TWIRL_CARRIER = (1, 1)
WIGNER_PROBES = (2, 20, 60)  # doubled spins


def setup_twirl(rng, workdir) -> Workload:
    rep = gr.RepSpec.su2_spins(list(TWIRL_CARRIER))
    d = rep.dim
    basis = pm.build_canonical_modes(rep, rep)
    quad = gr.haar_quadrature("su2", 4)
    spin0, spin1 = gr.IrrepLabel.su2(0), gr.IrrepLabel.su2(2)
    catalog = bp.two_qubit_catalog()
    qubit = gr.RepSpec.su2_spins([1])
    qubit_modes = pm.build_canonical_modes(qubit, qubit)

    def basis_route(S, lam):
        return pm.project_isotypic_basis(S, lam, basis)

    ops = [Op("haar_quadrature su2 4",
              lambda: gr.haar_quadrature("su2", 4), _check_quadrature)]
    for i in range(2):
        S = lc.random_cptp(d, d, rng)
        ops.append(Op(f"twirl d={d} #{i}",
                      lambda S=S: pm.twirl(S, quad, rep, rep),
                      lambda T, checks, S=S: checks.within(
                          "twirl.vs_basis", (T - basis_route(S, spin0)).norm(),
                          1e-10)))
    for i, lam in enumerate((spin1, spin0)):
        S = lc.random_cptp(d, d, rng)
        ops.append(Op(f"project_isotypic j={lam.two_j}/2 #{i}",
                      lambda S=S, lam=lam: pm.project_isotypic(
                          S, lam, quad, rep, rep),
                      lambda P, checks, S=S, lam=lam: checks.within(
                          "project_isotypic.vs_basis",
                          (P - basis_route(S, lam)).norm(), 1e-10)))
    for i in range(2):
        S = lc.random_cptp(4, 4, rng)
        ops.append(Op(f"two-qubit twirl + decompose_symmetric #{i}",
                      lambda S=S: _diagonal_twirl_decompose(S, quad, catalog),
                      lambda c, checks: checks.within(
                          "decompose_symmetric.residual", c.residual, 1e-8)))
    for i in range(3):
        S, reference = _axial_channel(rng, qubit, qubit_modes)
        ops.append(Op(f"polar_decompose #{i}",
                      lambda S=S: ax.polar_decompose(S, qubit_modes),
                      lambda pd, checks, ref=reference: _check_polar(
                          pd, ref, checks)))
    for two_j in WIGNER_PROBES:
        # beta = pi/2 is where the factorial sum cancels worst, so the
        # drift metric reads the same order of magnitude on every seed
        g = gr.GroupElement.su2(rng.uniform(0, 4 * np.pi), np.pi / 2,
                                rng.uniform(0, 4 * np.pi))
        lab = gr.IrrepLabel.su2(two_j)
        ops.append(Op(f"wigner_D 2j={two_j}",
                      lambda lab=lab, g=g: gr.wigner_D(lab, g),
                      _check_wigner))
    return Workload(ops, nominal_cycle_s=0.76)


def _check_quadrature(quad, checks):
    checks.expect(len(quad.nodes) == 500,
                  f"{len(quad.nodes)} nodes, expected 500")
    checks.within("quadrature.weight_sum",
                  abs(sum(w for _, w in quad.nodes) - 1.0), 1e-12)


def _diagonal_twirl_decompose(S, quad, catalog):
    """Acceptance criterion 4's loop body."""
    T = lc.Superoperator.zero(4, 4)
    for g, w in quad.nodes:
        T = T + w * bp.diagonal_action(S, g)
    return bp.decompose_symmetric(T, catalog.basis)


def _axial_channel(rng, qubit, qubit_modes):
    """A rotated axial channel as in acceptance criterion 3, plus the
    invariant amplitudes |a| of its unrotated form."""
    p = rng.uniform(0.0, 1.0)
    q = rng.uniform(0.1, 0.4)
    pol = rng.uniform(0.2, 0.9)
    ang = rng.uniform(0.3, 2 * np.pi - 0.3)
    S = ((1 - q) * lc.Superoperator.from_transfer(
        ax.rotation_channel(ang).transfer @ ax.dephasing_channel(p).transfer,
        2, 2) + q * ax.state_preparation_channel(pol))
    reference = {str(d): abs(a) for d, a in
                 ax.polar_decompose(S, qubit_modes).invariants.items()}
    rotated = pm.superop_group_action(S, gr.random_su2(rng), qubit, qubit)
    return rotated, reference


def _check_polar(pd, reference, checks):
    checks.expect(pd.orbit_point.kind == ax.SPHERE,
                  f"orbit kind {pd.orbit_point.kind}, expected sphere")
    checks.within("polar.fit_residual", pd.fit_residual, 1e-8)
    worst = max(abs(abs(a) - reference[str(d)])
                for d, a in pd.invariants.items())
    checks.within("polar.invariance", worst, 1e-8)


def _check_wigner(D, checks):
    defect = float(np.linalg.norm(D @ D.conj().T - np.eye(D.shape[0])))
    checks.record_max("wigner_D.unitarity_defect", defect)
    # Loose on purpose: the float factorial sum loses ~1e-8 at 2j = 60
    # today.  The defect itself is reported as a drift metric, not gated.
    checks.within("wigner_D.unitarity", defect, 1e-6)


# ---------------------------------------------------------------------------
# lattice: the gauge layer on the 2x2 torus
# ---------------------------------------------------------------------------

def setup_lattice(rng, workdir) -> Workload:
    lat3 = ga.build_gauged_lattice(2, 2, 3)
    w, Q = np.linalg.eigh(lat3.H_gauged)
    V = (Q * np.exp(-1j * 0.6 * w)) @ Q.conj().T
    lat2 = ga.build_gauged_lattice(2, 2, 2)
    states = [_unit_vector(rng, lat3.dim) for _ in range(3)]
    probe3 = _unit_vector(rng, lat3.dim)
    probe2 = _unit_vector(rng, lat2.dim)
    mixed = np.eye(lat3.dim, dtype=complex) / lat3.dim
    pures = [np.outer(s, s.conj()) for s in states[:2]]
    rhos2 = [_random_density(rng, lat2.dim) for _ in range(2)]
    # fill the lattices' cached link-Fourier frames before timing
    lat3.twirl(mixed)
    lat2.twirl(rhos2[0])

    N = 4
    zrep = gr.RepSpec.zn_charges([0, 1], N)
    zmodes = pm.build_canonical_modes(zrep, zrep)
    frame = ga.LinkFrame(N)
    # all of charge 1: the op's cost depends on the charge (the number of
    # mode pairs), and one charge keeps these ops one class of equal cost
    elements = [_symmetric_element(rng, zmodes, N, 1) for _ in range(4)]

    ops = [
        Op("build_gauged_lattice 2x2 Z3",
           lambda: ga.build_gauged_lattice(2, 2, 3),
           lambda lat, checks: _check_lattice(lat, lat3, probe3, checks)),
        Op("build_gauged_lattice 2x2 Z2",
           lambda: ga.build_gauged_lattice(2, 2, 2),
           lambda lat, checks: _check_lattice(lat, lat2, probe2, checks)),
    ]
    ops.append(Op("dynamics_commutation_defects",
                  lambda: lat3.dynamics_commutation_defects(V, states[2:]),
                  _check_dynamics))
    ops.append(Op("free_state_check mixed",
                  lambda: ga.free_state_check(lat3, mixed),
                  lambda v, checks: checks.within(
                      "free_state.twirl_distance", v.twirl_distance, 1e-10)))
    for i, pure in enumerate(pures):
        ops.append(Op(f"free_state_check pure #{i}",
                      lambda pure=pure: ga.free_state_check(lat3, pure),
                      lambda v, checks: checks.expect(
                          not v.is_free and v.twirl_distance > 1e-3,
                          "a random pure state passed as gauge invariant")))
    for i, rho in enumerate(rhos2):
        ops.append(Op(f"lattice twirl Z2 #{i}",
                      lambda rho=rho: lat2.twirl(rho),
                      lambda T, checks, rho=rho: checks.within(
                          "lattice_twirl.vs_enumerate",
                          np.linalg.norm(T - lat2.twirl_enumerate(rho)),
                          1e-10)))
    for i, (chi, lam) in enumerate(elements):
        ops.append(Op(f"gauge_2symmetric N=4 #{i}",
                      lambda chi=chi, lam=lam: ga.gauge_2symmetric(
                          chi, lam, frame, zmodes, zmodes),
                      lambda G, checks, chi=chi: _check_gauged(G, chi, checks)))
    return Workload(ops, nominal_cycle_s=7.0)


def _symmetric_element(rng, modes, N, lam):
    """A random globally symmetric two-site element of charge lam, as the
    CLI's gauge command draws it (charge read from the mode's label)."""
    chi = None
    for mx in modes.modes:
        if mx.diagram.lam.charge != lam:
            continue
        for my in modes.modes:
            if my.diagram.lam.charge != (-lam) % N:
                continue
            c = rng.normal() + 1j * rng.normal()
            term = c * mx.op.tensor(my.op)
            chi = term if chi is None else chi + term
    return chi, lam


def lattice_bytes(lat) -> int:
    arrays = [lat.H_free, lat.H_gauged]
    arrays += list(lat.gauss_ops.values()) + list(lat.wilson_ops)
    return int(sum(a.nbytes for a in arrays))


def _check_lattice(lat, reference, probe, checks):
    """Gauss law and Wilson-loop invariance on a random probe vector (a
    nonzero commutator shows up with probability 1), plus agreement with
    the lattice built at set-up."""
    checks.record_max("gauge.lattice_bytes", lattice_bytes(lat))
    scale = np.linalg.norm(reference.H_gauged)
    checks.within("lattice.rebuild", np.linalg.norm(
        lat.H_gauged - reference.H_gauged) / scale, 1e-12)
    H = lat.H_gauged
    Hv = H @ probe
    for U in lat.gauss_ops.values():
        checks.within("lattice.gauss", np.linalg.norm(
            U @ Hv - H @ (U @ probe)), 1e-10)
        for W in lat.wilson_ops:
            checks.within("lattice.wilson", np.linalg.norm(
                U @ (W @ (U.conj().T @ probe)) - W @ probe), 1e-10)


def _check_dynamics(defects, checks):
    for dft in defects:
        checks.within("dynamics.defect", dft, 1e-10)


def _check_gauged(G, chi, checks):
    checks.within("gauge_2symmetric.invariance", G.invariance_residual, 1e-12)
    checks.within("gauge_2symmetric.degauge",
                  (ga.degauge_marginal(G) - chi).norm(), 1e-10)


# ---------------------------------------------------------------------------
# cli: in-process `symmetria` commands over a fixed script
# ---------------------------------------------------------------------------

# Seeded channel files: (name, group descriptor, dimension, payload kind,
# commands).  SU(2) and Z_N, Kraus and Choi payloads, d <= 6.  The qubit
# file holds a rotated axial channel, so `polar` must find its axis; the
# others hold random channels, which no symmetry fixes.
GENERATED = (
    ("axial-d2-kraus", {"kind": "su2", "two_j": [1]}, 2, "kraus",
     ("decompose", "polar")),
    ("su2-d3-choi", {"kind": "su2", "two_j": [2]}, 3, "choi",
     ("decompose",)),
    ("qubits-d4-kraus", {"kind": "su2-qubits", "n": 2}, 4, "kraus",
     ("decompose", "bipartite")),
    ("z3-d3-kraus", {"kind": "zn", "charges": [0, 1, 2], "modulus": 3}, 3,
     "kraus", ("decompose",)),
    ("z7-d6-choi", {"kind": "zn", "charges": [0, 1, 2, 3, 4, 5],
                    "modulus": 7}, 6, "choi", ("decompose",)),
)


def _pairs(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _channel_file(group, S, payload):
    data = {"dim_in": S.dim_in, "dim_out": S.dim_out, "group": group}
    if payload == "kraus":
        data["kraus"] = [_pairs(A) for A in lc.kraus_of_choi(S)]
    else:
        data["choi"] = _pairs(S.choi)
    return data


def _malformed_files(workdir):
    """Malformed variants of the dephasing fixture, one defect each."""
    with open(cli_ops.FIXTURES[0]) as f:
        base = json.load(f)
    variants = {}
    v = copy.deepcopy(base)
    del v["dim_in"]
    variants["missing-key"] = v
    v = copy.deepcopy(base)
    v["dim_in"] = 3
    variants["dim-mismatch"] = v
    v = copy.deepcopy(base)
    v["kraus"][0][0][0] = [2.0, 0.0]
    variants["non-cptp"] = v
    v = copy.deepcopy(base)
    v["kraus"][0][0][0] = [float("nan"), 0.0]
    variants["nan-entry"] = v
    v = copy.deepcopy(base)
    v["group"] = {"kind": "su2", "two_j": [-1]}
    variants["negative-two-j"] = v
    v = copy.deepcopy(base)
    v["group"] = {"kind": "zn", "charges": [0, 1], "modulus": 0}
    variants["modulus-zero"] = v
    paths = {}
    for name, data in variants.items():
        paths[name] = os.path.join(workdir, f"malformed-{name}.json")
        with open(paths[name], "w") as f:
            json.dump(data, f)
    return paths


def setup_cli(rng, workdir) -> Workload:
    golden = cli_ops.load_golden()
    ops = []

    def cli_op(argv, expected_code, golden_entry=None, required=(),
               malformed=False):
        name = "cli " + cli_ops.key_of(argv)
        if malformed:
            expected = (2, 3)

            def check(result, checks):
                if result[0] not in expected:
                    raise Failure(f"exit code {result[0]}, contract expects "
                                  "2 (parse) or 3 (semantic)")
        else:
            def check(result, checks):
                try:
                    cli_ops.check_output(result, expected_code, golden_entry,
                                         checks, required)
                except cli_ops.Mismatch as e:
                    raise Failure(str(e)) from None
        ops.append(Op(name, lambda: cli_ops.invoke(cli_mod, argv), check,
                      malformed=malformed))

    for argv, code in cli_ops.FIXED_SCRIPT:
        cli_op(argv, code, golden[cli_ops.key_of(argv)])

    qubit = gr.RepSpec.su2_spins([1])
    qubit_modes = pm.build_canonical_modes(qubit, qubit)
    for name, group, d, payload, commands in GENERATED:
        if name.startswith("axial"):
            S, _ = _axial_channel(rng, qubit, qubit_modes)
        else:
            S = lc.random_cptp(d, d, rng, env_dim=2)
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as f:
            json.dump(_channel_file(group, S, payload), f)
        for command in commands:
            if command == "bipartite":
                # a random channel is not invariant: a failed verdict (1)
                cli_op([command, path], 1)
            elif command == "decompose":
                cli_op([command, path], 0, required=("symmetric: no",))
            else:
                cli_op([command, path], 0, required=("kind=sphere",))

    cat_seed = str(int(rng.integers(0, 2 ** 31)))
    for dim_a in ("2", "3"):
        for sigma in ("frame", "mixed", "random"):
            cli_op(["--seed", cat_seed, "catalytic", "--dim-a", dim_a,
                    "--ladder", "16", "--sigma", sigma], 0,
                   required=("verdict: pass",))

    bad = _malformed_files(workdir)
    for name in ("missing-key", "dim-mismatch", "non-cptp", "nan-entry",
                 "negative-two-j", "modulus-zero"):
        cli_op(["decompose", bad[name]], None, malformed=True)
    cli_op(["table", "--p", "2"], None, malformed=True)
    cli_op(["catalytic", "--rounds", "0"], None, malformed=True)
    return Workload(ops, nominal_cycle_s=4.4)


SETUPS = {
    "modes": setup_modes,
    "twirl": setup_twirl,
    "lattice": setup_lattice,
    "cli": setup_cli,
}
