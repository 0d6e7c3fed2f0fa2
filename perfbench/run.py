"""symmetria benchmark: one workload per call, each in its own processes.

    python3 perfbench/run.py --workload modes --seed 1 --seconds 18 --trace 0

Run from the repository root.  ``--trace 0`` runs the workload untraced and
prints the end-to-end metrics; ``--trace 1`` runs it untraced and then
traced with the same seed and prints the per-layer metrics.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Lines before it give the environment and a readable table.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("modes", "twirl", "lattice", "cli")
SETUP_REPEATS = 3      # set-up samples per run; setup_s is their median
# One BLAS thread: on the shared 2-vCPU reference machine a two-thread
# product stalls whenever either vCPU is preempted, which made the dense
# lattice ops 2-3 times noisier; with one thread the other vCPU absorbs
# the harness and the system.
BLAS_THREADS = 1
TIME_LIMIT_S = 170.0   # the whole run, all child processes included
WORKDIR_ROOT = ".perfbench_tmp"

END_TO_END = (
    # (name, unit, better)
    ("ops_per_s", "ops/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("error_rate", "ratio", "lower"),
)

PER_LAYER = (
    # (name, unit, better); layers are the symmetria module names
    ("groups.wigner_D.calls", "count", "lower"),
    ("groups.wigner_D.self_s", "s", "lower"),
    ("groups.cgc.calls", "count", "lower"),
    ("groups.cgc.self_s", "s", "lower"),
    ("groups.rep_matrix.calls", "count", "lower"),
    ("groups.rep_matrix.self_s", "s", "lower"),
    ("groups.haar_quadrature.self_s", "s", "lower"),
    ("groups.quadrature_nodes", "count", "lower"),
    ("groups.wigner_D.unitarity_defect", "norm", "lower"),
    ("ito.build_itos.calls", "count", "lower"),
    ("ito.build_itos.self_s", "s", "lower"),
    ("process_modes.build_canonical_modes.calls", "count", "lower"),
    ("process_modes.build_canonical_modes.self_s", "s", "lower"),
    ("process_modes.modes_built", "count", "lower"),
    ("process_modes.mode_bytes", "bytes", "lower"),
    ("process_modes.decompose.calls", "count", "lower"),
    ("process_modes.decompose.self_s", "s", "lower"),
    ("process_modes.is_symmetric.self_s", "s", "lower"),
    ("process_modes.decompose.margin_decades", "decades", "higher"),
    ("process_modes.twirl.self_s", "s", "lower"),
    ("process_modes.project_isotypic.self_s", "s", "lower"),
    ("process_modes.superop_group_action.calls", "count", "lower"),
    ("process_modes.superop_group_action.self_s", "s", "lower"),
    ("linalg_core.superoperators", "count", "lower"),
    ("linalg_core.superop_bytes", "bytes", "lower"),
    ("linalg_core.hs_inner.calls", "count", "lower"),
    ("linalg_core.hs_inner.self_s", "s", "lower"),
    ("linalg_core.check_cptp.calls", "count", "lower"),
    ("linalg_core.check_cptp.self_s", "s", "lower"),
    ("axial.polar_decompose.calls", "count", "lower"),
    ("axial.polar_decompose.self_s", "s", "lower"),
    ("bipartite.diagonal_action.calls", "count", "lower"),
    ("bipartite.diagonal_action.self_s", "s", "lower"),
    ("bipartite.decompose_symmetric.self_s", "s", "lower"),
    ("repeatability.sequential_use.self_s", "s", "lower"),
    ("repeatability.induced_channel.calls", "count", "lower"),
    ("repeatability.measure_prepare_form.self_s", "s", "lower"),
    ("gauge.build_gauged_lattice.self_s", "s", "lower"),
    ("gauge.lattice_bytes", "bytes", "lower"),
    ("gauge.dynamics_commutation_defects.self_s", "s", "lower"),
    ("gauge.free_state_check.self_s", "s", "lower"),
    ("gauge.twirl.self_s", "s", "lower"),
    ("gauge.gauge_2symmetric.self_s", "s", "lower"),
    ("gauge.local_invariance_residual.self_s", "s", "lower"),
    ("gauge.dynamics.margin_decades", "decades", "higher"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.load_channel.self_s", "s", "lower"),
    ("cli.contract_violations", "count", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.inputs_s", "s", "lower"),
    ("bench.verify_s", "s", "lower"),
    ("bench.probe_s", "s", "lower"),
    ("bench.speed_factor", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
)

# check name recorded by the workloads -> per-layer metric
_MARGINS = {
    "decompose.residual": "process_modes.decompose.margin_decades",
    "dynamics.defect": "gauge.dynamics.margin_decades",
}
_MAXIMA = {
    "wigner_D.unitarity_defect": "groups.wigner_D.unitarity_defect",
    "gauge.lattice_bytes": "gauge.lattice_bytes",
}


class BenchError(Exception):
    pass


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_child(args, mode: str, env: dict, deadline: float, tag: str):
    """Start one child; return (setup seconds, parsed result or None).

    Set-up time runs from just before the process is started to the moment
    its READY line arrives: interpreter start, imports and input set-up.
    It is returned scaled to the reference machine speed (see speed.py).
    """
    workdir = os.path.join(WORKDIR_ROOT, f"{args.workload}-{os.getpid()}-{tag}")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", workdir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    setup_s = None
    lines = []
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"time limit reached in {mode} child")
            ready, _, _ = select.select([proc.stdout], [], [], remaining)
            if not ready:
                continue
            line = proc.stdout.readline()
            if not line:
                break
            if line.strip() == "READY" and setup_s is None:
                setup_s = time.perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"time limit reached in {mode} child") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or setup_s is None:
        raise BenchError(f"{mode} child exited with code {code}")
    if not lines:
        raise BenchError(f"{mode} child printed no result")
    result = json.loads(lines[-1])
    return setup_s * result["setup_factor"], result


def scaled_latencies(res: dict) -> list:
    """Op latencies in seconds at the reference machine speed."""
    return [t * f for t, f in zip(res["latencies"], res["factors"])]


def end_to_end(res: dict, setup_samples) -> tuple:
    lat = scaled_latencies(res)
    tail, pct, beyond = stats.tail_percentile(lat)
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setup_samples),
        "error_rate": stats.error_rate(res["failed"], len(lat)),
    }, (pct, beyond, len(lat))


def per_layer(plain: dict, traced: dict) -> dict:
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for name, value in traced["layers"].items():
        if name in out:
            out[name] = value
    for check, metric in _MARGINS.items():
        if check in traced["margins"]:
            out[metric] = traced["margins"][check]
    for check, metric in _MAXIMA.items():
        if check in traced["maxima"]:
            out[metric] = traced["maxima"][check]
    out["cli.contract_violations"] = traced["contract_violations"]
    out["setup.import_s"] = plain["import_s"]
    out["setup.inputs_s"] = plain["inputs_s"]
    out["bench.verify_s"] = plain["verify_s"]
    out["bench.probe_s"] = plain["probe_s"]
    out["bench.speed_factor"] = statistics.median(plain["factors"])
    plain_rate = len(plain["latencies"]) / sum(scaled_latencies(plain))
    traced_rate = len(traced["latencies"]) / sum(scaled_latencies(traced))
    out["trace.overhead_ratio"] = traced_rate / plain_rate
    out["trace.wall_s"] = traced["wall_s"]
    return out


def source_identity() -> dict:
    """The program measured: git commit when available, and a digest of
    the library sources, which a checkout without git history still has."""
    digest = hashlib.sha256()
    src = os.path.join("src", "symmetria")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as f:
                digest.update(f.read())
    commit = "unavailable"
    if os.path.isdir(".git") and shutil.which("git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10, check=True).stdout.strip()
        except (subprocess.SubprocessError, OSError):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def parse_args(argv=None):
    p = argparse.ArgumentParser(
        description="Run one symmetria benchmark workload.")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="target length of the timed phase of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "symmetria", "__init__.py")):
        print("perfbench: run from the repository root; src/symmetria "
              "was not found", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env = child_env(BLAS_THREADS)
    try:
        setup0, plain = run_child(args, "run", env, deadline, "run")
        if args.trace:
            _, traced = run_child(args, "trace", env, deadline, "trace")
        else:
            setup_samples = [setup0] + [
                run_child(args, "setup", env, deadline, f"setup{i}")[0]
                for i in range(1, SETUP_REPEATS)]
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(WORKDIR_ROOT)
        except OSError:
            pass

    correct = plain["incorrect"] == 0
    environment = dict(plain["env"], nproc=nproc(), seed=args.seed,
                       workload=args.workload, seconds=args.seconds,
                       **source_identity())
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment, sort_keys=True))
    print(f"ops: {len(plain['latencies'])} attempted in "
          f"{plain['cycles']} cycles, {plain['failed']} failed "
          f"({plain['contract_violations']} CLI contract violations)")
    for err in plain["errors"]:
        print(f"  failed: {err}")
    raw = plain["latencies"]
    print(f"unscaled: ops_per_s {len(raw) / sum(raw):.6g}, op_p50_ms "
          f"{1e3 * statistics.median(raw):.6g}; median speed factor "
          f"{statistics.median(plain['factors']):.4f} (times below are scaled "
          "to the reference machine speed)")
    if args.trace:
        if (traced["outcomes"] != plain["outcomes"]
                or traced["failed"] != plain["failed"]):
            print("traced and untraced runs disagree on op outcomes",
                  file=sys.stderr)
            correct = False
        values = per_layer(plain, traced)
        specs = PER_LAYER
    else:
        values, (pct, beyond, n) = end_to_end(plain, setup_samples)
        specs = END_TO_END
    metrics = {}
    for name, unit, _ in specs:
        metrics[name] = {"value": values[name], "unit": unit}
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{pct} of {n} ops, {beyond} beyond)"
        elif name == "setup_s":
            note = "  (median of " + ", ".join(
                f"{s:.3f}" for s in setup_samples) + ")"
        print(f"{name:42s} {values[name]:.6g} {unit}{note}")
    print(json.dumps({"correct": correct,
                      "attempted": len(plain["latencies"]),
                      "failed": plain["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
