"""One workload in one process: set up, signal READY, run the op loop.

Started by run.py; not meant to be run by hand.  Writes ``READY`` to stdout
when the first op is ready, then one JSON line: the machine-speed factor
after set-up (``--mode setup``), or the run's raw results.  Output of the
program under test is captured by the workloads, so stdout carries only
this protocol.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

SETUP_PROBES = 30
MIN_CYCLES = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"),
                   required=True)
    p.add_argument("--workdir", required=True,
                   help="scratch directory for generated input files")
    return p.parse_args(argv)


def run_ops(workload, seconds, tracer=None, clock=time.perf_counter):
    """The closed loop: each op starts after the previous one returned and
    was checked.  Returns per-op latencies and speed factors, outcomes and
    the checks' figures."""
    import speed
    import workloads as wl

    cycles = max(MIN_CYCLES, round(seconds / workload.nominal_cycle_s))
    checks = wl.Checks()
    latencies, op_spans, outcomes, errors = [], [], [], []
    probe_times, probe_durations = [], []
    failed = incorrect = violations = 0
    verify_s = probe_s = 0.0

    def take_probe():
        probe_times.append(clock())
        probe_durations.append(speed.probe(clock))

    start = clock()
    take_probe()
    cycles_run = 0
    for _ in range(cycles):
        # A safety stop, not a measurement rule: a far slower program ends
        # early rather than overrun the harness's time limit.
        if clock() - start > 4 * seconds + 60:
            break
        cycles_run += 1
        for op in workload.ops:
            root = tracer.begin("bench.op") if tracer else None
            t0 = clock()
            try:
                result = op.run()
                raised = None
            except Exception as e:  # any library error fails the op
                raised = e
            t1 = clock()
            latencies.append(t1 - t0)
            op_spans.append((t0, t1))
            if tracer:
                tracer.finish(root)
                tracer.enabled = False
            try:
                if raised is not None:
                    raise wl.Failure(f"raised {type(raised).__name__}: "
                                     f"{raised}")
                op.check(result, checks)
                ok = True
            except wl.Failure as e:
                ok = False
                if len(errors) < 20:
                    errors.append(f"{op.name}: {e}")
            result = None
            t2 = clock()
            verify_s += t2 - t1
            take_probe()
            probe_s += clock() - t2
            if tracer:
                tracer.enabled = True
            outcomes.append(ok)
            if not ok:
                failed += 1
                if op.malformed:
                    violations += 1
                else:
                    incorrect += 1
    wall_s = clock() - start
    factors = speed.local_factors(op_spans, probe_times, probe_durations)
    return dict(latencies=latencies, factors=factors, outcomes=outcomes,
                errors=errors, failed=failed, incorrect=incorrect,
                contract_violations=violations, verify_s=verify_s,
                probe_s=probe_s, wall_s=wall_s, cycles=cycles_run,
                margins=checks.margins, maxima=checks.maxima)


def environment(blas_threads):
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy without the dict mode
        blas = {"name": "unknown"}
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
    }


def main(argv=None):
    args = parse_args(argv)
    proto = sys.stdout
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import numpy as np
    import speed
    import workloads as wl  # imports symmetria, including symmetria.cli

    import_s = time.perf_counter() - T0
    os.makedirs(args.workdir, exist_ok=True)
    try:
        t = time.perf_counter()
        rng = np.random.default_rng(args.seed)
        workload = wl.SETUPS[args.workload](rng, args.workdir)
        inputs_s = time.perf_counter() - t
        proto.write("READY\n")
        proto.flush()
        # machine speed right after set-up, to normalise this set-up time
        probes = [speed.probe(time.perf_counter) for _ in range(SETUP_PROBES)]
        setup_factor = speed.REF_PROBE_S / statistics.median(probes)
        if args.mode == "setup":
            proto.write(json.dumps({"setup_factor": setup_factor}) + "\n")
            proto.flush()
            return 0
        tracer = None
        if args.mode == "trace":
            import layers
            from spans import Tracer

            tracer = Tracer()
            layers.install_all(tracer)
            tracer.enabled = True
        res = run_ops(workload, args.seconds, tracer)
        if tracer:
            tracer.enabled = False
            res["layers"] = layers.layer_metrics(tracer)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    res.update(import_s=import_s, inputs_s=inputs_s, setup_factor=setup_factor,
               peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               env=environment(os.environ.get("OPENBLAS_NUM_THREADS")))
    proto.write(json.dumps(res) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
