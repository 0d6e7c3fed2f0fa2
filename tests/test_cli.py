"""Command-line interface: exit codes, determinism, and output formats."""

import ast
import copy
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(env_extra=None) -> dict:
    """The environment plus ``env_extra``, with this checkout's src first on
    PYTHONPATH, so that a child process imports this symmetria."""
    env = {**os.environ, **(env_extra or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        str(SRC), env.get("PYTHONPATH"))))
    return env


def run_cli(*args, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "symmetria", *args],
        capture_output=True, text=True, env=child_env(env_extra),
    )


@pytest.mark.parametrize("name", ["identity", "dephasing", "heisenberg-2qubit"])
def test_decompose_fixtures_succeed(name):
    r = run_cli("decompose", str(FIXTURES / f"{name}.json"))
    assert r.returncode == 0, r.stderr
    assert "symmetric" in r.stdout


def test_polar_fixture():
    r = run_cli("polar", str(FIXTURES / "dephasing.json"))
    assert r.returncode == 0, r.stderr


def test_table_lists_all_rows():
    r = run_cli("table")
    assert r.returncode == 0, r.stderr
    for name in ("dephasing", "projective measurement", "rotation",
                 "state preparation", "depolarizing"):
        assert name in r.stdout


def test_table_accepts_an_angle_whose_double_overflows():
    r = run_cli("table", "--angle", "1e308")
    assert r.returncode == 0, r.stderr
    assert "angle=1e+308" in r.stdout


def test_bipartite_catalog():
    r = run_cli("bipartite")
    assert r.returncode == 0, r.stderr
    for cls in ("local", "injection", "relational"):
        assert cls in r.stdout


def test_gauge_pair_weights_are_the_scalar_normal_stream():
    # cmd_gauge draws the weights of a random two-site element as one
    # vector, (x mode, y mode, real/imag); the golden outputs were made with
    # one scalar draw per part, x outermost
    import numpy as np

    vector_rng, scalar_rng = np.random.default_rng(9), np.random.default_rng(9)
    for rng in (vector_rng, scalar_rng):
        rng.integers(0, 3)
    vector = vector_rng.normal(size=(3, 4, 2))
    scalar = [[[scalar_rng.normal(), scalar_rng.normal()] for _ in range(4)]
              for _ in range(3)]
    assert np.array_equal(vector, scalar)


def test_region_csv_shape():
    r = run_cli("region", "--kind", "injection", "--grid", "4")
    assert r.returncode == 0, r.stderr
    lines = [ln for ln in r.stdout.splitlines() if "," in ln]
    assert lines[0] == "x,y,z,X,Y,Z,min_eig,inside"
    assert len(lines) == 4 ** 3 + 1


def test_region_scan_cost_does_not_grow_with_the_grid(monkeypatch, capsys):
    # the scan solves stacked Choi matrices: no channel object and no
    # one-channel CPTP check per grid point
    from symmetria import cli, linalg_core
    from symmetria.bipartite import two_qubit_catalog

    # built once per process, outside the count; e0's superoperator is
    # formed on first read, which the first injection scan would count
    two_qubit_catalog().e0
    counts = {"superoperators": 0, "check_cptp": 0}
    post_init, check = linalg_core.Superoperator.__post_init__, linalg_core.check_cptp

    def counted_post_init(self):
        counts["superoperators"] += 1
        post_init(self)

    def counted_check(*args, **kwargs):
        counts["check_cptp"] += 1
        return check(*args, **kwargs)

    monkeypatch.setattr(linalg_core.Superoperator, "__post_init__",
                        counted_post_init)
    for name, module in list(sys.modules.items()):
        if name.startswith("symmetria") and getattr(module, "check_cptp",
                                                    None) is check:
            monkeypatch.setattr(module, "check_cptp", counted_check)
    for kind in ("injection", "relational"):
        made = []
        for grid in (4, 8):
            before = dict(counts)
            assert cli.main(["region", "--kind", kind, "--grid", str(grid)]) == 0
            made.append({k: counts[k] - before[k] for k in counts})
        assert made[0] == made[1], (kind, made)
    capsys.readouterr()


def test_region_scan_forms_no_full_choi_stack(monkeypatch, capsys):
    # both kinds scan the 6 x 6 zero-weight blocks: the 16 x 16 stack, a
    # test oracle, and the one-channel CPTP check are never reached
    from symmetria import cli

    def refuse(*args, **kwargs):
        raise AssertionError("the region scan formed a full Choi stack")

    for name, module in list(sys.modules.items()):
        if name.startswith("symmetria"):
            assert not hasattr(module, "region_choi_stack"), name
            if hasattr(module, "check_cptp"):
                monkeypatch.setattr(module, "check_cptp", refuse)
    for kind, columns in (("injection", 8), ("relational", 5)):
        assert cli.main(["region", "--kind", kind, "--grid", "8"]) == 0
        rows = [ln for ln in capsys.readouterr().out.splitlines()
                if ln.count(",") == columns - 1]
        assert len(rows) == 8 ** 3 + 1


def test_region_row_bytes_bound_the_output(capsys):
    from symmetria import cli

    for kind, columns in (("injection", 8), ("relational", 5)):
        assert cli.main(["region", "--kind", kind, "--grid", "8"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        held = sum(sys.getsizeof(r) + 8 for r in rows) + sum(map(len, rows))
        assert held <= cli._region_bytes(8, columns)


def test_region_refuses_a_grid_over_the_memory_budget(capsys):
    # 2000^3 CSV rows would need hundreds of GiB; refused before any row
    from symmetria import cli

    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = cli.main(["region", "--grid", "2000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 3
    assert "GiB" in err and "Traceback" not in err
    assert out == ""
    assert peak < 1 << 20
    assert time.perf_counter() - start < 1.0


def test_gauge_refuses_a_modulus_over_the_memory_budget(capsys):
    # at N = 64 the gauged element's transfer matrix alone is 64 GiB;
    # refused before any matrix is built
    from symmetria import cli

    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = cli.main(["gauge", "--n", "64"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 3
    assert "GiB" in err and "Traceback" not in err
    assert out == ""
    assert peak < 1 << 20
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("lattice, lattice_n", [("1x1", "5"), ("2x3", "3")])
def test_gauge_refuses_a_guarded_lattice_before_the_trials(capsys, lattice,
                                                          lattice_n):
    # the lattice is index structure, built before the two-site trials, so
    # its desk-scale guard refuses before any 655 MB gauged element is formed
    from symmetria import cli

    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = cli.main(["gauge", "--n", "20", "--trials", "2", "--lattice",
                         lattice, "--lattice-n", lattice_n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 3
    assert "desk-scale" in err and "Traceback" not in err
    assert out == ""
    assert peak < 1 << 20
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv", [
    ["catalytic", "--dim-a", "32", "--ladder", "64", "--rounds", "2"],
    ["catalytic", "--ladder", "8192", "--rounds", "1"],
    ["catalytic", "--dim-a", "3000", "--ladder", "3000"],
], ids=["profile-4GB", "reference-states-4GB", "dim-a-3000"])
def test_catalytic_refuses_a_run_over_the_memory_budget(capsys, argv):
    # the first would hold 4.3 GB of measure-and-prepare profile, the
    # second 3.2 GB of reference states beside a 0.5 GB profile index; all
    # are refused before the protocol is built, the third on its profile
    # before the mode-basis prediction forms 9e6 block pairs
    from symmetria import cli

    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 3
    assert "GiB, over the 2 GiB budget" in err and "Traceback" not in err
    assert out == ""
    assert peak < 1 << 20
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("d, D, rounds", [(8, 16, 2), (4, 128, 1),
                                         (2, 1024, 1), (2, 512, 2),
                                         (2, 512, 5), (16, 32, 2)])
def test_catalytic_byte_prediction_bounds_the_peak(capsys, d, D, rounds):
    # (8, 16, 2), (4, 128, 1) and (16, 32, 2) peak in the measure-and-prepare
    # profile beside its Z_D mode basis, (2, 1024, 1) in one round's
    # reference states; at D = 512 the reference states of every round are
    # live
    from symmetria import cli
    from symmetria.repeatability import catalytic_bytes

    tracemalloc.start()
    try:
        code = cli.main(["catalytic", "--dim-a", str(d), "--ladder", str(D),
                         "--rounds", str(rounds)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert catalytic_bytes(d, D, rounds) / 2 < peak <= catalytic_bytes(
        d, D, rounds)


@pytest.mark.parametrize("n, trials, lattice, lattice_n", [
    pytest.param(6, 1, "1x1", 2, id="6-1"),
    pytest.param(8, 2, "1x1", 2, id="8-2"),
    pytest.param(4, 1, "2x2", 3, id="4-1-2x2-Z3"),
    pytest.param(4, 1, "2x2", 4, id="4-1-2x2-Z4"),
])
def test_gauge_byte_prediction_bounds_the_peak(capsys, n, trials, lattice,
                                               lattice_n):
    # on the 1x1 lattice the peak is one gauged element beside the one
    # gather of its invariance residual; a second trial gauges only after
    # the first's element is freed.  On the 2x2 tori (dim 1,296 and 4,096)
    # the lattice stage is the peak: the maximally mixed state and the
    # free-state check's gauge-orbit gathers.
    from symmetria import cli
    from symmetria.gauge import build_gauged_lattice
    from symmetria.process_modes import MAX_STACK_BYTES

    tracemalloc.start()
    try:
        code = cli.main(["gauge", "--n", str(n), "--trials", str(trials),
                         "--lattice", lattice, "--lattice-n", str(lattice_n)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    lat = build_gauged_lattice(*map(int, lattice.split("x")), lattice_n)
    predicted = cli._gauge_bytes(n, lat)
    assert predicted / 2 < peak <= predicted
    # the largest modulus the budget admits, on the default lattice
    default = build_gauged_lattice(2, 2, 3)
    assert cli._gauge_bytes(22, default) <= MAX_STACK_BYTES \
        < cli._gauge_bytes(23, default)


def test_the_cached_parser_serves_a_valid_call_after_refused_ones():
    # build_parser is built once per process, so neither a refused call
    # nor a parse error may leave state behind for the next command
    from symmetria import cli
    from test_golden_cli import assert_numeric_equal, load_golden, run

    assert cli.build_parser() is cli.build_parser()
    refused = run(["table", "--p", "2"])
    assert refused["code"] == 3 and refused["stdout"] == ""
    malformed = run(["table", "--p", "not-a-number"])
    assert malformed["code"] == 2 and "invalid float" in malformed["stderr"]
    argv = ["table", "--p", "0.3", "--angle", "0.7"]
    want = load_golden()[" ".join(argv)]
    got = run(argv)
    assert got["code"] == want["code"] == 0, got["stderr"]
    assert_numeric_equal(got["stdout"], want["stdout"])


def test_catalytic_passes():
    r = run_cli("catalytic", "--ladder", "8", "--rounds", "3")
    assert r.returncode == 0, r.stderr
    assert "verdict: pass" in r.stdout


def test_malformed_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("decompose", str(bad))
    assert r.returncode == 2


def test_semantic_error_exits_3(tmp_path):
    # declared dims disagree with the declared group representation
    payload = {
        "dim_in": 3,
        "dim_out": 3,
        "group": {"kind": "su2", "two_j": [1]},
        "kraus": [[[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                   [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                   [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]],
    }
    f = tmp_path / "mismatch.json"
    f.write_text(json.dumps(payload))
    r = run_cli("decompose", str(f))
    assert r.returncode == 3, (r.stdout, r.stderr)


def test_seed_determinism():
    a = run_cli("--seed", "7", "catalytic", "--ladder", "8")
    b = run_cli("catalytic", "--ladder", "8",
                env_extra={"SYMMETRIA_SEED": "7"})
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout  # byte-identical; env seed equals flag seed
    c = run_cli("--seed", "8", "catalytic", "--ladder", "8")
    assert c.stdout != a.stdout


def _fixture_variant(tmp_path, name, edit):
    data = json.loads((FIXTURES / "dephasing.json").read_text())
    edit(data)
    f = tmp_path / f"{name}.json"
    f.write_text(json.dumps(data))  # NaN is written as the JSON token NaN
    return str(f)


def _nan_entry(d):
    d["kraus"][0][0][0] = [float("nan"), 0.0]


def _negative_two_j(d):
    d["group"] = {"kind": "su2", "two_j": [-1]}


def _modulus_zero(d):
    d["group"] = {"kind": "zn", "charges": [0, 1], "modulus": 0}


def _mixed_moduli(d):
    # Z_3 in, Z_4 out: charges mod 3 and mod 4 share no irrep labels
    d["group"] = {"kind": "zn", "charges": [0, 1], "modulus": 3}
    d["group_out"] = {"kind": "zn", "charges": [0, 1], "modulus": 4}


def _empty_su2(d):
    d.update(dim_in=0, dim_out=0, group={"kind": "su2", "two_j": []},
             kraus=[])


def _empty_zn(d):
    d.update(dim_in=0, dim_out=0,
             group={"kind": "zn", "charges": [], "modulus": 3}, kraus=[])


def _spin_39_2_identity(d):
    # d = 40: the smallest single-spin carrier whose factored mode basis is
    # predicted over 2 GiB
    d.update(dim_in=40, dim_out=40, group={"kind": "su2", "two_j": [39]},
             kraus=[[[[float(r == c), 0.0] for c in range(40)]
                     for r in range(40)]])


def _spin_79_2_identity(d):
    # d = 80: a 6,400^2 Choi matrix, refused before the payload's
    # conversion; from d = 69 on the load is predicted over 2 GiB
    d.update(dim_in=80, dim_out=80, group={"kind": "su2", "two_j": [79]},
             kraus=[[[[float(r == c), 0.0] for c in range(80)]
                     for r in range(80)]])


@pytest.mark.parametrize("args, code", [
    (("decompose", _nan_entry), 3),
    (("decompose", _negative_two_j), 3),
    (("decompose", _modulus_zero), 3),
    (("decompose", _mixed_moduli), 3),
    (("decompose", _empty_su2), 3),
    (("decompose", _empty_zn), 3),
    (("catalytic", "--dim-a", "0"), 2),
    (("catalytic", "--ladder", "1"), 2),
    (("catalytic", "--rounds", "0"), 2),
    (("gauge", "--lattice", "3x3"), 3),
    (("gauge", "--trials", "0"), 2),
    (("gauge", "--trials", "-1"), 2),
    (("gauge", "--lattice", "0x0"), 2),
    (("gauge", "--lattice", "2x0"), 2),
    (("gauge", "--lattice-n", "1"), 3),
    (("table", "--p", "2"), 3),
    (("table", "--angle", "inf"), 3),
    (("table", "--angle", "nan"), 3),
    (("region", "--grid", "0"), 2),
    (("region", "--kind", "relational", "--grid", "2000"), 3),
    (("gauge", "--n", "64"), 3),
    (("decompose", _spin_39_2_identity), 3),
    (("decompose", _spin_79_2_identity), 3),
    (("decompose", str(FIXTURES / "identity.json"), "--tol", "-1"), 2),
    (("decompose", str(FIXTURES / "identity.json"), "--tol", "nan"), 2),
    (("decompose", str(FIXTURES / "identity.json"), "--tol", "inf"), 2),
    (("bipartite", str(FIXTURES / "heisenberg-2qubit.json"), "--tol", "nan"),
     2),
    (("catalytic", "--dim-a", "40", "--ladder", "40", "--rounds", "2"), 3),
    (("--seed", "-1", "catalytic", "--ladder", "8"), 2),
    (("SYMMETRIA_SEED=abc", "catalytic", "--ladder", "8"), 2),
    (("SYMMETRIA_SEED=1.5", "catalytic", "--ladder", "8"), 2),
    (("gauge", "--n", "0"), 3),
    (("gauge", "--n", "-3"), 3),
], ids=["nan-entry", "negative-two-j", "modulus-zero", "mixed-moduli",
        "empty-su2", "empty-zn", "dim-a-0", "ladder-1",
        "rounds-0", "lattice-3x3", "trials-0", "trials-negative",
        "lattice-0x0", "lattice-2x0", "lattice-n-1", "table-p-2",
        "table-angle-inf", "table-angle-nan",
        "region-grid-0", "region-grid-over-budget", "gauge-n-over-budget",
        "over-memory-limit", "channel-load-over-budget", "tol-negative",
        "tol-nan", "tol-inf", "bipartite-tol-nan", "catalytic-over-limit",
        "seed-negative",
        "env-seed-abc", "env-seed-float", "gauge-n-0", "gauge-n-negative"])
def test_malformed_input_exit_code_without_traceback(tmp_path, args, code):
    if callable(args[1]):
        args = (args[0], _fixture_variant(tmp_path, args[1].__name__, args[1]))
    # a leading SYMMETRIA_SEED=value sets the variable, as in a shell
    env = dict(a.split("=", 1) for a in args[:1]
               if a.startswith("SYMMETRIA_SEED="))
    r = run_cli(*args[len(env):], env_extra=env)
    assert r.returncode == code, (r.stdout, r.stderr)
    assert "Traceback" not in r.stderr
    assert r.stderr.strip()


# Generated inputs for the exit-code contract: channel files with wrong
# types, shapes, NaN entries, huge integers and wrong group fields, and
# bounded option values (small enough that every call is quick) for each
# subcommand.
_JUNK = st.one_of(st.none(), st.booleans(), st.just(1.5), st.just("x"),
                  st.just([]), st.just({}), st.integers(-2 ** 70, 2 ** 70))
_NUMBERS = st.one_of(st.floats(), st.integers(-2, 2))  # NaN and inf too
_ENTRY = st.one_of(
    st.lists(st.one_of(_NUMBERS, st.just(10 ** 400)), max_size=3), _JUNK)
_MATRIX = st.one_of(st.lists(st.lists(_ENTRY, max_size=4), max_size=4),
                    _JUNK)
_INTS = st.one_of(st.integers(-1, 4), _JUNK)
_GROUP = st.one_of(
    st.fixed_dictionaries({"kind": st.just("su2"),
                           "two_j": st.one_of(st.lists(_INTS, max_size=3),
                                              _JUNK)}),
    st.fixed_dictionaries({"kind": st.just("zn"),
                           "charges": st.one_of(st.lists(_INTS, max_size=4),
                                                _JUNK),
                           "modulus": _INTS}),
    st.fixed_dictionaries({"kind": st.just("su2-qubits"), "n": _INTS}),
    st.fixed_dictionaries({"kind": _JUNK}), _JUNK)


def _square(d):
    """d x d matrices of [re, im] pairs of floats in [-2, 2], their first
    entry at times NaN, infinite or an integer too large for a float."""
    pair = st.lists(st.floats(-2, 2), min_size=2, max_size=2)
    rows = st.lists(st.lists(pair, min_size=d, max_size=d), min_size=d,
                    max_size=d)
    first = st.sampled_from((None, None, float("nan"), float("inf"),
                             10 ** 400))
    return st.tuples(rows, first).map(_with_first_entry)


def _with_first_entry(matrix_and_value):
    """The matrix with its first entry's real part replaced, unless the
    value is None."""
    M, value = matrix_and_value
    if value is None:
        return M
    return [[[value, M[0][0][1]], *M[0][1:]], *M[1:]]


# files that parse, on a qubit, a Z_3 qutrit and two qubits: their payloads
# reach the library, NaN and infinite entries included
_WELL_FORMED = st.sampled_from([
    (2, {"kind": "su2", "two_j": [1]}),
    (3, {"kind": "zn", "charges": [0, 1, 2], "modulus": 3}),
    (4, {"kind": "su2-qubits", "n": 2})]).flatmap(
        lambda dg: st.one_of(
            st.fixed_dictionaries({"kraus": st.lists(
                _square(dg[0]), min_size=1, max_size=2)}),
            st.fixed_dictionaries({"choi": _square(dg[0] ** 2)})).map(
                lambda payload: {"dim_in": dg[0], "dim_out": dg[0],
                                 "group": dg[1], **payload}))
_CHANNEL = st.one_of(
    _WELL_FORMED, _WELL_FORMED, _WELL_FORMED,  # three in five
    st.fixed_dictionaries(
        {"dim_in": _INTS, "dim_out": _INTS, "group": _GROUP},
        optional={"group_out": _GROUP, "choi": _MATRIX,
                  "kraus": st.one_of(st.lists(_MATRIX, max_size=3), _JUNK)}),
    _JUNK)
_OPTION_NUMBERS = st.one_of(st.integers(-2, 6), st.sampled_from(
    ("nan", "inf", "-inf", "1e308", "0.5", "x", "")))


def _opts(**choices):
    """argv option pairs ``--name=value``, each present or not."""
    return st.fixed_dictionaries({}, optional=choices).map(
        lambda picked: [f"--{k.replace('_', '-')}={v}"
                        for k, v in picked.items()])


_ARGV = st.one_of(
    st.tuples(st.sampled_from(("decompose", "polar", "bipartite")),
              _CHANNEL, st.sampled_from((None, None, None, 1, 17, 40)),
              _opts(tol=_OPTION_NUMBERS),
              st.sampled_from((("--allow-nonphysical",), ()))),
    st.tuples(st.just("table"), _opts(p=_OPTION_NUMBERS,
                                      angle=_OPTION_NUMBERS)),
    st.tuples(st.just("region"), _opts(
        kind=st.sampled_from(("injection", "relational", "other")),
        grid=_OPTION_NUMBERS)),
    st.tuples(st.just("catalytic"), _opts(
        dim_a=_OPTION_NUMBERS, ladder=st.integers(-1, 24),
        rounds=_OPTION_NUMBERS,
        sigma=st.sampled_from(("frame", "mixed", "random", "other")))),
    st.tuples(st.just("gauge"), _opts(
        n=_OPTION_NUMBERS, trials=st.integers(-1, 2),
        lattice=st.sampled_from(("1x1", "1x2", "2x1", "0x1", "x", "1x1x1")),
        lattice_n=st.integers(-1, 4))))


def _exit_code(argv) -> int:
    """cli.main's exit code for argv, argparse's SystemExit included, with
    its output discarded; any other exception propagates."""
    import contextlib
    import io

    from symmetria import cli

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as e:
            return e.code


@given(case=_ARGV,
       seed=st.sampled_from(((), (), ("--seed=3",), ("--seed=-1",))))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_generated_inputs_keep_the_exit_code_contract(case, seed):
    import tempfile

    command, *rest = case
    if command in ("decompose", "polar", "bipartite"):
        channel, cut, opts, flags = rest
        text = json.dumps(channel)
        if cut is not None:  # a cut short of the whole text: bad JSON
            text = text[:cut]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "channel.json"
            path.write_text(text)
            code = _exit_code([*seed, command, str(path), *opts, *flags])
    else:
        code = _exit_code([*seed, command, *rest[0]])
    assert code in (0, 1, 2, 3)


@pytest.mark.parametrize("text", [b"[" * 100_000 + b"]" * 100_000,
                                  b"\xff\xfe{}"],
                         ids=["nested-too-deep", "not-utf-8"])
def test_unreadable_channel_text_is_a_parse_error(tmp_path, capsys, text):
    # the first ended in a RecursionError traceback, the second in exit 3
    from symmetria import cli

    f = tmp_path / "channel.json"
    f.write_bytes(text)
    assert cli.main(["decompose", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: cannot read channel file")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["decompose", "polar", "bipartite"])
def test_a_channel_over_the_budget_is_refused_before_its_load(
        tmp_path, capsys, command):
    from symmetria import cli

    f = _fixture_variant(tmp_path, "spin-79-2", _spin_79_2_identity)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = cli.main([command, f])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 3
    assert "GiB, over the 2 GiB budget" in err and "Traceback" not in err
    assert out == ""
    assert peak < 4 << 20  # the parsed file, not its 6,400^2 Choi matrix
    assert time.perf_counter() - start < 1.0


def _identity_kraus(d):
    return {"kraus": [[[[float(r == c), 0.0] for c in range(d)]
                       for r in range(d)]]}


def _identity_choi(d):
    import numpy as np
    from symmetria.linalg_core import choi_of

    J = choi_of([np.eye(d)], d, d).choi
    return {"choi": np.stack([J.real, J.imag], axis=-1).tolist()}


@pytest.mark.parametrize("payload", [_identity_kraus, _identity_choi],
                         ids=["kraus", "choi"])
def test_channel_load_prediction_bounds_the_peak(tmp_path, monkeypatch,
                                                 payload):
    # the identity channel at d = 24, a 576^2 Choi matrix; json.load
    # returns the payload, built before the trace starts, as the prediction
    # counts the load past the parse
    from symmetria import cli

    d = 24
    data = dict(dim_in=d, dim_out=d, group={"kind": "su2", "two_j": [d - 1]},
                **payload(d))
    f = tmp_path / "identity-24.json"
    f.write_text("{}")
    monkeypatch.setattr(json, "load", lambda fp: data)
    tracemalloc.start()
    try:
        S = cli.load_channel(str(f))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S.dim_in == S.dim_out == d
    predicted = cli._load_bytes(d, d, f.stat().st_size)
    assert predicted / 2 < peak <= predicted


@pytest.mark.parametrize("payload", [_identity_kraus, _identity_choi],
                         ids=["kraus", "choi"])
def test_channel_load_prediction_bounds_the_peak_with_its_parse(tmp_path,
                                                                payload):
    # the same files, parsed: a 3.8 MB Choi file's parse holds 13 bytes per
    # file byte, under the 32 the prediction allows
    from symmetria import cli

    d = 24
    f = tmp_path / "identity-24.json"
    f.write_text(json.dumps(dict(
        dim_in=d, dim_out=d, group={"kind": "su2", "two_j": [d - 1]},
        **payload(d))))
    tracemalloc.start()
    try:
        S = cli.load_channel(str(f))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S.dim_in == S.dim_out == d
    assert peak <= cli._load_bytes(d, d, f.stat().st_size)


def test_a_channel_file_over_the_budget_is_refused_before_its_parse(
        tmp_path, capsys, monkeypatch):
    # a budget below the fixture's predicted parse: the file is refused on
    # its size, and json.load never runs
    from symmetria import cli, process_modes

    f = tmp_path / "dephasing.json"
    f.write_text((FIXTURES / "dephasing.json").read_text())

    def no_parse(fp):
        raise AssertionError("the file was parsed before its size check")

    monkeypatch.setattr(json, "load", no_parse)
    monkeypatch.setattr(process_modes, "MAX_STACK_BYTES",
                        cli._load_bytes(0, 0, f.stat().st_size) - 1)
    assert cli.main(["decompose", str(f)]) == 3
    err = capsys.readouterr().err
    assert f"a channel file of {f.stat().st_size} bytes needs about" in err
    assert "Traceback" not in err


_SU2 = {"kind": "su2", "two_j": [1]}
_ZN = {"kind": "zn", "charges": [0, 1], "modulus": 3}
_QUBITS = {"kind": "su2-qubits", "n": 2}
# each integer or list field of a channel file, as a path into the file,
# with the group descriptor that carries it
_FIELDS = {
    "dim_in": (_SU2, ("dim_in",)), "dim_out": (_SU2, ("dim_out",)),
    "kraus": (_SU2, ("kraus",)), "two_j": (_SU2, ("group", "two_j")),
    "two_j[0]": (_SU2, ("group", "two_j", 0)),
    "charges": (_ZN, ("group", "charges")),
    "charges[0]": (_ZN, ("group", "charges", 0)),
    "modulus": (_ZN, ("group", "modulus")), "n": (_QUBITS, ("group", "n")),
}
_WRONG = {"null": None, "true": True, "1.5": 1.5, "string": "x", "list": [],
          "object": {}, "1e30": 10 ** 30}


@pytest.mark.parametrize("field, wrong", [(f, w) for f in _FIELDS
                                          for w in _WRONG])
def test_channel_file_field_of_a_wrong_type_is_refused(tmp_path, capsys,
                                                       field, wrong):
    # a wrong JSON type is a parse error (2) naming the field; a value of
    # the right type that the library rejects stays a semantic error (3)
    from symmetria import cli

    group, path = _FIELDS[field]
    data = json.loads((FIXTURES / "dephasing.json").read_text())
    data["group"] = copy.deepcopy(group)
    if group is _QUBITS:
        data.update(dim_in=4, dim_out=4, kraus=[[[[float(r == c), 0.0]
                                                  for c in range(4)]
                                                 for r in range(4)]])
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = _WRONG[wrong]
    f = tmp_path / "wrong.json"
    f.write_text(json.dumps(data))
    code = cli.main(["decompose", str(f)])
    out, err = capsys.readouterr()
    assert code in (2, 3), (code, out)
    assert err.strip() and "Traceback" not in err
    if code == 2:  # the message names the field
        assert repr([key for key in path if isinstance(key, str)][-1]) in err


def _through(name, edit):
    """A patch of the name ``cli`` reads whose results pass through edit."""
    def patch(monkeypatch):
        from symmetria import cli
        call = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, **k: edit(call(*a, **k)))
    return patch


def _last_round_drifts(rounds):
    return rounds[:-1] + (replace(rounds[-1], choi_distance_to_first=1.0),)


def _gauged_hamiltonian_is_free(monkeypatch):
    from symmetria.gauge import GaugedLattice
    free = GaugedLattice.hamiltonian
    monkeypatch.setattr(GaugedLattice, "hamiltonian",
                        lambda self, gauged=True: free(self, gauged=False))


def _wilson_loops_are_link_clocks(monkeypatch):
    # the clock of link 0 and its inverse: diagonal, not gauge invariant
    import numpy as np
    from symmetria.gauge import GaugedLattice
    monkeypatch.setattr(GaugedLattice, "wilson_phases", property(
        lambda self: tuple(np.exp(s * 2j * np.pi * self._linkval[0] / self.N)
                           for s in (1, -1))))


def _nan_on_trial_2(monkeypatch):
    # a NaN after a finite figure: a running max(worst, x) would drop it
    from symmetria import cli
    call, trials = cli.gauge_2symmetric, iter(range(1, 3))
    monkeypatch.setattr(cli, "gauge_2symmetric", lambda *a: replace(
        call(*a), invariance_residual=float("nan"))
        if next(trials) == 2 else call(*a))
    return ["max local-invariance residual over 2 random elements: nan"]


def _last_gauss_commutator_is_nan(monkeypatch):
    from symmetria.gauge import GaugedLattice
    commutators = GaugedLattice.gauss_commutators

    def patched(self, M):
        out = commutators(self, M)
        out[list(out)[-1]] = float("nan")
        return out
    monkeypatch.setattr(GaugedLattice, "gauss_commutators", patched)
    return ["max Gauss commutator with H_gauged: nan",
            "min Gauss commutator with H_free: nan",
            "max Gauss commutator with a Wilson loop: nan"]


def _nan_table_row(monkeypatch):
    _through("axial_table", lambda rows: [rows[0], replace(
        rows[1], reconstruction_residual=float("nan")), *rows[2:]])(
            monkeypatch)
    return ["worst reconstruction residual: nan"]


def test_table_row_maximum_keeps_a_nan_after_the_first_deviation(
        monkeypatch):
    # Python's max keeps its running value when a comparison with NaN is
    # false, so a NaN second deviation would drop out of the printed maximum
    from test_golden_cli import run
    _through("axial_table", lambda rows: [replace(row, deviation=(
        row.deviation[0], float("nan"), *row.deviation[2:])) for row in rows])(
            monkeypatch)
    out = run(["table"])
    assert out["code"] == 0, out["stderr"]
    lines = [line for line in out["stdout"].splitlines()
             if line.startswith("  deviation:")]
    assert len(lines) == 5
    assert all(line.endswith("(max nan)") for line in lines)


_CATALYTIC = ["catalytic", "--ladder", "8", "--rounds", "3"]
_GAUGE = ["gauge", "--n", "3", "--trials", "2", "--lattice", "2x2"]


@pytest.mark.parametrize("argv, patch", [
    (["decompose", "fixtures/dephasing.json"],
     _through("decompose", lambda c: replace(c, residual=1.0))),
    (["table"], _through("axial_table", lambda rows: [
        replace(rows[0], reconstruction_residual=1.0), *rows[1:]])),
    (_CATALYTIC, _through("sequential_use", _last_round_drifts)),
    (_CATALYTIC, _through("measure_prepare_form",
                          lambda mp: replace(mp, max_x_residual=1.0))),
    (_GAUGE, _through("gauge_2symmetric",
                      lambda G: replace(G, invariance_residual=1.0))),
    (_GAUGE, _gauged_hamiltonian_is_free),
    (_GAUGE, _wilson_loops_are_link_clocks),
    (["table"], _nan_table_row),
    (_GAUGE, _nan_on_trial_2),
    (_GAUGE, _last_gauss_commutator_is_nan),
], ids=["decompose-residual", "table-row-residual", "catalytic-round-drift",
        "catalytic-x-residual", "gauge-invariance", "gauge-h-gauged",
        "gauge-wilson", "table-row-nan", "gauge-invariance-nan-trial-2",
        "gauge-commutator-nan"])
def test_a_figure_above_its_tolerance_exits_1(monkeypatch, argv, patch):
    from test_golden_cli import _NUMBER, run

    def masked(text):
        return re.sub(r"\bnan\b", "#", _NUMBER.sub("#", text))

    passed = run(argv)
    assert passed["code"] == 0, passed["stderr"]
    nan_lines = patch(monkeypatch) or []
    failed = run(argv)
    assert failed["code"] == 1 and failed["stderr"] == ""
    # every usual line is printed; only figures and the verdict differ
    want = passed["stdout"].replace("verdict: pass", "verdict: fail")
    assert masked(failed["stdout"]) == masked(want)
    # a NaN figure makes the maximum (or minimum) printed over it NaN
    assert set(nan_lines) <= set(failed["stdout"].splitlines())
    if argv[0] in ("catalytic", "gauge"):
        assert failed["stdout"].endswith("\nverdict: fail\n")


@pytest.mark.parametrize("flags", [[], ["--allow-nonphysical"]])
def test_bipartite_on_a_non_invariant_channel_exits_1(flags):
    # a seeded random CPTP channel, unpatched
    r = run_cli("bipartite", str(GOLDEN_CHANNELS / "qubits-random.json"),
                *flags)
    assert r.returncode == 1 and r.stderr == ""
    last = r.stdout.splitlines()[-1]
    assert last.startswith("non-invariant residual: ")
    assert float(last.split(": ")[1]) > 1e-10


def test_commands_without_checks_exit_0_whatever_they_print(monkeypatch):
    from test_golden_cli import run

    # polar's sphere warning and fit residual are reported, not checked
    patch = _through("polar_decompose", lambda pd: replace(
        pd, fit_residual=1.0,
        orbit_point=replace(pd.orbit_point, warning=True)))
    patch(monkeypatch)
    polar = run(["polar", "fixtures/dephasing.json"])
    assert polar["code"] == 0 and polar["stderr"] == ""
    assert "warning: residual above sphere tolerance" in polar["stdout"]
    assert "fit residual: 1\n" in polar["stdout"]
    # a scan with points outside the CPTP region
    region = run(["region", "--kind", "relational", "--grid", "3"])
    assert region["code"] == 0 and region["stderr"] == ""
    assert {row[-1] for row in region["stdout"].split()[1:]} == {"0", "1"}


def _verdict_code_reads(source: str) -> list:
    """(top-level definition or None, line) of each read of EXIT_OK or
    EXIT_FAIL, as a name or an attribute."""
    return [(getattr(top, "name", None), node.lineno)
            for top in ast.parse(source).body for node in ast.walk(top)
            if getattr(node, "id", getattr(node, "attr", None))
            in ("EXIT_OK", "EXIT_FAIL") and isinstance(node.ctx, ast.Load)]


def test_verdict_code_scan_flags_names_and_attributes():
    source = ("EXIT_OK = 0\n"
              "def cmd(args):\n    return cli.EXIT_FAIL\n"
              "def main():\n    return EXIT_OK if ok else EXIT_FAIL\n"
              "code = EXIT_OK\n")
    assert _verdict_code_reads(source) == [("cmd", 3), ("main", 5),
                                           ("main", 5), (None, 6)]


def test_only_main_reads_the_verdict_exit_codes():
    # the commands return their checks, and main alone turns them into 0 or
    # 1, so no command decides its own exit code
    import symmetria

    hits = {path.name: _verdict_code_reads(path.read_text())
            for path in sorted(Path(symmetria.__file__).parent.glob("*.py"))}
    assert {(name, owner) for name, reads in hits.items()
            for owner, _ in reads} == {("cli.py", "main")}


def test_gauge_lattice_modulus_below_two_names_the_modulus():
    r = run_cli("gauge", "--lattice-n", "1")
    assert r.returncode == 3
    assert "lattice link modulus must be at least 2" in r.stderr
    assert "desk-scale" not in r.stderr


def test_gauge_with_a_modulus_missing_some_mode_charges():
    # on the charge-{0, 1} rep, modes carry charges 0, +-1 and +-2 only, so
    # from N = 6 on some charges have no element to gauge
    r = run_cli("gauge", "--n", "6", "--trials", "3", "--lattice", "1x2")
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
    assert "verdict: pass" in r.stdout


def _d16_channel(tmp_path) -> str:
    """A seeded random channel on four spin-3/2 copies, written as Kraus
    operators: 65,536 process modes, whose dense matrix would be 68.7 GB."""
    import numpy as np
    from symmetria.linalg_core import kraus_of_choi, random_cptp

    S = random_cptp(16, 16, np.random.default_rng(16), env_dim=2)
    data = {"dim_in": 16, "dim_out": 16,
            "group": {"kind": "su2", "two_j": [3, 3, 3, 3]},
            "kraus": [[[[float(z.real), float(z.imag)] for z in row]
                       for row in A] for A in kraus_of_choi(S)]}
    f = tmp_path / "su2-d16.json"
    f.write_text(json.dumps(data))
    return str(f)


def test_decompose_d16_channel_in_process(tmp_path, capsys):
    from symmetria import cli

    code = cli.main(["decompose", _d16_channel(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert "Traceback" not in err
    residual = re.search(r"^reconstruction residual: (\S+)$", out, re.M)
    assert float(residual.group(1)) <= 1e-10
    assert "symmetric: no" in out


def test_cli_import_leaves_scipy_special_optimize_and_linalg_unloaded():
    # nothing in the library needs any of them, the polar axis of a channel
    # with a trivial stabilizer and its Clebsch-Gordan blocks included
    r = subprocess.run(
        [sys.executable, "-c", "import sys, numpy as np, symmetria.cli\n"
         "def unloaded():\n"
         "    return not {'scipy.special', 'scipy.optimize', 'scipy.linalg'}"
         " & set(sys.modules)\n"
         "assert unloaded()\n"
         "from symmetria.axial import FULL_GROUP, polar_decompose\n"
         "from symmetria.groups import RepSpec\n"
         "from symmetria.linalg_core import random_cptp\n"
         "from symmetria.process_modes import build_canonical_modes\n"
         "q = RepSpec.su2_spins([1])\n"
         "S = random_cptp(2, 2, np.random.default_rng(16))\n"
         "pd = polar_decompose(S, build_canonical_modes(q, q))\n"
         "assert pd.orbit_point.kind == FULL_GROUP\n"
         "assert unloaded()"],
        capture_output=True, text=True, env=child_env())
    assert r.returncode == 0, r.stderr


# ---------------------------------------------------------------------------
# Array passes: the per-number and per-line routes they replaced, as oracles
# ---------------------------------------------------------------------------

def _fmt_oracle(x) -> str:
    """One number at a time: 12 significant digits, -0 printed as 0, and a
    complex number's imaginary part with its own sign."""
    import numpy as np

    if type(x) is not float:
        if isinstance(x, complex) or (isinstance(x, np.generic)
                                      and np.iscomplexobj(x)):
            x = complex(x)
            re, im = f"{x.real:.12g}", f"{x.imag:.12g}"
            re = "0" if re == "-0" else re
            im = "0" if im == "-0" else im
            sign = "+" if not im.startswith("-") else ""
            return f"{re}{sign}{im}j"
        x = float(x)
    v = f"{x:.12g}"
    return "0" if v == "-0" else v


# signed zeros, NaN, infinities, subnormals, the largest doubles, and
# 13-digit integers ending in 5 (exact ties at 12 significant digits)
_SPECIAL = (0.0, -0.0, float("nan"), -float("nan"), float("inf"),
            -float("inf"), 5e-324, -5e-324, 2.2250738585072009e-308, 1e308,
            -1e308, 1.7976931348623157e308, 1234567890125.0,
            -1234567890135.0, 9999999999995.0, 1.0000000000005, 0.5)


_FLOATS = st.one_of(st.floats(), st.sampled_from(_SPECIAL),
                    st.integers(10 ** 11, 10 ** 12 - 1).map(
                        lambda k: float(10 * k + 5)))


@given(values=st.lists(_FLOATS, max_size=24),
       parts=st.lists(st.tuples(_FLOATS, _FLOATS), max_size=24))
@settings(max_examples=300, deadline=None)
@example(values=list(_SPECIAL), parts=[(a, b) for a in _SPECIAL[:4]
                                       for b in _SPECIAL[:4]])
def test_array_format_is_the_scalar_format_byte_for_byte(values, parts):
    import numpy as np
    from symmetria import cli

    reals = np.array(values, dtype=float)
    complexes = np.array([complex(a, b) for a, b in parts], dtype=complex)
    for a in (reals, complexes, reals.reshape(-1, 1)):
        want = [_fmt_oracle(v) for v in a.ravel()]
        assert cli.fmt_all(a) == want
        assert [cli.fmt(v) for v in a.ravel()] == want
    # Python numbers, not only numpy scalars
    assert [cli.fmt(v) for v in values] == [_fmt_oracle(v) for v in values]
    assert ([cli.fmt(complex(a, b)) for a, b in parts]
            == [_fmt_oracle(complex(a, b)) for a, b in parts])


def _decompose_oracle(path: str) -> str:
    """``decompose``'s stdout as printed one diagram at a time: one Diagram,
    one norm and one format call per number on each line."""
    import numpy as np
    from symmetria import cli
    from symmetria.process_modes import build_canonical_modes, decompose

    S, rep_in, rep_out = cli.load_channel(path)
    basis = build_canonical_modes(rep_in, rep_out)
    coeffs = decompose(S, basis)
    out = [f"command: decompose {path}", f"tolerance: {_fmt_oracle(1e-10)}",
           *cli.convention_block(), "modes:"]
    for diagram, span in basis.spans.items():
        vecs = coeffs.values[span]
        mag = float(np.linalg.norm(vecs))
        comps = " ".join(_fmt_oracle(v) for v in vecs)
        out.append(f"  {diagram}  |a| = {_fmt_oracle(mag)}  "
                   f"components: {comps}")
    sym = coeffs.is_symmetric(tol=1e-10)
    out.append(f"symmetric: {'yes' if sym else 'no'}")
    out.append(f"reconstruction residual: {_fmt_oracle(coeffs.residual)}")
    return "\n".join(out) + "\n"


GOLDEN_CHANNELS = Path(__file__).resolve().parent / "golden"


def test_decompose_table_is_the_per_line_oracle_byte_for_byte(tmp_path,
                                                              capsys):
    from symmetria import cli

    paths = [str(FIXTURES / f"{name}.json")
             for name in ("identity", "dephasing", "heisenberg-2qubit")]
    paths += [str(GOLDEN_CHANNELS / f"{name}.json")
              for name in ("z3-rotation", "spin1-half", "z7-d6")]
    for path in paths + [_d16_channel(tmp_path)]:
        assert cli.main(["decompose", path]) == 0
        assert capsys.readouterr().out == _decompose_oracle(path), path


def test_decompose_cost_does_not_grow_with_the_table(monkeypatch, capsys):
    # the table is formatted and labelled in array passes: as many scalar
    # format calls for 16 modes as for 1,296, and no Diagram per line
    from symmetria import cli

    calls, bases = [0], []
    fmt, build = cli.fmt, cli.build_canonical_modes

    def counted_fmt(x):
        calls[0] += 1
        return fmt(x)

    def kept_build(*args):
        bases.append(build(*args))
        return bases[-1]

    monkeypatch.setattr(cli, "fmt", counted_fmt)
    monkeypatch.setattr(cli, "build_canonical_modes", kept_build)
    made = []
    for path, modes in ((FIXTURES / "dephasing.json", 16),
                        (GOLDEN_CHANNELS / "z7-d6.json", 1296)):
        before = calls[0]
        assert cli.main(["decompose", str(path)]) == 0
        made.append(calls[0] - before)
        assert len(bases[-1].k) == modes
        assert not {"spans", "labels", "modes"} & bases[-1].__dict__.keys()
    assert made[0] == made[1], made
    capsys.readouterr()


def test_channel_payload_parses_to_the_per_entry_complex_numbers():
    import numpy as np
    from symmetria import cli

    data = json.loads((GOLDEN_CHANNELS / "z7-d6.json").read_text())["choi"]
    want = np.array([[complex(*c) for c in row] for row in data])
    got = cli._as_matrix(data, "choi")
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # signed zeros and integers too; no entry at all keeps its shape
    edge = [[[-0.0, 0], [3, -0.0]], [[2 ** 70, -1], [0.5, 1e-320]]]
    want = np.array([[complex(*c) for c in row] for row in edge])
    assert cli._as_matrix(edge, "kraus").tobytes() == want.tobytes()
    for empty in ([], [[]], [[], []]):
        assert cli._as_matrix(empty, "kraus").shape == np.array(empty).shape


def test_stdout_is_byte_stable_across_blas_thread_counts():
    # one subprocess per command and thread count
    for args in (("decompose", str(GOLDEN_CHANNELS / "z7-d6.json")),
                 ("region", "--grid", "8")):
        runs = [run_cli(*args, env_extra={"OPENBLAS_NUM_THREADS": threads})
                for threads in ("1", "2")]
        assert all(r.returncode == 0 for r in runs), runs[0].stderr
        assert runs[0].stdout == runs[1].stdout, args
