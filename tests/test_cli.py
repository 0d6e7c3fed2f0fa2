"""Command-line interface: exit codes, determinism, and output formats."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*args, env_extra=None):
    import os
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "symmetria", *args],
        capture_output=True, text=True, env=env,
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


def test_bipartite_catalog():
    r = run_cli("bipartite")
    assert r.returncode == 0, r.stderr
    for cls in ("local", "injection", "relational"):
        assert cls in r.stdout


def test_region_csv_shape():
    r = run_cli("region", "--kind", "injection", "--grid", "4")
    assert r.returncode == 0, r.stderr
    lines = [ln for ln in r.stdout.splitlines() if "," in ln]
    assert lines[0] == "x,y,z,X,Y,Z,min_eig,inside"
    assert len(lines) == 4 ** 3 + 1


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


def _spin_39_2_identity(d):
    # d = 40: the smallest single-spin carrier whose factored mode basis is
    # predicted over 2 GiB
    d.update(dim_in=40, dim_out=40, group={"kind": "su2", "two_j": [39]},
             kraus=[[[[float(r == c), 0.0] for c in range(40)]
                     for r in range(40)]])


@pytest.mark.parametrize("args, code", [
    (("decompose", _nan_entry), 3),
    (("decompose", _negative_two_j), 3),
    (("decompose", _modulus_zero), 3),
    (("catalytic", "--dim-a", "0"), 2),
    (("catalytic", "--ladder", "1"), 2),
    (("catalytic", "--rounds", "0"), 2),
    (("gauge", "--lattice", "3x3"), 3),
    (("gauge", "--trials", "0"), 2),
    (("gauge", "--trials", "-1"), 2),
    (("gauge", "--lattice", "0x0"), 2),
    (("gauge", "--lattice", "2x0"), 2),
    (("table", "--p", "2"), 3),
    (("region", "--grid", "0"), 2),
    (("decompose", _spin_39_2_identity), 3),
    (("decompose", str(FIXTURES / "identity.json"), "--tol", "-1"), 2),
    (("decompose", str(FIXTURES / "identity.json"), "--tol", "nan"), 2),
    (("decompose", str(FIXTURES / "identity.json"), "--tol", "inf"), 2),
    (("bipartite", str(FIXTURES / "heisenberg-2qubit.json"), "--tol", "nan"),
     2),
    (("catalytic", "--dim-a", "40", "--ladder", "40", "--rounds", "2"), 3),
], ids=["nan-entry", "negative-two-j", "modulus-zero", "dim-a-0", "ladder-1",
        "rounds-0", "lattice-3x3", "trials-0", "trials-negative",
        "lattice-0x0", "lattice-2x0", "table-p-2", "region-grid-0",
        "over-memory-limit", "tol-negative", "tol-nan", "tol-inf",
        "bipartite-tol-nan", "crosscheck-over-limit"])
def test_malformed_input_exit_code_without_traceback(tmp_path, args, code):
    if callable(args[1]):
        args = (args[0], _fixture_variant(tmp_path, args[1].__name__, args[1]))
    r = run_cli(*args)
    assert r.returncode == code, (r.stdout, r.stderr)
    assert "Traceback" not in r.stderr
    assert r.stderr.strip()


def test_gauge_with_a_modulus_missing_some_mode_charges():
    # on the charge-{0, 1} rep, modes carry charges 0, +-1 and +-2 only, so
    # from N = 6 on some charges have no element to gauge
    r = run_cli("gauge", "--n", "6", "--trials", "3", "--lattice", "1x2")
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
    assert "verdict: pass" in r.stdout


def test_decompose_d16_channel_in_process(tmp_path, capsys):
    # 65,536 process modes, whose dense matrix would be 68.7 GB
    import numpy as np
    from symmetria import cli
    from symmetria.linalg_core import kraus_of_choi, random_cptp

    S = random_cptp(16, 16, np.random.default_rng(16), env_dim=2)
    data = {"dim_in": 16, "dim_out": 16,
            "group": {"kind": "su2", "two_j": [3, 3, 3, 3]},
            "kraus": [[[[float(z.real), float(z.imag)] for z in row]
                       for row in A] for A in kraus_of_choi(S)]}
    f = tmp_path / "su2-d16.json"
    f.write_text(json.dumps(data))
    code = cli.main(["decompose", str(f)])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert "Traceback" not in err
    residual = re.search(r"^reconstruction residual: (\S+)$", out, re.M)
    assert float(residual.group(1)) <= 1e-10
    assert "symmetric: no" in out


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is imported only by polar's Nelder-Mead fallback
    r = subprocess.run(
        [sys.executable, "-c", "import sys, symmetria.cli; "
         "assert 'scipy.optimize' not in sys.modules"],
        capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
