"""Golden CLI outputs: the README command set, decompose/polar/bipartite
on every fixture and decompose on the channels beside the golden file (a
hand-written Z_3 carrier, a hand-written spin-1 (+) spin-1/2 carrier and a
seeded random Z_7 channel on charges 0..5, whose table has 1,296 modes) and
bipartite on a seeded random two-qubit channel, compared numerically with
outputs captured before the superoperator storage refactor (the two
hand-written channels: before the ITO bases became one array; the Z_7
channel: before the tables were formatted in array passes; the two-qubit
channel: before the commands returned their checks to ``main``).

From the repository root,

    PYTHONPATH=src python tests/test_golden_cli.py

adds the entries of commands that the golden file lacks, and

    PYTHONPATH=src python tests/test_golden_cli.py --write "gauge --n 4 ..."

runs the named entries again (each key is a command line as in the file,
quoted; only for a change meant to alter that output, and review the diff).
Every other entry stays byte-identical.
"""

import contextlib
import functools
import gzip
import io
import json
import math
import os
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json.gz"
FIXTURES = ("fixtures/dephasing.json", "fixtures/heisenberg-2qubit.json",
            "fixtures/identity.json")
CHANNELS = ("tests/golden/z3-rotation.json", "tests/golden/spin1-half.json",
            "tests/golden/z7-d6.json")

# README usage block, then each fixture through decompose/polar/bipartite
# (the README's decompose and polar fixtures are not repeated), then
# decompose on each hand-written channel, then bipartite on a seeded random
# two-qubit channel (a failed check: exit 1)
COMMANDS = (
    ["table", "--p", "0.3", "--angle", "0.7"],
    ["bipartite"],
    ["region", "--kind", "injection", "--grid", "20"],
    ["region", "--kind", "relational", "--grid", "20"],
    ["--seed", "7", "catalytic", "--dim-a", "2", "--ladder", "16"],
    ["--seed", "3", "catalytic", "--dim-a", "4", "--ladder", "7", "--rounds",
     "3", "--sigma", "random"],
    ["gauge", "--n", "4", "--lattice", "2x2", "--lattice-n", "3"],
    ["gauge", "--n", "8", "--trials", "3", "--lattice", "1x2"],
) + tuple([cmd, f] for cmd in ("decompose", "polar", "bipartite")
          for f in FIXTURES) + tuple(["decompose", f] for f in CHANNELS) + (
    ["bipartite", "tests/golden/qubits-random.json"],)

TOL = 1e-12
_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def run(argv):
    """``symmetria.cli.main(argv)`` in-process from the repository root."""
    from symmetria import cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
    finally:
        os.chdir(cwd)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def allowed(ref: float) -> float:
    """TOL of the value (absolute below 1), widened to one unit in the 12th
    printed significant digit, the resolution of the CLI's output."""
    tol = TOL * max(1.0, abs(ref))
    if ref != 0.0:
        tol = max(tol, 1.01 * 10.0 ** (math.floor(math.log10(abs(ref))) - 11))
    return tol


def assert_numeric_equal(got: str, want: str):
    g_lines, w_lines = got.splitlines(), want.splitlines()
    assert len(g_lines) == len(w_lines)
    for i, (g, w) in enumerate(zip(g_lines, w_lines)):
        assert _NUMBER.sub("#", g) == _NUMBER.sub("#", w), f"line {i + 1}"
        for a, b in zip(_NUMBER.findall(g), _NUMBER.findall(w)):
            assert abs(float(a) - float(b)) <= allowed(float(b)), (
                f"line {i + 1}: {a} != golden {b}")


@functools.cache
def load_golden() -> dict:
    with gzip.open(GOLDEN, "rt") as f:
        return json.load(f)


def test_golden_file_is_its_entries_encoded():
    # so a refresh that keeps an entry keeps its bytes
    with gzip.open(GOLDEN, "rb") as f:
        assert f.read() == encode(load_golden())


def test_refresh_runs_only_missing_and_named_entries(monkeypatch):
    calls = []

    def stub(argv):
        calls.append(" ".join(argv))
        return {"code": 0, "stdout": "", "stderr": ""}
    monkeypatch.setattr(sys.modules[__name__], "run", stub)
    keys = [" ".join(argv) for argv in COMMANDS]
    stored = {key: {"stored": key} for key in keys[1:] + ["retired command"]}
    golden = refresh(stored, [keys[2]])
    assert calls == keys[:1] + keys[2:3]
    assert golden.keys() == stored.keys() | {keys[0]}
    assert all(golden[k] is stored[k] for k in stored if k != keys[2])
    with pytest.raises(KeyError, match="not golden commands"):
        refresh(stored, ["no such command"])


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_matches_golden(argv):
    want = load_golden()[" ".join(argv)]
    got = run(argv)
    assert got["code"] == want["code"], got["stderr"]
    assert_numeric_equal(got["stdout"], want["stdout"])
    assert got["stderr"] == want["stderr"]


def refresh(golden: dict, rewrite=()) -> dict:
    """golden with each command it lacks run and added, and each entry named
    in rewrite run again; every other entry is kept as stored."""
    keys = {" ".join(argv): argv for argv in COMMANDS}
    unknown = sorted(set(rewrite) - keys.keys())
    if unknown:
        raise KeyError(f"not golden commands: {unknown}")
    return {**golden, **{key: run(argv) for key, argv in keys.items()
                         if key not in golden or key in rewrite}}


def encode(golden: dict) -> bytes:
    """The golden file's JSON text (before compression)."""
    return json.dumps(golden, indent=1, sort_keys=True).encode()


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--write"] and len(args) > 1:
        rewrite = args[1:]
    elif not args:
        rewrite = []
    else:
        sys.exit('usage: python tests/test_golden_cli.py [--write "KEY" ...]')
    stored = load_golden() if GOLDEN.exists() else {}
    golden = refresh(stored, rewrite)
    changed = sorted(k for k in golden if golden[k] != stored.get(k))
    if golden != stored:
        GOLDEN.parent.mkdir(exist_ok=True)
        with gzip.GzipFile(GOLDEN, "wb", mtime=0) as f:
            f.write(encode(golden))
    print(f"{len(changed)} of {len(golden)} golden outputs changed in {GOLDEN}")
    for key in changed:
        print(f"  {key}")
