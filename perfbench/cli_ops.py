"""The `cli` workload's script, its golden outputs and output checks.

Run ``python3 perfbench/cli_ops.py --write`` from the repository root (with
``src`` on ``PYTHONPATH``) to capture the golden outputs again; do so only
for a change that means to alter CLI output, and review the diff.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import sys

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "cli.json")

FIXTURES = ("fixtures/dephasing.json", "fixtures/heisenberg-2qubit.json",
            "fixtures/identity.json")

# (argv, expected exit code).  Deterministic: compared with golden output.
FIXED_SCRIPT = (
    [(["decompose", f], 0) for f in FIXTURES]
    + [(["polar", f], 0) for f in FIXTURES]
    + [(["bipartite", FIXTURES[0]], 3), (["bipartite", FIXTURES[1]], 0),
       (["bipartite", FIXTURES[2]], 3), (["bipartite"], 0),
       (["table", "--p", "0.3", "--angle", "0.7"], 0),
       (["region", "--kind", "injection", "--grid", "8"], 0),
       (["region", "--kind", "relational", "--grid", "8"], 0)]
)

# Lines holding a residual or drift figure: checked against a tolerance
# rather than a golden value.  (pattern, tolerance, check name)
TOLERANCE_LINES = (
    (re.compile(r"^reconstruction residual: (\S+)$"), 1e-10,
     "decompose.residual"),
    (re.compile(r"^(?:  |worst )reconstruction residual: (\S+)$"), 1e-8,
     "table.residual"),
    (re.compile(r"^fit residual: (\S+)$"), 1e-8, "polar.fit_residual"),
    (re.compile(r"^non-invariant residual: (\S+)$"), 1e-10,
     "bipartite.residual"),
    (re.compile(r"choi distance to round 1 = (\S+)"), 1e-10,
     "catalytic.round_drift"),
    (re.compile(r"^two-round full-tensor cross-check: (\S+)$"), 1e-10,
     "catalytic.crosscheck"),
    (re.compile(r"^measure-prepare X residual: (\S+)$"), 1e-10,
     "catalytic.x_residual"),
)

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


class Mismatch(Exception):
    """CLI output differs from its golden copy or breaks a tolerance."""


def invoke(cli_module, argv):
    """Run ``cli.main(argv)`` in-process with stdout and stderr captured.

    argparse reports usage errors by raising SystemExit, which is the CLI's
    normal exit path and becomes the exit code.  Any other exception
    propagates: it is a traceback the user would see.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_module.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def key_of(argv) -> str:
    return " ".join(argv)


def _allowed(ref: float) -> float:
    """1e-12 of the value (absolute below 1), widened to one unit in the
    12th printed significant digit, the resolution of the CLI's output."""
    tol = 1e-12 * max(1.0, abs(ref))
    if ref != 0.0:
        tol = max(tol, 1.01 * 10.0 ** (math.floor(math.log10(abs(ref))) - 11))
    return tol


def compare_numeric(got: str, want: str) -> None:
    """Equal text skeletons, numbers equal to within ``_allowed``."""
    g_lines, w_lines = got.splitlines(), want.splitlines()
    if len(g_lines) != len(w_lines):
        raise Mismatch(f"{len(g_lines)} lines, golden has {len(w_lines)}")
    for i, (g, w) in enumerate(zip(g_lines, w_lines)):
        if _NUMBER.sub("#", g) != _NUMBER.sub("#", w):
            raise Mismatch(f"line {i + 1}: {g!r} != golden {w!r}")
        for a, b in zip(_NUMBER.findall(g), _NUMBER.findall(w)):
            fa, fb = float(a), float(b)
            if abs(fa - fb) > _allowed(fb):
                raise Mismatch(f"line {i + 1}: {a} != golden {b}")


def tolerance_lines(stdout: str, code: int, checks) -> str:
    """Check every residual line against its tolerance, consistently with
    the verdict: exit 0 needs the figure within tolerance, exit 1 (failed
    verdict) needs it above.  Returns stdout with those figures masked so
    the rest can be compared with a golden copy."""
    masked = []
    for line in stdout.splitlines():
        for pattern, tol, name in TOLERANCE_LINES:
            m = pattern.search(line)
            if m is None:
                continue
            value = float(m.group(1))
            if code == 1:
                if not value > tol:
                    raise Mismatch(f"exit 1 but {name} {value} <= {tol}")
            else:
                checks.within(name, value, tol)
            line = line[:m.start(1)] + "<checked>" + line[m.end(1):]
            break
        masked.append(line)
    return "\n".join(masked)


def check_output(result, expected_code: int, golden, checks,
                 required=()) -> None:
    code, stdout, _stderr = result
    if code != expected_code:
        raise Mismatch(f"exit code {code}, contract expects {expected_code}")
    masked = tolerance_lines(stdout, code, checks)
    for text in required:
        if text not in stdout:
            raise Mismatch(f"missing output line {text!r}")
    if golden is not None:
        if golden["code"] != code:
            raise Mismatch(f"exit code {code}, golden has {golden['code']}")
        compare_numeric(masked, golden["masked_stdout"])


def load_golden() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


class _NoChecks:
    def within(self, name, value, tol):
        if not value <= tol:
            raise Mismatch(f"{name} {value} above {tol}")


def write_golden() -> None:
    import symmetria.cli as cli_module

    golden = {}
    for argv, expected in FIXED_SCRIPT:
        code, stdout, _ = invoke(cli_module, argv)
        if code != expected:
            raise SystemExit(f"{key_of(argv)}: exit {code}, want {expected}")
        golden[key_of(argv)] = {
            "code": code,
            "masked_stdout": tolerance_lines(stdout, code, _NoChecks()),
        }
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(golden)} golden outputs to {GOLDEN_PATH}")


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--write", action="store_true",
                   help="capture golden outputs from the current source tree")
    if not p.parse_args().write:
        p.error("nothing to do; pass --write to capture golden outputs")
    sys.path.insert(0, "src")
    write_golden()
