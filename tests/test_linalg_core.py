"""Vectorisation, Choi/transfer round trips, and CPTP verification."""

import ast
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symmetria
from symmetria.linalg_core import (Monomial, Superoperator, apply, check_cptp,
                                   choi_of, conjugate, depolarizing_channel,
                                   hs_inner, identity_channel, kraus_of_choi,
                                   kron, random_cptp, unitary_channel, unvec,
                                   vec)

RNG = np.random.default_rng(20260823)


def _rand_complex(shape, rng=RNG):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_vec_round_trip(d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    assert np.array_equal(unvec(vec(X), d, d), X)
    # row-major convention: vec stacks rows
    if d > 1:
        assert vec(X)[1] == X[0, 1]


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_choi_transfer_round_trip(din, dout, seed):
    rng = np.random.default_rng(seed)
    S = random_cptp(din, dout, rng)
    S2 = Superoperator.from_choi(S.choi, din, dout)
    S3 = Superoperator.from_transfer(S.transfer, din, dout)
    assert np.linalg.norm(S2.transfer - S.transfer) < 1e-12
    assert np.linalg.norm(S3.choi - S.choi) < 1e-12


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_kraus_of_choi_reconstructs(d, seed):
    rng = np.random.default_rng(seed)
    S = random_cptp(d, d, rng)
    kraus = kraus_of_choi(S)
    S2 = choi_of(kraus, d, d)
    assert np.linalg.norm(S2.choi - S.choi) < 1e-10


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_random_cptp_is_cptp(d, seed):
    rng = np.random.default_rng(seed)
    S = random_cptp(d, d, rng)
    rep = check_cptp(S)
    assert rep.is_cp and rep.is_tp


def test_apply_matches_kraus():
    rng = np.random.default_rng(7)
    S = random_cptp(3, 2, rng)
    kraus = kraus_of_choi(S)
    X = _rand_complex((3, 3), rng)
    direct = sum(K @ X @ K.conj().T for K in kraus)
    assert np.linalg.norm(apply(S, X) - direct) < 1e-10


def test_identity_and_unitary_channels():
    I = identity_channel(3)
    X = _rand_complex((3, 3))
    assert np.linalg.norm(apply(I, X) - X) < 1e-12
    U = np.linalg.qr(_rand_complex((3, 3)))[0]
    C = unitary_channel(U)
    assert np.linalg.norm(apply(C, X) - U @ X @ U.conj().T) < 1e-12


def test_choi_of_reads_a_two_row_nested_list_as_one_operator():
    # a 2 x 2 Kraus operator given as nested lists has two rows, and is not
    # an (A, B) pair
    S = choi_of([[[1, 0], [0, 1]]], 2, 2)
    assert np.array_equal(S.transfer, identity_channel(2).transfer)


def test_depolarizing_channel_fixed_point():
    # p is the identity survival weight, so p = 0 is fully depolarizing
    S = depolarizing_channel(0.0, dim=2)
    rho = np.array([[0.7, 0.2j], [-0.2j, 0.3]])
    assert np.linalg.norm(apply(S, rho) - np.eye(2) / 2) < 1e-12


def test_check_cptp_flags_nonpositive():
    # transpose map: positive but not completely positive
    d = 2
    T = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            T[j * d + i, i * d + j] = 1.0
    S = Superoperator.from_transfer(T, d, d)
    rep = check_cptp(S)
    assert rep.is_tp and not rep.is_cp
    assert rep.min_choi_eigenvalue < -0.5


def test_hs_inner_is_choi_inner_product():
    rng = np.random.default_rng(3)
    A = random_cptp(2, 2, rng)
    B = random_cptp(2, 2, rng)
    assert abs(hs_inner(A, B)
               - np.trace(A.choi.conj().T @ B.choi)) < 1e-12
    assert abs(hs_inner(A, A).imag) < 1e-12


# ---------------------------------------------------------------------------
# the matrix Kronecker product and conjugation
# ---------------------------------------------------------------------------

def _same_bits(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("A, B", [
    (_rand_complex((1, 1)), _rand_complex((1, 1))),
    (_rand_complex((2, 3)), _rand_complex((4, 1))),
    (RNG.normal(size=(3, 2)), _rand_complex((2, 2))),
    (np.arange(6).reshape(2, 3), np.arange(-4, 4).reshape(4, 2)),
], ids=["1x1", "2x3-4x1", "real-complex", "int-int"])
def test_kron_is_numpy_kron_bit_for_bit(A, B):
    assert _same_bits(kron(A, B), np.kron(A, B))


def _conjugate_two_krons(S, U_out, U_in):
    """The two-Kronecker-product formula that ``conjugate`` replaces."""
    A = np.kron(U_out, U_out.conj())
    B = np.kron(U_in, U_in.conj())
    return A @ S.transfer @ B.conj().T


def _rand_unitary(d):
    return np.linalg.qr(_rand_complex((d, d)))[0]


@pytest.mark.parametrize("case", ["same object", "equal copies", "d_out != d_in"])
def test_conjugate_matches_the_two_kron_formula_bit_for_bit(case):
    d_in, d_out = (2, 3) if case == "d_out != d_in" else (3, 3)
    S = random_cptp(d_in, d_out, RNG)
    U_out = _rand_unitary(d_out)
    U_in = {"same object": U_out, "equal copies": U_out.copy()}.get(
        case, _rand_unitary(d_in))
    assert _same_bits(conjugate(S, U_out, U_in).transfer,
                      _conjugate_two_krons(S, U_out, U_in))


def test_library_forms_matrix_kronecker_products_only_with_kron():
    # linalg_core.kron is the one matrix Kronecker product and
    # Superoperator.tensor the one superoperator tensor product
    pattern = re.compile(r"\b(np|numpy)\.kron\b")
    hits = [f"{path.name}:{n}"
            for path in sorted(Path(symmetria.__file__).parent.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


def _unread_imports(source: str) -> list:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


def test_unread_import_scan_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\nfrom os import path, sep\n"
              "x = np.pi + len(sep)\n")
    assert _unread_imports(source) == ["math (line 2)", "path (line 4)"]


def test_library_modules_read_every_name_they_import():
    hits = [f"{path.name}: {name}"
            for path in sorted(Path(symmetria.__file__).parent.glob("*.py"))
            for name in _unread_imports(path.read_text())]
    assert hits == []


def _imports_scipy(source: str) -> bool:
    """True iff the source imports scipy or a scipy submodule."""
    return any(
        isinstance(node, ast.Import)
        and any(a.name.split(".")[0] == "scipy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] == "scipy"
        for node in ast.walk(ast.parse(source)))


def test_only_process_modes_gauge_and_cli_import_scipy():
    assert [_imports_scipy(source) for source in (
        "import scipy.sparse\n", "from scipy import sparse\n",
        "from scipy.linalg import expm\n", "from .scipy import x\n",
        "import numpy as scipy\n")] == [True, True, True, False, False]
    hits = {path.name
            for path in Path(symmetria.__file__).parent.glob("*.py")
            if _imports_scipy(path.read_text())}
    assert hits <= {"process_modes.py", "gauge.py", "cli.py"}


_SPAN_TARGET = re.compile(r"symmetria\.\w+:([\w.]+)")


def _unread_definitions(library: dict, readers: dict) -> list:
    """Functions, classes and methods (dunders aside) defined in the sources
    ``library`` (name -> text) whose name no source of library or readers
    reads outside that definition: as a name, an attribute, an imported name
    or a span target "symmetria.<module>:<name>"."""
    reads = []  # (source, line, name)
    for src, text in {**library, **readers}.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Name, ast.Attribute)):
                reads.append((src, node.lineno,
                              getattr(node, "id", getattr(node, "attr", ""))))
            elif isinstance(node, ast.ImportFrom):
                reads += [(src, node.lineno, a.name) for a in node.names]
        for n, line in enumerate(text.splitlines(), 1):
            reads += [(src, n, part) for target in _SPAN_TARGET.findall(line)
                      for part in target.split(".")]
    return sorted(
        f"{src}: {node.name}" for src, text in library.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not any(name == node.name and not (
            where == src and node.lineno <= line <= node.end_lineno)
            for where, line, name in reads))


def test_unread_definition_scan_flags_only_unread_names():
    library = {"lib.py": "def f():\n    return f()\n\n"
                         "class C:\n    def __init__(self): pass\n"
                         "    def m(self): pass\n    def n(self): pass\n"
                         "def g(): pass\ndef h(): pass\n"}
    readers = {"a.py": "from lib import g\nC().m()\n",
               "b.py": "TARGET = 'symmetria.lib:C.n'\n"}
    assert _unread_definitions(library, readers) == ["lib.py: f", "lib.py: h"]


def test_every_library_definition_is_read_somewhere():
    root = Path(__file__).resolve().parents[1]
    library = {str(p.relative_to(root)): p.read_text()
               for p in sorted((root / "src").rglob("*.py"))}
    readers = {str(p.relative_to(root)): p.read_text()
               for d in ("tests", "perfbench") for p in (root / d).rglob("*.py")}
    assert _unread_definitions(library, readers) == []


def test_monomial_with_unit_phases_conjugates_by_the_gather_alone():
    # every phase 1 (a pure permutation) skips both phase products; the
    # result equals the product route entry for entry, on matrices and on
    # transfer matrices, and a general monomial is still U M U^dag
    rng = np.random.default_rng(33)
    n = 7
    perm = rng.permutation(n)
    src = np.argsort(perm)
    for ones in (np.ones(n), np.ones(n, dtype=complex)):
        for U in (Monomial(perm, ones), Monomial(perm, ones).transfer()):
            M = _rand_complex((len(U.perm),) * 2, rng)
            at = np.argsort(U.perm)
            want = M.take(at, axis=0).take(at, axis=1) * U.phase[at, None]
            want *= U.phase[at].conj()
            assert np.array_equal(U.conjugate(M), want)
    U = Monomial(perm, np.exp(2j * np.pi * rng.uniform(size=n)))
    M = _rand_complex((n, n), rng)
    D = U.dense()
    assert np.abs(U.conjugate(M) - D @ M @ D.conj().T).max() <= 1e-14
    assert not np.shares_memory(Monomial(perm, np.ones(n)).conjugate(M), M)


def _two_take_conjugate(U, M):
    """Oracle: the two-``take`` route, one gather per axis, then the
    phases by one product and one in-place product."""
    src = np.argsort(U.perm)
    out = M.take(src, axis=0).take(src, axis=1)
    if np.all(U.phase == 1):
        return out
    out = out * U.phase[src, None]
    out *= U.phase[src].conj()
    return out


def test_monomial_conjugation_matches_the_two_take_route_bit_for_bit():
    rng = np.random.default_rng(34)
    n = 6
    perm = rng.permutation(n)
    for phase in (np.ones(n), np.ones(n, dtype=complex),
                  np.exp(2j * np.pi * rng.uniform(size=n)),
                  rng.choice([1.0, -1.0], size=n)):
        for U in (Monomial(perm, phase), Monomial(perm, phase).transfer()):
            for M in (_rand_complex((len(U.perm),) * 2, rng),
                      rng.normal(size=(len(U.perm),) * 2)):
                got = U.conjugate(M)
                assert got.dtype == _two_take_conjugate(U, M).dtype
                assert np.array_equal(got, _two_take_conjugate(U, M))


def test_monomial_conjugation_holds_one_copy_beside_its_input():
    # one gather, the phases applied in place: the traced peak is one
    # n x n copy plus O(n) index and phase arrays
    rng = np.random.default_rng(35)
    n = 512
    U = Monomial(rng.permutation(n), np.exp(2j * np.pi * rng.uniform(size=n)))
    M = _rand_complex((n, n), rng)
    tracemalloc.start()
    try:
        out = U.conjugate(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.nbytes <= peak < 1.1 * M.nbytes
    assert np.abs(out - U.dense() @ M @ U.dense().conj().T).max() <= 1e-12


def _budget_compares(source: str) -> list:
    """Lines of the comparisons that read the name MAX_STACK_BYTES."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare)
            and any(getattr(n, "id", getattr(n, "attr", None))
                    == "MAX_STACK_BYTES" for n in ast.walk(node))]


def test_budget_compare_scan_flags_names_and_attributes():
    source = ("if need > MAX_STACK_BYTES:\n    pass\n"
              "ok = pm.MAX_STACK_BYTES >= need\n"
              "limit = MAX_STACK_BYTES / 2\n")
    assert _budget_compares(source) == [1, 3]


def test_only_the_budget_helper_compares_against_the_budget():
    # every predicted peak is refused through process_modes.check_budget,
    # so the policy and its wording live in one place
    hits = {path.name: _budget_compares(path.read_text())
            for path in sorted(Path(symmetria.__file__).parent.glob("*.py"))}
    assert {name: lines for name, lines in hits.items() if lines} \
        == {"process_modes.py": hits["process_modes.py"]}
    assert len(hits["process_modes.py"]) == 1
