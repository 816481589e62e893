"""Conventions shared across modules: the exponent domain of every entry that
takes p, the one rank cutoff, the one trace form, that every LAPACK failure
is numpy's ``LinAlgError``, that ``__all__`` lists the public surface once,
that every private helper has a caller, and the rule that ``numpy.linalg``
routines are looked up when called (never bound at import), which the
benchmark's tracer relies on to count LAPACK calls."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import schatten_lab
from schatten_lab import cmatrix, ortho
from schatten_lab.norms import (
    NormSpec,
    evaluator,
    induced_norm,
    numerical_radius_banach,
    schatten_norm,
)
from schatten_lab.ortho import (
    PREDICATE_RTOL,
    bj_trace,
    clarkson_gap,
    isosceles,
    norm_additivity,
    semi_inner_product,
)
from schatten_lab.parallel import (
    _trace_residuals,
    epsilon_isometry_transfer,
    parallel_identity_trace,
    parallel_trace_class,
    parallel_trace_p,
)

INF = math.inf

_A = np.array([[1.0, 0.5j], [0.25, -0.75]], dtype=complex)
_B = np.array([[0.5, 0.0], [1j, 0.25]], dtype=complex)

# (entry, call with exponent p, lower end, lower end included, inf included)
_DOMAINS = [
    ("schatten_norm", lambda p: schatten_norm(_A, p), 0.0, False, True),
    ("induced_norm", lambda p: induced_norm(_A, p), 1.0, True, True),
    ("numerical_radius_banach", lambda p: numerical_radius_banach(_A, p), 1.0, False, False),
    ("NormSpec.schatten", NormSpec.schatten, 0.0, False, True),
    ("NormSpec.induced", NormSpec.induced, 1.0, True, True),
    ("NormSpec.lp", NormSpec.lp, 1.0, True, True),
    ("semi_inner_product", lambda p: semi_inner_product(_B, _A, p), 1.0, True, False),
    ("bj_trace", lambda p: bj_trace(_A, _B, p), 1.0, False, False),
    ("isosceles", lambda p: isosceles(_A, _B, p), 1.0, True, True),
    ("clarkson_gap", lambda p: clarkson_gap(_A, _B, p), 0.0, False, False),
    ("norm_additivity", lambda p: norm_additivity(_A, _B, p), 0.0, False, False),
    ("parallel_trace_p", lambda p: parallel_trace_p(_A, _B, p), 1.0, False, False),
    ("parallel_identity_trace", lambda p: parallel_identity_trace(_A, p), 1.0, True, False),
]


def _expected(p, lo, lo_in, inf_in) -> bool:
    return (lo < p or (lo_in and p == lo)) and (p < INF or inf_in)


@pytest.mark.parametrize("entry, call, lo, lo_in, inf_in", _DOMAINS,
                         ids=[d[0] for d in _DOMAINS])
class TestExponentDomains:
    def test_endpoints(self, entry, call, lo, lo_in, inf_in):
        for p in (0.0, 1.0, INF):
            if _expected(p, lo, lo_in, inf_in):
                call(p)
            else:
                with pytest.raises(ValueError):
                    call(p)

    def test_just_inside(self, entry, call, lo, lo_in, inf_in):
        call(lo + 1e-3)
        call(64.0)

    def test_nan(self, entry, call, lo, lo_in, inf_in):
        with pytest.raises(ValueError):
            call(math.nan)


def _unitary(seed, n):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


_U, _V = _unitary(3, 4), _unitary(4, 4)

# Singular values and the rank they carry under the RANK_RTOL cutoff.
_RANK_CASES = [
    ("zero", [0.0, 0.0, 0.0, 0.0], 0),
    ("rank two", [3.0, 1.0, 0.0, 0.0], 2),
    ("half cutoff dropped", [1.0, 0.5, 0.25, 0.5e-10], 3),
    ("twice cutoff kept", [1.0, 0.5, 0.25, 2e-10], 4),
    ("identity-like", [1.0, 1.0, 1.0, 1.0], 4),
]


def _with_singular_values(s):
    return (_U * np.asarray(s)) @ _V.conj().T


@pytest.mark.parametrize("s, rank", [c[1:] for c in _RANK_CASES],
                         ids=[c[0] for c in _RANK_CASES])
class TestRankCutoff:
    def test_polar(self, s, rank):
        iso = cmatrix.polar(_with_singular_values(s)).isometry
        assert round(np.trace(iso.conj().T @ iso).real) == rank

    def test_null_space(self, s, rank):
        assert cmatrix.null_space(_with_singular_values(s)).shape[1] == 4 - rank

    def test_sip_trace_core(self, s, rank):
        # With b = U V* every kept singular direction contributes exactly 1.
        core, _ = ortho._trace_form(_U @ _V.conj().T, _with_singular_values(s), 1.0)
        assert round(core.real) == rank

    def test_invertibility_gates(self, s, rank):
        a = _with_singular_values(s)
        if rank == 4:
            parallel_trace_class(a, np.eye(4))
        else:
            with pytest.raises(ValueError, match="singular"):
                parallel_trace_class(a, np.eye(4))
            with pytest.raises(ValueError, match="singular"):
                epsilon_isometry_transfer(np.eye(4), np.eye(4), a, 0.5)


def test_stack_members_keep_their_own_ranks():
    stack = np.stack([_with_singular_values(s) for _, s, _ in _RANK_CASES])
    moduli, ranks = cmatrix.moduli_and_ranks(stack)
    assert ranks.tolist() == [rank for _, _, rank in _RANK_CASES]
    for (_, s, rank), m in zip(_RANK_CASES, moduli):
        np.testing.assert_allclose(m, cmatrix.modulus(_with_singular_values(s)), atol=1e-12)
        # The modulus keeps exactly the kept singular values.
        w = np.linalg.eigvalsh(m)
        assert np.sum(w > cmatrix.RANK_RTOL * max(s[0], 1e-300)) == rank


# -- the trace form -------------------------------------------------------------
#
# One SVD of the first operand gives both the trace form tr(|a|^{p-1} u* b)
# and ||a||_p.  The references below build it apart from that SVD: separate
# Schatten norms times ``_trace_core``, from the public modulus power and
# polar factor, and tr(|a| a^{-1} b) by a solve.


def _trace_core(b, a, p):
    """tr(|a|^{p-1} u* b) with a = u |a| polar."""
    u = cmatrix.polar(a).isometry
    return complex(np.trace(cmatrix.abs_power(a, p - 1.0) @ u.conj().T @ b))


def _sip_reference(b, a, p):
    na = schatten_norm(a, p)
    return na ** (2.0 - p) * _trace_core(b, a, p) if na > 0 else 0j


def _bj_trace_reference(a, b, p):
    scale = schatten_norm(a, p) * schatten_norm(b, p)
    return abs(_sip_reference(b, a, p)) <= PREDICATE_RTOL * max(scale, 1e-300)


def _residuals_reference(a, b, p):
    na, nb = schatten_norm(a, p), schatten_norm(b, p)
    if na == 0.0 or nb == 0.0:
        return 0.0, 0.0
    fwd, rev = na ** (p - 1.0) * nb, nb ** (p - 1.0) * na
    return (abs(abs(_trace_core(b, a, p)) - fwd) / fwd,
            abs(abs(_trace_core(a, b, p)) - rev) / rev)


def _trace_class_reference(a, b):
    t = complex(np.trace(cmatrix.modulus(a) @ np.linalg.solve(a, b)))
    nb = schatten_norm(b, 1.0)
    return abs(abs(t) - nb) <= PREDICATE_RTOL * max(nb, 1e-300)


def _trace_pairs():
    rng = np.random.default_rng(29)

    def g(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    pairs = [(f"ginibre n={n}", g(n), g(n)) for n in (2, 3, 4, 5)]
    a = g(4)
    pairs.append(("dependent", a, -1.3j * a))
    deficient = g(4) @ np.diag([1.0, 1.0, 0.0, 0.0]) @ g(4)
    pairs += [("rank-deficient first", deficient, g(4)),
              ("rank-deficient second", g(4), deficient),
              ("zero first", np.zeros((3, 3), dtype=complex), g(3)),
              ("zero second", g(3), np.zeros((3, 3), dtype=complex))]
    return pairs


_TRACE_PAIRS = _trace_pairs()


@pytest.mark.parametrize("a, b", [c[1:] for c in _TRACE_PAIRS],
                         ids=[c[0] for c in _TRACE_PAIRS])
class TestOneTraceForm:
    def test_semi_inner_product(self, a, b):
        for p in (1.0, 1.5, 2.0, 3.0):
            scale = schatten_norm(a, p) * schatten_norm(b, p)
            assert abs(semi_inner_product(b, a, p) - _sip_reference(b, a, p)) \
                <= 1e-13 * scale

    def test_bj_trace(self, a, b):
        for p in (1.5, 2.0, 3.0):
            assert bj_trace(a, b, p) == _bj_trace_reference(a, b, p)
            # And on b orthogonalized against a, where the relation holds.
            na = schatten_norm(a, p)
            if na > 0:
                c = b - (_sip_reference(b, a, p) / na**2) * a
                assert bj_trace(a, c, p) == _bj_trace_reference(a, c, p)

    def test_trace_residuals(self, a, b):
        for p in (1.5, 2.0, 3.0):
            for new, old in zip(_trace_residuals(a, b, p), _residuals_reference(a, b, p)):
                assert abs(new - old) <= 1e-13

    def test_parallel_trace_class(self, a, b):
        if not cmatrix._kept(cmatrix.singular_values(a)).all():
            with pytest.raises(ValueError, match="singular"):
                parallel_trace_class(a, b)
            return
        t = complex(np.trace(cmatrix.modulus(a) @ np.linalg.solve(a, b)))
        assert abs(ortho._trace_form(b, a, 1.0)[0] - t) <= 1e-13 * schatten_norm(b, 1.0)
        assert parallel_trace_class(a, b) == _trace_class_reference(a, b)


@pytest.mark.parametrize("call, svds", [
    (lambda a, b: semi_inner_product(b, a, 1.5), 1),
    (lambda a, b: bj_trace(a, b, 1.5), 2),
    (lambda a, b: parallel_trace_p(a, b, 1.5), 2),
    (parallel_trace_class, 2),
], ids=["semi_inner_product", "bj_trace", "parallel_trace_p", "parallel_trace_class"])
def test_trace_form_svd_counts(monkeypatch, call, svds):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    call(_A, _B)
    assert len(calls) == svds


# -- LAPACK failures -----------------------------------------------------------


def _diverging(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


_M = np.eye(3, dtype=complex)


@pytest.mark.parametrize("fname, call", [
    ("svd", lambda: cmatrix.svd(_M)),
    ("svd", lambda: cmatrix.singular_values(_M)),
    ("svd", lambda: cmatrix.moduli_and_ranks(_M[None])),
    ("eigvals", lambda: cmatrix.eigenvalues(_M)),
    ("svd", lambda: cmatrix.null_space(_M)),
    ("eigh", lambda: cmatrix.hermitian_eigensystem(_M)),
    ("svd", lambda: schatten_norm(_M, 3.0)),
    ("svd", lambda: evaluator(NormSpec.schatten(3.0))[0](_M[None])),
    ("svd", lambda: evaluator(NormSpec.schatten(3.0))[1](_M)),
    ("svd", lambda: evaluator(NormSpec.induced(2.0))[0](_M[None])),
    ("svd", lambda: evaluator(NormSpec.induced(2.0))[1](_M)),
], ids=["svd", "singular_values", "moduli_and_ranks", "eigenvalues", "null_space",
        "hermitian_eigensystem", "schatten_norm", "evaluator-S3-batch",
        "evaluator-S3-scalar", "evaluator-I2-batch", "evaluator-I2-scalar"])
def test_lapack_failure_is_lin_alg_error(monkeypatch, fname, call):
    # Every factoring entry point lets numpy's LinAlgError through unchanged:
    # it is a ValueError, which the CLI maps to exit 2.
    monkeypatch.setattr(np.linalg, fname, _diverging)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge") as info:
        call()
    assert type(info.value) is np.linalg.LinAlgError


# -- the tracer contract ------------------------------------------------------


def _import_time_nodes(tree: ast.Module):
    """Nodes evaluated when the module is imported: everything but the
    bodies of functions and lambdas (their defaults and decorators count)."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(node.decorator_list)
            todo.extend(node.args.defaults)
            todo.extend(d for d in node.args.kw_defaults if d is not None)
        elif isinstance(node, ast.Lambda):
            todo.extend(node.args.defaults)
            todo.extend(d for d in node.args.kw_defaults if d is not None)
        else:
            todo.extend(ast.iter_child_nodes(node))


def linalg_bindings(source: str) -> list[str]:
    """Where ``source`` binds a ``numpy.linalg`` routine instead of looking
    it up at each call: ``from numpy.linalg import ...`` anywhere, or a
    ``numpy.linalg.<fn>`` reference evaluated at import time other than a
    call."""
    tree = ast.parse(source)
    found = [f"line {n.lineno}: from numpy.linalg import"
             for n in ast.walk(tree)
             if isinstance(n, ast.ImportFrom) and n.module == "numpy.linalg"]
    numpy_names, linalg_names = set(), set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            for alias in n.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                elif alias.name == "numpy.linalg":
                    if alias.asname:
                        linalg_names.add(alias.asname)
                    else:
                        numpy_names.add("numpy")
        elif isinstance(n, ast.ImportFrom) and n.module == "numpy":
            linalg_names.update(a.asname or a.name for a in n.names if a.name == "linalg")

    def is_linalg(node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in linalg_names
        return (isinstance(node, ast.Attribute) and node.attr == "linalg"
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names)

    nodes = list(_import_time_nodes(tree))
    called = {id(n.func) for n in nodes if isinstance(n, ast.Call)}
    for n in nodes:
        if (isinstance(n, ast.Attribute) and is_linalg(n.value)
                and not n.attr[:1].isupper() and id(n) not in called):
            found.append(f"line {n.lineno}: numpy.linalg.{n.attr} bound at import")
    return found


class TestTracerContract:
    def test_package_looks_up_linalg_at_call_time(self):
        for path in sorted(Path(schatten_lab.__file__).parent.glob("*.py")):
            assert linalg_bindings(path.read_text(encoding="utf-8")) == [], path.name

    @pytest.mark.parametrize("source", [
        "from numpy.linalg import svd",
        "def f(a):\n    from numpy.linalg import svd\n    return svd(a)",
        "import numpy as np\n_svd = np.linalg.svd",
        "import numpy\nTABLE = {'svd': numpy.linalg.svd}",
        "from numpy import linalg as la\nEIGH = la.eigh",
        "import numpy as np\ndef f(a, svd=np.linalg.svd):\n    return svd(a)",
        "import numpy as np\nclass K:\n    svd = np.linalg.svd",
    ])
    def test_guard_flags_bindings(self, source):
        assert linalg_bindings(source)

    @pytest.mark.parametrize("source", [
        "import numpy as np\ndef f(a):\n    return np.linalg.svd(a)",
        "import numpy as np\ndef f(a):\n    return g(np.linalg.svd, a)",
        "import numpy as np\ndef f(a):\n"
        "    try:\n        pass\n    except np.linalg.LinAlgError:\n        pass",
        "import numpy as np\nN = np.linalg.norm(np.eye(2))",
    ])
    def test_guard_passes_call_time_lookups(self, source):
        assert linalg_bindings(source) == []


_ROOT = Path(__file__).resolve().parents[1]

# The benchmark's traced run, cut to one untimed operation per workload.
_TRACED_WARM_UP = """
import json
import schatten_lab
from tracer import Tracer
from workloads import WORKLOADS

tracer = Tracer()
tracer.install(schatten_lab)
for make in WORKLOADS.values():
    workload = make(schatten_lab, 1, tracer)
    tracer.begin_op()
    workload.warm_up()
    tracer.end_op()
layers = tracer.per_layer(0.0)
tracer.stop()
print(json.dumps(sorted(layers)))
"""


@pytest.mark.skipif(not (_ROOT / "perfbench" / "tracer.py").is_file(),
                    reason="needs the benchmark harness next to the package")
def test_traced_warm_up_of_every_workload():
    # The tracer binds package functions and optimizer parameters by name,
    # so a name it binds that the package drops raises here, in a fresh
    # process (installing the tracer rebinds the package's functions).
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(_ROOT / "src"), str(_ROOT / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", _TRACED_WARM_UP], env=env, cwd=_ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    declared = json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"] for m in declared["per_layer"]} <= set(json.loads(proc.stdout))


# -- the public surface --------------------------------------------------------


def test_all_lists_the_public_surface_once():
    # A name left in __all__ after its import is removed breaks star imports.
    names = schatten_lab.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(schatten_lab, n)] == []
    public = {n for n, v in vars(schatten_lab).items()
              if not n.startswith("_") and not isinstance(v, type(schatten_lab))}
    assert public - set(names) == set()
    namespace = {}
    exec("from schatten_lab import *", namespace)
    assert set(names) <= set(namespace)


def test_every_private_helper_has_a_caller():
    # A deletion that leaves a private helper behind leaves dead code: every
    # private top-level function or class is read somewhere in the package
    # outside its own definition.
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((_ROOT / "src" / "schatten_lab").glob("*.py"))]
    private, read = set(), set()
    for tree in trees:
        for node in tree.body:
            defines = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defines = node.name
                if defines.startswith("_") and not defines.startswith("__"):
                    private.add(defines)
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute) else None)
                if name is not None and name != defines:
                    read.add(name)
    assert len(private) > 50
    assert sorted(private - read) == []
