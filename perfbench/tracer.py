"""Outside-in tracing of schatten_lab for the benchmark's traced run.

``Tracer.install`` replaces, from outside the package, every public function
at every module-level binding across ``schatten_lab.*`` with a wrapper that
records a span; the same function gets the same wrapper wherever it is
bound.  It also wraps the references held in tables (``laws._SINGLE_DRAWS``
and the runners in ``laws.SUITES``) and the LAPACK-backed routines of
``numpy.linalg`` (``norm`` is left out: it is a reduction, called in the
inner loops of the ascents).  Nothing in the package itself changes.

A span has a name, start, end, parent span and operation id; spans are kept
in flat arrays in memory and written out once, at the end.  Self time is a
span's duration minus the durations of its child spans.  Spans outside an
operation (set-up, warm-up, the suite loop between trials) carry operation
id -1 and are left out of the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LINALG = ("svd", "eigh", "eigvalsh", "eigvals", "qr", "solve", "inv")


def _matrices(args, kwargs) -> int:
    a = args[0] if args else next(iter(kwargs.values()))
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _operands(args, kwargs) -> int:
    return int(np.shape(args[0] if args else kwargs["stack"])[0])


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One entry per span, in start order; the span's id is its index.
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("i")
        self._stack = [-1]
        # Operation k holds the spans with index in [op_first[k], op_last[k]).
        self.op_first = array("q")
        self.op_last = array("q")
        self.in_op = False
        #: Work sizes per span name and evaluation counters, added up inside
        #: operations only.
        self.sizes: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    # -- operations ---------------------------------------------------------

    def begin_op(self) -> None:
        self.op_first.append(len(self.start))
        self.in_op = True

    def end_op(self) -> None:
        self.op_last.append(len(self.start))
        self.in_op = False

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, size_of=None, adapt=None):
        """Span-recording wrapper of ``fn``.  ``size_of(args, kwargs)`` gives
        the work size added up under ``name``; ``adapt(args, kwargs)`` may
        swap callbacks for counting ones."""
        nid = self._name_id(name)
        start, end = self.start, self.end
        add_start, add_end = start.append, end.append
        add_parent, add_name = self.parent.append, self.name.append
        stack = self._stack
        push, pop = stack.append, stack.pop

        def traced(*args, **kwargs):
            if adapt is not None:
                args, kwargs = adapt(args, kwargs)
            if size_of is not None and self.in_op:
                self.sizes[name] += size_of(args, kwargs)
            idx = len(start)
            add_parent(stack[-1])
            add_name(nid)
            add_end(0.0)
            push(idx)
            add_start(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                pop()

        traced.__wrapped__ = fn
        return traced

    def counting(self, fn, key: str, per_item: bool = False):
        """Callback wrapper that counts calls (or items of the first argument)
        under ``key`` while an operation runs."""
        counts = self.counts

        def counted(*args, **kwargs):
            if self.in_op:
                counts[key] += len(args[0]) if per_item else 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -------------------------------------------------------

    def _adapters(self, search) -> dict:
        def bound(fn, edit):
            sig = inspect.signature(fn)

            def adapt(args, kwargs):
                ba = sig.bind(*args, **kwargs)
                edit(ba.arguments, sig)
                return ba.args, ba.kwargs

            return adapt

        def gamma_min(arg, sig):
            arg["f_batch"] = self.counting(arg["f_batch"], "search.gamma_min.grid_points", True)
            arg["f_scalar"] = self.counting(arg["f_scalar"], "search.gamma_min.evals")

        def circle_max(arg, sig):
            arg["f_scalar"] = self.counting(arg["f_scalar"], "search.circle_max.evals")

        def multistart_ascent(arg, sig):
            starts = arg.get("starts", sig.parameters["starts"].default)
            extra = arg.get("extra_starts")
            if self.in_op:
                self.counts["search.multistart_ascent.starts"] += starts + len(extra or ())
            arg["value_fn"] = self.counting(arg["value_fn"], "search.multistart_ascent.value_evals")
            arg["grad_fn"] = self.counting(arg["grad_fn"], "search.multistart_ascent.grad_evals")

        def hill_climb(arg, sig):
            arg["value_fn"] = self.counting(arg["value_fn"], "search.hill_climb.value_evals")

        return {
            search.gamma_min: bound(search.gamma_min, gamma_min),
            search.circle_max: bound(search.circle_max, circle_max),
            search.multistart_ascent: bound(search.multistart_ascent, multistart_ascent),
            search.hill_climb: bound(search.hill_climb, hill_climb),
        }

    def install(self, sl) -> None:
        modules = [sl] + [importlib.import_module(f"{sl.__name__}.{m.name}")
                          for m in pkgutil.iter_modules(sl.__path__)]
        norms, laws = sl.norms, sl.laws
        adapters = self._adapters(sl.search)
        sizes = {norms.norm_value_batch: _operands}
        wrapped: dict = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(sl.__name__)):
                    continue
                if obj not in wrapped:
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrapped[obj] = self.wrap(obj, name, sizes.get(obj), adapters.get(obj))
                setattr(mod, attr, wrapped[obj])
        for kind, fn in list(laws._SINGLE_DRAWS.items()):
            laws._SINGLE_DRAWS[kind] = wrapped.get(fn, fn)
        for sid, spec in list(laws.SUITES.items()):
            laws.SUITES[sid] = dataclasses.replace(
                spec, runner=self.wrap(spec.runner, f"laws.{sid}"))
        self._linalg = {f: getattr(np.linalg, f) for f in LINALG}
        for fname, fn in self._linalg.items():
            setattr(np.linalg, fname, self.wrap(fn, f"numpy.linalg.{fname}", _matrices))

    def stop(self) -> None:
        """Put ``numpy.linalg`` back, so that the checks run untraced."""
        for fname, fn in self._linalg.items():
            setattr(np.linalg, fname, fn)

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict:
        a = {key: np.array(getattr(self, key))
             for key in ("start", "end", "parent", "name", "op_first", "op_last")}
        op = np.full(len(a["start"]), -1, dtype=np.int64)
        for k, (lo, hi) in enumerate(zip(a["op_first"], a["op_last"])):
            op[lo:hi] = k
        a["op"] = op
        return a

    def save(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names),
                            **{k: a[k] for k in ("start", "end", "parent", "name", "op")})

    def per_layer(self, import_ms: float) -> dict[str, float]:
        """The per-layer metrics, per operation unless named ``_per_call``."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        inside = a["op"] >= 0
        k = len(self.names)
        nid = a["name"][inside]
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=self_time[inside], minlength=k)
        total_s = np.bincount(nid, weights=dur[inside], minlength=k)
        ops = max(len(self.op_last), 1)

        def ids(*names):
            return [self._ids[n] for n in names if n in self._ids]

        def per_op(arr, *names, scale=1.0):
            return float(sum(arr[i] for i in ids(*names))) * scale / ops

        def per_call(key, name):
            n = sum(calls[i] for i in ids(name))
            return self.counts.get(key, 0) / n if n else 0.0

        m: dict[str, float] = {}
        for layer, names in (("svd", ("numpy.linalg.svd",)),
                             ("eigh", ("numpy.linalg.eigh", "numpy.linalg.eigvalsh"))):
            m[f"cmatrix.{layer}.matrices_per_op"] = sum(self.sizes[n] for n in names) / ops
            m[f"cmatrix.{layer}.self_ms_per_op"] = per_op(self_s, *names, scale=1e3)
        for name in ("cmatrix.as_matrix", "norms.norm_value", "norms.schatten_norm_trusted",
                     "norms.induced_norm", "search.gamma_min", "search.circle_max",
                     "search.multistart_ascent", "ortho.bj_definitional",
                     "parallel.parallel_definitional"):
            m[f"{name}.calls_per_op"] = per_op(calls, name)
        for name in ("cmatrix.as_matrix", "norms.norm_value", "norms.norm_value_batch",
                     "norms.schatten_norm_trusted", "norms.numerical_radius_hilbert",
                     "norms.numerical_radius_banach", "norms.induced_norm",
                     "search.gamma_min", "search.nelder_mead_complex", "search.circle_max",
                     "search.golden_section_max", "search.multistart_ascent",
                     "search.hill_climb", "ortho.bj_definitional", "ortho.loewner_domination",
                     "parallel.parallel_definitional", "parallel.parallel_identity_radius",
                     "parallel.hilbert_parallel_witness"):
            m[f"{name}.self_ms_per_op"] = per_op(self_s, name, scale=1e3)
        m["norms.norm_value_batch.operands_per_op"] = self.sizes["norms.norm_value_batch"] / ops
        for key, name in (
                ("search.gamma_min.evals", "search.gamma_min"),
                ("search.gamma_min.grid_points", "search.gamma_min"),
                ("search.circle_max.evals", "search.circle_max"),
                ("search.multistart_ascent.starts", "search.multistart_ascent"),
                ("search.multistart_ascent.value_evals", "search.multistart_ascent"),
                ("search.multistart_ascent.grad_evals", "search.multistart_ascent"),
                ("search.hill_climb.value_evals", "search.hill_climb")):
            m[f"{key}_per_call"] = per_call(key, name)

        for i in range(1, 16):
            j = ids(f"laws.S{i}")
            m[f"laws.S{i}.ms_per_trial"] = (
                float(total_s[j[0]] / calls[j[0]] * 1e3) if j and calls[j[0]] else 0.0)

        ens = np.array([n.startswith("ensembles.") for n in self.names] + [False])
        draw = ens.copy()
        if "ensembles.rng_for" in self._ids:
            draw[self._ids["ensembles.rng_for"]] = False
        parent_name = np.where(has_parent, a["name"][np.where(has_parent, a["parent"], 0)], k)
        top_draws = inside & draw[a["name"]] & ~ens[parent_name]
        m["laws.draws_per_trial"] = float(top_draws.sum()) / ops
        m["ensembles.self_ms_per_op"] = float(self_s[ens[:k]].sum()) * 1e3 / ops
        m["cli.import_ms"] = import_ms
        return m
