"""Span tracer for the traced benchmark run.

``Tracer.install(nullpoly)`` wraps every public function of every nullpoly
module, in every namespace that binds it, so a call through
``canonical.kempner_basis`` or through ``oracle``'s own global
``is_null_binomial`` is seen as well as a call through the package.
``Polynomial`` methods are wrapped on the class. A generator function is
timed over its full consumption, one resume at a time.

Open spans sit on a stack; a closing span adds its duration to its
parent's child time, so self time is a span's duration minus its
children's. Spans are folded into per-function totals and per-edge call
counts as they close, which keeps memory flat however many calls a run
makes.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

MODULES = ("polys", "primes", "construct", "oracle", "canonical", "counting", "modulus", "cli")
_METHODS = {
    "__mul__": "mul", "__add__": "add", "__sub__": "sub", "__neg__": "neg",
    "__pow__": "pow", "__call__": "call", "eval_mod": "eval_mod", "shift": "shift",
}
# Counters merged by max rather than by sum.
MAX_COUNTERS = ("polys.mul.max_coeff_bits", "counting.count.max_exponent")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, errors]
        self.edges: dict[str, int] = {}   # "parent>child" -> calls
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []      # [name, start, child_s]
        self._objects = [0]

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name):
        span = [name, time.perf_counter(), 0.0]
        self._stack.append(span)
        return span

    def _close(self, span):
        """Pop span; return (duration, self time)."""
        dur = time.perf_counter() - span[1]
        self._stack.pop()
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            edge = f"{parent[0]}>{span[0]}"
            self.edges[edge] = self.edges.get(edge, 0) + 1
        return dur, dur - span[2]

    def _record(self, name, dur, self_s, error):
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        st[0] += 1
        st[1] += dur
        st[2] += self_s
        st[3] += error

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark opens itself, around one question."""
        span, error = self._open(name), True
        try:
            yield
            error = False
        finally:
            self._record(name, *self._close(span), error)

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0), value)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._record(name, *self._close(span), True)
                raise
            self._record(name, *self._close(span), False)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._drain(name, fn(*args, **kwargs))

        return wrapper

    def _drain(self, name, inner):
        total = own = 0.0
        outputs = objects = 0
        error = False
        try:
            while True:
                span = self._open(name)
                before = self._objects[0]
                try:
                    item = next(inner)
                except StopIteration:
                    return
                except BaseException:
                    error = True
                    raise
                finally:
                    dur, self_s = self._close(span)
                    total += dur
                    own += self_s
                    objects += self._objects[0] - before
                outputs += 1
                yield item
        finally:
            self._record(name, total, own, error)
            self.add(f"{name}.outputs", outputs)
            self.add(f"{name}.objects", objects)
            self.add(f"{name}.consume_s", total)

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap nullpoly's public functions in every namespace binding them."""
        modules = [importlib.import_module(f"{package.__name__}.{name}") for name in MODULES]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not callable(fn) or inspect.isclass(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isgeneratorfunction(fn):
                    wrapped[id(fn)] = (fn, self._wrap_generator(name, fn))
                else:
                    wrapped[id(fn)] = (fn, self._wrap(name, fn, self._after(name)))
        for ns in modules + [package]:
            for attr, value in list(vars(ns).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
        self._install_polynomial(package.polys.Polynomial)

    def _install_polynomial(self, cls):
        for method, short in _METHODS.items():
            name = f"polys.{short}"
            setattr(cls, method, self._wrap(name, getattr(cls, method), self._after(name)))
        init = cls.__init__
        objects = self._objects

        def counted_init(obj, coeffs=()):
            objects[0] += 1
            init(obj, coeffs)

        cls.__init__ = counted_init

    def _after(self, name):
        """Counter hook run after a wrapped call returns, or None."""
        if name == "polys.mul":
            def hook(args, result):
                other = args[1]
                if not isinstance(other, int):
                    self.add("polys.mul.term_pairs", len(args[0].coeffs) * len(other.coeffs))
                if result.coeffs:
                    self.peak("polys.mul.max_coeff_bits", max(abs(c) for c in result.coeffs).bit_length())
            return hook
        if name == "oracle.is_null_binomial":
            return lambda args, result: self.add("oracle.diff_table_cells", len(args[0].coeffs) ** 2 / 2)
        if name == "construct.kempner_mu":
            return lambda args, result: self.add("construct.kempner_mu.scan_steps", result)
        if name in ("counting.count_null_le", "counting.count_monic", "counting.count_monic_le"):
            return lambda args, result: self.peak("counting.count.max_exponent", result.p_exponent or 0)
        return None

    # -- export -----------------------------------------------------------

    def export(self) -> dict:
        counters = dict(self.counters)
        counters["polys.objects"] = counters.get("polys.objects", 0) + self._objects[0]
        return {"stats": self.stats, "edges": self.edges, "counters": counters}


def merge(into: dict, part: dict) -> dict:
    """Fold one export() into another, in place."""
    for name, st in part["stats"].items():
        acc = into["stats"].setdefault(name, [0, 0.0, 0.0, 0])
        for i in range(4):
            acc[i] += st[i]
    for edge, calls in part["edges"].items():
        into["edges"][edge] = into["edges"].get(edge, 0) + calls
    for name, value in part["counters"].items():
        old = into["counters"].get(name, 0)
        into["counters"][name] = max(old, value) if name in MAX_COUNTERS else old + value
    return into


def empty() -> dict:
    return {"stats": {}, "edges": {}, "counters": {}}
