"""Span tracer that wraps the public functions of the glaisher modules.

The program itself is not edited: `Tracer.install` replaces every reference
to a public function (one defined in a layer module under a name without a
leading underscore) in the namespaces and module-level dicts of all loaded
`glaisher` modules, and `uninstall` puts the originals back.

Each wrapped call is a span `<module>.<function>`.  Self time is computed
online as span time minus the time of the spans directly inside it.  Spans are
aggregated per name and the first `record_cap` of them are also kept as raw
records, written out by the caller when the run ends.

Per-point functions (the integrand evaluators and `log_gamma_plus_one`) are
called hundreds of times per operation, so they get no span of their own: a
span costs more than the function.  Instead the callable handed to
`quadrature.integrate_finite` is wrapped as the leaf `integrands.eval`, which
counts every call and times one call in `LEAF_SAMPLE_EVERY`; the sampled time,
scaled up, is its span time.  So the cost of the integrand and the cost of the
quadrature engine around it are measured where they meet.
"""

from __future__ import annotations

import inspect
import sys
import time

_ns = time.perf_counter_ns

LAYERS = ("specfun", "integrands", "quadrature", "estimator", "bench", "cli")
INTEGRAND_SPAN = "integrands.eval"
LEAF_SAMPLE_EVERY = 16
POINT_FUNCTIONS = frozenset({
    "integrands.classical_integrand",
    "integrands.binet_integrand",
    "integrands.malmsten_integrand",
    "integrands.lngamma_direct_integrand",
    "specfun.log_gamma_plus_one",
})


def _clock_cost_ns() -> int:
    """Smallest difference between two back-to-back clock reads."""
    return min(-(_ns() - _ns()) for _ in range(1000))


def _public_functions(module):
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def _outcomes(ret):
    """(results, converged results) for a return value that reports convergence."""
    if hasattr(ret, "converged"):
        return 1, int(bool(ret.converged))
    if isinstance(ret, list) and ret and hasattr(ret[0], "converged"):
        return len(ret), sum(1 for r in ret if r.converged)
    return 0, 0


class Tracer:
    def __init__(self, record_cap: int = 50_000):
        self.record_cap = record_cap
        # name -> [calls, total_ns, self_ns, results, converged]
        self.agg: dict[str, list] = {}
        self.records: list[tuple] = []
        self.dropped = 0
        self.op_id = 0
        self._stack: list[list] = []  # open spans: [span_id, child_ns]
        self._next_id = 1
        self._patched: list[tuple] = []
        self._clock_ns = _clock_cost_ns()

    # -- spans ---------------------------------------------------------------

    def _close(self, name, span_id, t0, t1, child_ns, ret):
        dt = t1 - t0
        a = self.agg.setdefault(name, [0, 0, 0, 0, 0])
        n, c = _outcomes(ret)
        a[0] += 1
        a[1] += dt
        a[2] += dt - child_ns
        a[3] += n
        a[4] += c
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dt
        if len(self.records) < self.record_cap:
            pid = parent[0] if parent is not None else 0
            self.records.append((self.op_id, span_id, pid, name, t0, t1))
        else:
            self.dropped += 1

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as one span called `name`."""
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, 0]
        self._stack.append(frame)
        t0 = _ns()
        ret = None
        try:
            ret = fn(*args, **kwargs)
            return ret
        finally:
            t1 = _ns()
            self._stack.pop()
            self._close(name, span_id, t0, t1, frame[1], ret)

    def leaf(self, name, fn):
        """fn(x) wrapped as a counted, sampled, unrecorded span inside the open span."""
        stack = self._stack
        a = self.agg.setdefault(name, [0, 0, 0, 0, 0])
        every = LEAF_SAMPLE_EVERY
        clock = self._clock_ns

        def wrapped(x):
            a[0] += 1
            if a[0] % every:
                return fn(x)
            t0 = _ns()
            try:
                return fn(x)
            finally:
                dt = max(_ns() - t0 - clock, 0) * every
                a[1] += dt
                a[2] += dt
                stack[-1][1] += dt

        return wrapped

    def _wrap(self, name, fn):
        tracer = self
        if name == "quadrature.integrate_finite":

            def wrapped(f, *args, **kwargs):
                return tracer.call(name, fn, tracer.leaf(INTEGRAND_SPAN, f), *args, **kwargs)

        else:

            def wrapped(*args, **kwargs):
                return tracer.call(name, fn, *args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every glaisher layer module."""
        import glaisher  # noqa: F401  (the caller has put the package on sys.path)
        import glaisher.cli  # noqa: F401

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"glaisher.{layer}"]
            for fname, fn in _public_functions(module).items():
                if f"{layer}.{fname}" not in POINT_FUNCTIONS:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "glaisher" and not modname.startswith("glaisher."):
                continue
            ns = vars(module)
            for key, value in list(ns.items()):
                if id(value) in wrappers:
                    self._patched.append((ns, key, value))
                    ns[key] = wrappers[id(value)]
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            self._patched.append((value, k, v))
                            value[k] = wrappers[id(v)]

    def uninstall(self) -> None:
        for mapping, key, original in reversed(self._patched):
            mapping[key] = original
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per layer: self ns, total ns, calls, results, converged results."""
        out = {layer: [0, 0, 0, 0, 0] for layer in LAYERS}
        for name, (calls, total, self_ns, results, conv) in self.agg.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                t = out[layer]
                t[0] += self_ns
                t[1] += total
                t[2] += calls
                t[3] += results
                t[4] += conv
        return out
