"""Spans and work counts around the program's layer functions.

The tracer patches each function named in ``SPANS`` under every name that
binds it in any ``convergence_lab`` module, so calls between modules, and
within one, open nested spans.  A span's self time is its duration minus
the durations of the traced spans directly inside it; calls to untraced
helpers (``convolve``, ``moment``, the private transform sums) therefore
count toward the nearest traced caller, and the self times of one pass
add up to the time spent inside ``cli.main``.

Work counts come only from a traced call's arguments, its return value or
the exception that leaves it, so they repeat exactly from run to run.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

#: Traced functions, by module of ``convergence_lab``.
SPANS = {
    "cli": ("main", "load_config"),
    "measures": ("convolve_prefixes",),
    "spectral": ("weighted_d2_integral", "fourier_eval", "decay_constant", "fourier_at"),
    "hypotheses": ("check_convergence_hypotheses", "check_sweepout_hypotheses"),
    "dynamics": ("weighted_average_all", "weighted_average", "maximal_function_all"),
    "sweepout": ("sweepout_simulation", "fourier_floor_scan", "dissipativity_trace"),
}


def _prefix_weights(args, result, exc):
    # Dense window length of every returned prefix.
    return {"measures.prefix_weights_total": sum(len(mu.weights) for mu in result or ())}


def _eval_terms(args, result, exc):
    return {"spectral.transform_terms": args["mu"].nnz * int(args["grid_size"])}


def _at_terms(args, result, exc):
    # The result holds one transform value per point.
    return {"spectral.transform_terms": args["mu"].nnz * len(result)} if exc is None else {}


def _d2_cap(args, result, exc):
    return {"spectral.d2_cap_hits": int(type(exc).__name__ == "QuadratureError")}


def _state_atoms(args, result, exc):
    # The result holds one average per state of the system.
    return {"dynamics.state_atom_products": args["mu"].nnz * len(result)} if exc is None else {}


COUNTERS = {
    "measures.convolve_prefixes": _prefix_weights,
    "spectral.fourier_eval": _eval_terms,
    "spectral.fourier_at": _at_terms,
    "spectral.weighted_d2_integral": _d2_cap,
    "dynamics.weighted_average_all": _state_atoms,
}


class Tracer:
    """Context manager that patches the traced functions in and out.

    ``spans`` holds ``[name, start, end, parent index]`` records and
    ``counts`` the work counts and ``<span>.calls``.
    The span stack assumes calls on one thread, as the benchmark runs them.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "convergence_lab"]
        for mod_name, funcs in SPANS.items():
            mod = sys.modules[f"convergence_lab.{mod_name}"]
            for func in funcs:
                original = getattr(mod, func)
                traced = self._wrap(f"{mod_name}.{func}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, attr, original))
                            setattr(m, attr, traced)
        return self

    def __exit__(self, *exc_info) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                self.counts[f"{name}.calls"] += 1
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.counts.update(counter(bound.arguments, result, error))

        return traced
