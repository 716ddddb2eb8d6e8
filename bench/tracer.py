"""Outside-in tracing of ``cremlat`` layers, without editing the package.

:class:`Tracer` replaces each listed function by a wrapper that records a
span (name, request id, start, end, parent span).  Modules bind functions
under their own names (``spectral`` holds ``salem.dominant_real_root``,
``reduction`` holds ``spectral.axis_data``, ``cli`` holds
``weyl.realize``), so every attribute of every loaded ``cremlat`` module
that holds the original function object is rebound.  Spans stay in memory;
:meth:`Tracer.metrics` turns them into per-layer numbers once, at the end.
"""

from __future__ import annotations

import sys
import time

# the layer functions, per module, that the per-layer metrics name
LAYERS = {
    "weyl": ("parse_word", "realize", "compose"),
    "intmat": ("charpoly", "mat_mul", "mat_pow"),
    "spectral": ("classify", "dynamical_degree", "axis_data", "loxodromy_criterion",
                 "spectrum_report"),
    "salem": ("count_real_roots", "dominant_real_root", "squarefree_part",
              "strip_cyclotomic", "classify_number", "enumerate_salem"),
    "reduction": ("reduce", "decreasing_step"),
    "orbits": ("lambda_sequence", "quadratic_closed_form"),
    "birmap": ("compose", "poly_eval_triple", "poly_gcd"),
}
SYMPY_GCD = "birmap.sympy_gcd"
POLY_GCD = "birmap.poly_gcd"


class Tracer:
    """Spans of the layer functions while installed; metrics() sums them up."""

    def __init__(self):
        self.spans = []  # [name, request, start, end, parent index]
        self.stack = []
        self.request = 0
        self.results = {}  # name -> list of returned values worth counting
        self._undo = []
        self._realize = None
        self._cache_before = None
        self.cache_hits = self.cache_misses = 0

    # -- installing and removing the wrappers

    def install(self):
        import sympy

        import cremlat.cli  # noqa: F401  (loads every layer module)

        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "cremlat" or name.startswith("cremlat."))]
        self._realize = sys.modules["cremlat.weyl"].realize  # the lru_cache object
        self._cache_before = self._realize.cache_info()
        for modname, funcs in LAYERS.items():
            mod = sys.modules[f"cremlat.{modname}"]
            for fname in funcs:
                orig = getattr(mod, fname)
                wrapper = self._wrap(f"{modname}.{fname}", orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._undo.append((m, attr, orig))
                            setattr(m, attr, wrapper)
        # sympy's gcds as birmap.poly_gcd calls them, and only those
        for owner, attr in ((sympy, "gcd_list"), (sympy.Poly, "gcd")):
            orig = getattr(owner, attr)
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(SYMPY_GCD, orig, parent=POLY_GCD))

    def uninstall(self):
        after = self._realize.cache_info()
        self.cache_hits += after.hits - self._cache_before.hits
        self.cache_misses += after.misses - self._cache_before.misses
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _wrap(self, name, fn, parent=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if parent is not None and (not stack or spans[stack[-1]][0] != parent):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, self.request, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][3] = clock()
                stack.pop()
            if name in COUNTED_RESULTS:
                self.results.setdefault(name, []).append(COUNTED_RESULTS[name](out))
            return out

        return traced

    # -- aggregation

    def metrics(self) -> dict:
        """Per-layer metrics from the recorded spans (see README.md)."""
        spans = self.spans
        calls, self_s = {}, {}
        for name, _, t0, t1, _ in spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0)
        for name, _, t0, t1, parent in spans:
            if parent >= 0:
                pname = spans[parent][0]
                self_s[pname] -= t1 - t0

        def under(name, ancestor):
            n = 0
            for s in spans:
                if s[0] != name:
                    continue
                p = s[4]
                while p >= 0 and spans[p][0] != ancestor:
                    p = spans[p][4]
                n += p >= 0
            return n

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for modname, funcs in LAYERS.items():
            for fname in funcs:
                key = f"{modname}.{fname}"
                out[f"{key}.calls"] = calls.get(key, 0)
                out[f"{key}.self_s"] = self_s.get(key, 0.0)
        out[f"{SYMPY_GCD}.calls"] = calls.get(SYMPY_GCD, 0)
        out[f"{SYMPY_GCD}.self_s"] = self_s.get(SYMPY_GCD, 0.0)
        out["weyl.realize.cache_hit_ratio"] = ratio(
            self.cache_hits, self.cache_hits + self.cache_misses)
        reports = calls.get("spectral.spectrum_report", 0)
        out["spectral.charpolys_per_report"] = ratio(
            under("intmat.charpoly", "spectral.spectrum_report"), reports)
        out["spectral.lambda_isolations_per_report"] = ratio(
            under("salem.dominant_real_root", "spectral.spectrum_report"), reports)
        out["salem.sturm_counts_per_found"] = ratio(
            under("salem.count_real_roots", "salem.enumerate_salem"),
            sum(self.results.get("salem.enumerate_salem", [])))
        steps = sum(self.results.get("reduction.decreasing_step", []))
        out["reduction.steps_per_reduce"] = ratio(steps, calls.get("reduction.reduce", 0))
        out["reduction.axis_data_per_step"] = ratio(
            under("spectral.axis_data", "reduction.reduce"), steps)
        gcds = calls.get(POLY_GCD, 0)
        out["birmap.gcd_fast_path_ratio"] = ratio(gcds - calls.get(SYMPY_GCD, 0), gcds)
        return out


# returned values that a ratio needs: Salem numbers found, successful steps
COUNTED_RESULTS = {
    "salem.enumerate_salem": len,
    "reduction.decreasing_step": lambda r: int(r is not None),
}
