"""Spans around rectcft's public functions, installed from outside src/.

`install()` rebinds module attributes to timing wrappers, in every rectcft
module that holds the function (so `from .fitting import fit` call sites
are covered too), and `Tracer.restore()` puts the originals back.  Spans
are aggregated in memory per name as [calls, total seconds, self seconds];
self time is a span's duration minus the spans directly under it.

There is one span stack per process.  That is exact here because the
only thread rectcft starts, `cmd_loop`'s single pool worker, runs while
the main thread waits for it.
"""

from __future__ import annotations

import functools
import math
import re
import sys
import time

from spec import PER_LAYER

CALLS, TOTAL, SELF = 0, 1, 2

# Spans with total and self time.  Some are not reported on their own but
# must exist so that the self time of their callers (cli.main above all)
# excludes them.
SPANS = {
    "cli": ("main",),
    "looplattice": ("enumerate_links", "sparse_structure", "spectrum",
                    "spectrum_sparse", "spectrum_dense", "gram", "hamiltonian",
                    "gram_row", "loop_fit_summary"),
    "ising": ("solve_chain", "correlation_matrix", "overlap_sq", "neg_log_overlap",
              "enumerate_low_states", "ising_overlap_table", "ising_fit_summary"),
    "virasoro": ("product_amplitude", "p_series", "pk_conjecture_check"),
    "series": ("series_log", "series_exp", "series_pow_c_ratio", "eta_inverse_power"),
    "freefield": ("boson_amplitude", "fermion_amplitude", "boson_boundary_state",
                  "fermion_boundary_state", "virasoro_product_state", "g_series",
                  "g_from_amatrix"),
    "fitting": ("fit",),
}

# Called too often to time without distorting the run; only counted.
COUNTERS = {
    "freefield": ("boson_virasoro", "fermion_virasoro", "boson_mode", "fermion_mode"),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts = {"dim_total": 0, "physical": 0, "neg_log_finite": 0}
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    def _entry(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def span(self, name, fn, after=None):
        entry, stack, clock = self._entry(name), self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            under = [0.0]
            stack.append(under)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                entry[CALLS] += 1
                entry[TOTAL] += dt
                entry[SELF] += dt - under[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, result)
            return result
        return traced

    def operator(self, name, fn):
        """A span around a binary operator that opens no span under it.

        Kept to the fewest steps: CPoly products run ~10^5 times in one
        symbolic run; this wrapper costs about 0.5 us a call, 1.3% of
        `amplitude --order 40`."""
        entry, stack, clock = self._entry(name), self._stack, time.perf_counter

        def traced(a, b):
            t0 = clock()
            result = fn(a, b)
            dt = clock() - t0
            entry[CALLS] += 1
            entry[TOTAL] += dt
            entry[SELF] += dt
            if stack:
                stack[-1][0] += dt
            return result
        return traced

    def counter(self, name, fn):
        entry = self._entry(name)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            entry[CALLS] += 1
            return fn(*args, **kwargs)
        return counted

    def patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, module, attr, wrapper):
        """Replace module.attr by `wrapper` wherever a rectcft module binds it."""
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if name == "rectcft" or name.startswith("rectcft."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.patch(mod, key, wrapper)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class _ModuleProxy:
    """Stands in for a module, overriding some attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install() -> Tracer:
    from rectcft import cli, fitting, freefield, ising, looplattice, series, virasoro
    modules = {"cli": cli, "fitting": fitting, "freefield": freefield, "ising": ising,
               "looplattice": looplattice, "series": series, "virasoro": virasoro}
    tr = Tracer()

    def after_spectrum(args, result):
        n = args[0]
        tr.counts["dim_total"] += math.comb(n, n // 2) // (n // 2 + 1)
        tr.counts["physical"] += len(result)

    def after_neg_log(args, result):
        tr.counts["neg_log_finite"] += bool(math.isfinite(result))

    after = {"looplattice.spectrum": after_spectrum, "ising.neg_log_overlap": after_neg_log}
    for mod_name, names in SPANS.items():
        for attr in names:
            name = f"{mod_name}.{attr}"
            fn = getattr(modules[mod_name], attr)
            tr.rebind(modules[mod_name], attr, tr.span(name, fn, after.get(name)))
    for mod_name, names in COUNTERS.items():
        for attr in names:
            fn = getattr(modules[mod_name], attr)
            tr.rebind(modules[mod_name], attr, tr.counter(f"{mod_name}.{attr}", fn))

    apply_mode = virasoro.apply_mode
    lower = tr.span("virasoro.apply_mode.lower", apply_mode)
    upper = tr.span("virasoro.apply_mode.raise", apply_mode)
    tr.rebind(virasoro, "apply_mode",
              functools.wraps(apply_mode)(lambda n, v: (lower if n < 0 else upper)(n, v)))

    # __rmul__ is the same function object as __mul__; both count as mul
    mul = series.CPoly.__mul__
    tr.patch(series.CPoly, "__mul__", tr.operator("series.CPoly.mul", mul))
    tr.patch(series.CPoly, "__rmul__", tr.operator("series.CPoly.mul", mul))

    spl = looplattice.spl
    tr.patch(looplattice, "spl", _ModuleProxy(spl, eigs=tr.span("looplattice.eigs", spl.eigs)))
    return tr


_SPAN_FIELD = re.compile(r"^(.*?)[._](self_s|s|calls)$")


def layer_metrics(tr: Tracer) -> dict:
    """Every per-layer metric except trace_overhead, from one traced run."""
    from rectcft import virasoro
    act = virasoro.act.cache_info()
    lookups = act.hits + act.misses
    gram_rows = tr.stats["looplattice.gram_row"][CALLS]
    neg_logs = tr.stats["ising.neg_log_overlap"][CALLS]
    out = {
        "looplattice.dim_total": tr.counts["dim_total"],
        "looplattice.physical_per_gram_row":
            tr.counts["physical"] / gram_rows if gram_rows else 0.0,
        "ising.finite_ratio": tr.counts["neg_log_finite"] / neg_logs if neg_logs else 0.0,
        "virasoro.act.hits": act.hits,
        "virasoro.act.misses": act.misses,
        "virasoro.act.hit_ratio": act.hits / lookups if lookups else 0.0,
    }
    for name, _unit, _better in PER_LAYER:
        if name in out or name == "trace_overhead":
            continue
        span, field = _SPAN_FIELD.match(name).groups()
        stat = tr.stats[span]
        out[name] = stat[{"s": TOTAL, "self_s": SELF, "calls": CALLS}[field]]
    return out
