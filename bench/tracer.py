"""Outside-in span tracer for the traced benchmark run.

`Tracer.install` wraps every public function of the `framedbps` modules at
every module binding that refers to it (its own module and each module that
imported it), plus the public methods of `BraceRatio`, so that calls between
modules and within a module both open spans.  Nothing under `src/` changes:
the wrappers are set from outside after import.

Each span records its name, start, end and parent span; spans are kept in
memory and written out by `write_spans` when the run ends.  Time spent on the
tracer's own bookkeeping (including the counters below) is taken off a
virtual clock, so the spans of one roster tile its traced wall time: the
self times of all spans sum to the duration of the root span.

Counters are recorded at the same boundaries as the spans:

* `laurent.lp_mul`: term products len(p)*len(q); for the results of
  `lp_mul` and `lp_exact_div`, the largest coefficient bit length and the
  share of coefficients that are not integers;
* `qsymbols.BraceRatio.add`: brace factors multiplied in when both operands
  are raised to the common denominator;
* `qsymbols.BraceRatio.reduce`: brace divisions (the size of the
  denominator multiset cleared), and the largest denominator multiset seen;
* `ovengine.enumerate_vector_partitions`: partitions produced;
* `laurent.series_inv` inside `curves.solve_w_series`: Newton rounds.
"""

import functools
import importlib
import time
import types
from array import array

LAYERS = ("laurent", "qsymbols", "links", "ovengine", "curves", "closedforms", "cli")


def _public_callables(module):
    """Public functions (lru-cached ones too) defined in `module`."""
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self):
        self.paused = 0.0
        self.stack = []
        self.names = []
        self._ids = {}
        self.open = []
        self.stats = []          # per name id: [calls, busy (outermost), self]
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("l")
        self.parents = array("l")
        self.counters = {"lp_mul.term_products": 0, "coeffs": 0, "nonint_coeffs": 0,
                         "coeff_bits.max": 0, "raise_factors": 0,
                         "reduce_divisions": 0, "den_factors.max": 0,
                         "partitions": 0, "newton_rounds": 0}
        self.lru_caches = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.open.append(0)
            self.stats.append([0, 0.0, 0.0])
        return self._ids[name]

    def wrap(self, name, fn, probe=None):
        """`fn` wrapped so that each call records a span called `name`.

        `probe(args, result)` runs after a successful call, off the clock."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack, open_count, stat = self.stack, self.open, self.stats[nid]
        starts, ends, name_ids, parents = self.starts, self.ends, self.name_ids, self.parents
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            outermost = open_count[nid] == 0
            open_count[nid] += 1
            index = len(starts)
            parents.append(stack[-1][0] if stack else -1)
            name_ids.append(nid)
            ends.append(0.0)
            frame = [index, 0.0]           # span index, child time
            stack.append(frame)
            t0 = clock()
            tracer.paused += t0 - t_in
            start = t0 - tracer.paused
            starts.append(start)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                end = t1 - tracer.paused
                stack.pop()
                open_count[nid] -= 1
                ends[index] = end
                duration = end - start
                stat[0] += 1
                stat[2] += duration - frame[1]
                if outermost:
                    stat[1] += duration
                if stack:
                    stack[-1][1] += duration
                if ok and probe is not None:
                    probe(args, result)
                tracer.paused += clock() - t1
            return result

        return wrapper

    # -- counters -----------------------------------------------------------

    def _coeff_stats(self, poly):
        c = self.counters
        bits, nonint = c["coeff_bits.max"], 0
        for v in poly.values():
            den = v.denominator
            if den != 1:
                nonint += 1
            bits = max(bits, v.numerator.bit_length(), den.bit_length())
        c["coeff_bits.max"] = bits
        c["coeffs"] += len(poly)
        c["nonint_coeffs"] += nonint

    def _probe_lp_mul(self, args, result):
        self.counters["lp_mul.term_products"] += len(args[0]) * len(args[1])
        self._coeff_stats(result)

    def _probe_lp_exact_div(self, args, result):
        self._coeff_stats(result)

    def _den_seen(self, den):
        size = sum(den.values())
        if size > self.counters["den_factors.max"]:
            self.counters["den_factors.max"] = size

    def _probe_add(self, args, result):
        lhs, rhs = args
        common = lhs.den | rhs.den
        self.counters["raise_factors"] += (sum((common - lhs.den).values())
                                           + sum((common - rhs.den).values()))
        self._den_seen(result.den)

    def _probe_reduce(self, args, result):
        self.counters["reduce_divisions"] += sum(args[0].den.values())
        self._den_seen(args[0].den)

    def _probe_partitions(self, args, result):
        self.counters["partitions"] += len(result)

    def _probe_series_inv(self, args, result):
        if self.open[self._ids["curves.solve_w_series"]]:
            self.counters["newton_rounds"] += 1

    # -- installation -------------------------------------------------------

    def install(self, package="framedbps"):
        """Wrap the public functions of every layer module of `package`."""
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        self._name_id("curves.solve_w_series")
        probes = {"laurent.lp_mul": self._probe_lp_mul,
                  "laurent.lp_exact_div": self._probe_lp_exact_div,
                  "ovengine.enumerate_vector_partitions": self._probe_partitions,
                  "laurent.series_inv": self._probe_series_inv,
                  "qsymbols.BraceRatio.add": self._probe_add,
                  "qsymbols.BraceRatio.reduce": self._probe_reduce}
        self.lru_caches = [fn for _, fn in _public_callables(modules["links"])
                           if hasattr(fn, "cache_info")]
        wrapped = {}
        for layer, module in modules.items():
            for name, fn in _public_callables(module):
                span = f"{layer}.{name}"
                wrapped[id(fn)] = self.wrap(span, fn, probes.get(span))
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, name, wrapped[id(obj)])
        brace_ratio = modules["qsymbols"].BraceRatio
        for name, raw in list(vars(brace_ratio).items()):
            if name.startswith("_") or not isinstance(raw, (staticmethod, types.FunctionType)):
                continue
            span = f"qsymbols.BraceRatio.{name}"
            if isinstance(raw, staticmethod):
                setattr(brace_ratio, name, staticmethod(self.wrap(span, raw.__func__)))
            else:
                setattr(brace_ratio, name, self.wrap(span, raw, probes.get(span)))
        return self

    # -- results ------------------------------------------------------------

    def summary(self):
        """Per-name [calls, busy_s, self_s], counters, cache info, root duration."""
        roots = [i for i in range(len(self.starts)) if self.parents[i] == -1]
        hits = sum(fn.cache_info().hits for fn in self.lru_caches)
        misses = sum(fn.cache_info().misses for fn in self.lru_caches)
        return {"stats": {name: list(self.stats[i]) for i, name in enumerate(self.names)},
                "counters": dict(self.counters),
                "homfly_cache": {"hits": hits, "misses": misses},
                "root_s": sum(self.ends[i] - self.starts[i] for i in roots),
                "spans": len(self.starts)}

    def write_spans(self, path):
        """Write every span as `index parent name start end` (tab separated)."""
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.starts)):
                fh.write(f"{i}\t{self.parents[i]}\t{self.names[self.name_ids[i]]}\t"
                         f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n")
