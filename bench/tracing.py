"""Outside-in tracing for the per-layer metrics.

Wrappers are installed from here at the names the library's callers
resolve (module globals and class attributes); nothing in `src/` changes.
Each wrapped call records a span [metric, parent span, start, end, extra,
threads alive].  Spans keep one stack per thread; work submitted to a
`ThreadPoolExecutor` is parented to the span that submitted it.

Self times come from a sweep over all span boundaries: each instant of the
run belongs to the spans that are open and have no open child, on any
thread, split equally when several run at once (under the interpreter lock
they share the processor).  So no self time is negative, and the self
times add up to the time the root spans cover.
"""

import functools
import gc
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from krcrystals import alcove, cartan, cli, crystals, experiments, kr, weyl

# The modules' own arithmetic (dominance_leq, pairing, the Fraction solves)
# runs millions of times per op; wrapping it would distort the run, so its
# cost shows in the self time of the spans that call it.


def _size(args, result):
    return len(result)


def _edges(args, result):
    return result.edge_count


def _self_size(args, result):
    return len(args[0])


def _tensor(args, result):
    return (len(result), result.edge_count)


def _qbg(args, result):
    # build_qbg is memoized and its graphs live for the whole run, so the
    # object id tells the graphs actually built apart from cache hits
    return (id(result), result.vertex_count, result.edge_count)


def _chain_len(args, result):
    return result.m


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0
        self._local = threading.local()
        self._gc_start = None
        self.gc_s = 0.0
        self.gc_collections = 0

    def _stack(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.base = None
        return local.stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else self._local.base

    def wrap(self, fn, metric, extra=None):
        spans = self.spans
        stack_of = self._stack
        local = self._local
        clock = time.perf_counter
        alive = threading.active_count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = [metric, stack[-1] if stack else local.base, clock(),
                    None, None, alive()]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if extra is not None:
                try:
                    span[4] = extra(args, result)
                except Exception:  # a changed return type loses one count
                    span[4] = None
            return result
        return traced

    def _submit(self, orig_submit):
        tracer = self

        @functools.wraps(orig_submit)
        def submit(pool, fn, /, *args, **kwargs):
            parent = tracer.current()

            def run(*a, **k):
                tracer._stack()
                tracer._local.base = parent
                try:
                    return fn(*a, **k)
                finally:
                    tracer._local.base = None
            return orig_submit(pool, run, *args, **kwargs)
        return submit

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def install(self):
        """Wrap every traced name and hook the pool and the collector.
        Returns the span metrics that have at least one name to wrap."""
        found = set()
        for owner, name, metric, extra in _wrap_points(self):
            fn = getattr(owner, name, None)
            if fn is not None:
                setattr(owner, name, self.wrap(fn, metric, extra))
                found.add(metric)
        ThreadPoolExecutor.submit = self._submit(ThreadPoolExecutor.submit)
        gc.callbacks.append(self._on_gc)
        return found


def _wrap_points(tracer):
    """(owner, attribute, metric, extra) for every traced name."""
    def fold_key(args, result):
        chain, J = args[0], args[1]
        return (tracer.op, chain.cartan.type_name, chain.lam, chain.order,
                tuple(sorted(J)))

    return [
        (cli, "main", "cli.self", None),
        (crystals.CrystalGraph, "to_json", "cli.serialize", None),
        (crystals.CrystalGraph, "to_dot", "cli.serialize", None),
        (weyl.QuantumBruhatGraph, "to_dot", "cli.serialize", None),
        (experiments.Report, "to_json", "cli.serialize", None),
    ] + [
        (experiments, name, "experiments.self", None)
        for name in ("check_figure", "check_reduction", "check_bmin",
                     "check_qsystem_typeA", "check_character_qsystem",
                     "check_alcove_correspondence", "build_tensor",
                     "build_filtered")
    ] + [
        (experiments, "kr_typeA", "kr.factor", None),
        (experiments, "kr_C_onebox", "kr.factor", None),
        (experiments, "fixture_C2", "kr.factor", None),
        (experiments, "explore_tensor", "crystals.explore_tensor", _tensor),
        (experiments, "demazure_filter", "crystals.filter", None),
        (experiments, "components", "crystals.components", _size),
        (crystals.CrystalGraph, "extremal", "crystals.extremal", _self_size),
        (experiments, "iso_check", "crystals.iso", None),
        (experiments, "match_components", "crystals.iso", None),
        (cli, "build_qbg", "weyl.qbg", _qbg),
        (alcove, "build_qbg", "weyl.qbg", _qbg),
        (weyl, "build_weyl_group", "weyl.group", None),
        (alcove, "build_weyl_group", "weyl.group", None),
        (crystals, "build_weyl_group", "weyl.group", None),
        (experiments, "build_weyl_group", "weyl.group", None),
        (experiments, "dominantize", "weyl.dominantize", None),
        (alcove, "build_lambda_chain", "alcove.chain", _chain_len),
        (alcove, "enumerate_admissible", "alcove.enumerate", _size),
        (alcove, "fold", "alcove.fold", fold_key),
        (alcove, "explore", "alcove.explore", _edges),
        (cartan, "build_cartan", "cartan.build", None),
        (experiments, "build_cartan", "cartan.build", None),
        (kr, "build_cartan", "cartan.build", None),
    ]


# lru_caches read from outside with cache_info(): metric prefix -> names
CACHES = {
    "cartan.cache": [(cartan, "build_cartan")],
    "weyl.group_cache": [(weyl, "build_weyl_group")],
    "weyl.qbg_cache": [(weyl, "build_qbg")],
    "kr.cache": [(kr, name) for name in ("kr_typeA", "kr_C_onebox",
                                         "fixture_C2",
                                         "classical_fundamental")],
}


def memoized():
    """prefix -> the memoized functions behind it.  Taken before any
    wrapper is installed, so the originals are the ones read later."""
    out = {}
    for prefix, names in CACHES.items():
        fns = [getattr(owner, name, None) for owner, name in names]
        fns = [fn for fn in fns if hasattr(fn, "cache_info")]
        if fns:
            out[prefix] = fns
    return out


def cache_counts(fns_by_prefix):
    out = {}
    for prefix, fns in fns_by_prefix.items():
        infos = [fn.cache_info() for fn in fns]
        out[prefix + "_hits"] = sum(i.hits for i in infos)
        out[prefix + "_misses"] = sum(i.misses for i in infos)
    return out


def self_times(spans):
    """Self time of each span, by a sweep over all span boundaries."""
    index = {id(s): k for k, s in enumerate(spans)}
    parent = [index.get(id(s[1])) if s[1] is not None else None
              for s in spans]
    # at equal times ends sort first; an empty span (and its children) gets
    # no events and no time
    timed = [k for k, s in enumerate(spans) if s[3] > s[2]]
    events = [(spans[k][2], 1, k) for k in timed]
    events += [(spans[k][3], 0, k) for k in timed]
    events.sort()
    is_open = [False] * len(spans)
    children = [0] * len(spans)
    leaves = set()
    out = [0.0] * len(spans)
    prev = None
    for t, starting, k in events:
        if leaves:
            share = (t - prev) / len(leaves)
            for j in leaves:
                out[j] += share
        prev = t
        p = parent[k]
        if starting:
            is_open[k] = True
            leaves.add(k)
            if p is not None and is_open[p]:
                children[p] += 1
                leaves.discard(p)
        else:
            is_open[k] = False
            leaves.discard(k)
            if p is not None and is_open[p]:
                children[p] -= 1
                if children[p] == 0:
                    leaves.add(p)
    return out


# counted metric -> the span metric it is read from
DERIVED = {
    "kr.factor_calls": "kr.factor",
    "crystals.tensor_nodes": "crystals.explore_tensor",
    "crystals.tensor_edges": "crystals.explore_tensor",
    "crystals.components_count": "crystals.components",
    "crystals.extremal_calls": "crystals.extremal",
    "crystals.extremal_nodes": "crystals.extremal",
    "crystals.iso_calls": "crystals.iso",
    "weyl.qbg_vertices": "weyl.qbg",
    "weyl.qbg_edges": "weyl.qbg",
    "weyl.group_calls": "weyl.group",
    "alcove.chain_len": "alcove.chain",
    "alcove.subsets": "alcove.enumerate",
    "alcove.fold_calls": "alcove.fold",
    "alcove.fold_distinct": "alcove.fold",
    "alcove.edges": "alcove.explore",
}


def layer_metrics(tracer, found, cache_delta, wall_s, cpu_s):
    """The per-layer metrics of one traced pass, with the time the spans
    leave unattributed and the smallest self time, for the checks."""
    spans = tracer.spans
    selfs = self_times(spans)
    m = {metric + "_s": 0.0 for metric in found}
    calls = {}
    extras = {}
    for span, t in zip(spans, selfs):
        metric = span[0]
        m[metric + "_s"] += t
        calls[metric] = calls.get(metric, 0) + 1
        if span[4] is not None:
            extras.setdefault(metric, []).append(span[4])
    for name in ("kr.factor", "crystals.extremal", "crystals.iso",
                 "weyl.group", "alcove.fold"):
        m[name + "_calls"] = calls.get(name, 0)
    tensor = extras.get("crystals.explore_tensor", [])
    m["crystals.tensor_nodes"] = sum(n for n, _ in tensor)
    m["crystals.tensor_edges"] = sum(e for _, e in tensor)
    m["crystals.components_count"] = sum(
        extras.get("crystals.components", []))
    m["crystals.extremal_nodes"] = sum(extras.get("crystals.extremal", []))
    built = {key: (v, e) for key, v, e in extras.get("weyl.qbg", [])}
    m["weyl.qbg_vertices"] = sum(v for v, _ in built.values())
    m["weyl.qbg_edges"] = sum(e for _, e in built.values())
    m["alcove.chain_len"] = sum(extras.get("alcove.chain", []))
    m["alcove.subsets"] = sum(extras.get("alcove.enumerate", []))
    m["alcove.fold_distinct"] = len(set(extras.get("alcove.fold", [])))
    m["alcove.edges"] = sum(extras.get("alcove.explore", []))
    for name, source in DERIVED.items():
        if source not in found:
            del m[name]
    m.update(cache_delta)
    m["runtime.gc_s"] = tracer.gc_s
    m["runtime.gc_collections"] = tracer.gc_collections
    m["runtime.cpu_s"] = cpu_s
    m["runtime.threads_max"] = max((s[5] for s in spans), default=1)
    return m, wall_s - sum(selfs), min(selfs, default=0.0)
