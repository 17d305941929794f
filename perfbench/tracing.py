"""Span recorder for the traced run.

The library is not instrumented; instead `Tracer.install` replaces each
layer's public functions, at every `addtheo` module attribute that refers to
them, with a wrapper that records a span.  Rebinding the attribute covers the
names the calling modules imported (`addtheo.resultants.pseudo_rem`,
`addtheo.derive.resultant`, ...) as well as calls inside the defining module.

Each span records its parent, duration and the time of its child spans, so a
layer's self time is its duration minus its children's.  Each span also
belongs to a group: the group of the nearest enclosing span that names one
(the "head" spans below), so the resultants and polynomial divisions run by
`derive.eliminate` count as elimination while those run by `laws.k_relation`
count as laws.  Spans are kept in memory and aggregated per pass.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter, defaultdict


def _terms(p):
    return len(p.terms)


def _eliminant_size(p):
    return (len(p.terms), p.total_degree())


# span name: (module, function names, group it opens or None, result size)
TARGETS = {
    "poly.pseudo_rem": ("addtheo.poly", ("pseudo_rem",), None, None),
    "poly.divide_exact": ("addtheo.poly", ("divide_exact",), None, None),
    "poly.rem_monic": ("addtheo.poly", ("rem_monic",), None, None),
    "resultants.resultant": ("addtheo.resultants", ("resultant",), None, _terms),
    "resultants.squarefree": ("addtheo.resultants", ("squarefree", "squarefree_part"), None, None),
    "resultants.mgcd": ("addtheo.resultants", ("mgcd",), None, None),
    "factor.factor": ("addtheo.factor", ("factor",), "factor", len),
    "numeric.sample_graph": ("addtheo.numeric", ("sample_graph",), "numeric", len),
    "numeric.phi_eval": ("addtheo.numeric", ("phi_eval",), "numeric", None),
    "numeric.draw": ("addtheo.numeric", ("_draw",), "numeric", None),
    "derive.eliminate": ("addtheo.derive", ("eliminate",), "elimination", _eliminant_size),
    "derive.prune": ("addtheo.derive", ("prune",), "prune", None),
    "funcspec.parse_spec": ("addtheo.funcspec", ("parse_spec",), "funcspec", None),
    "funcspec.order": ("addtheo.funcspec", ("order",), "funcspec", None),
    "laws.multiplier_group": ("addtheo.laws", ("multiplier_group",), "laws", None),
    "laws.full_substitution_group": ("addtheo.laws", ("full_substitution_group",), "laws", None),
    "laws.k_relation": ("addtheo.laws", ("k_relation",), "laws", None),
    "laws.same_theorem": ("addtheo.laws", ("same_theorem",), "laws", None),
}
# private helpers: a missing one is skipped, and the metrics built on it read 0
OPTIONAL = {"numeric.draw"}
ROOT_SPAN = "cli.main"
GROUPS = ("elimination", "factor", "numeric", "laws", "funcspec", "prune", "cli")


class Tracer:
    def __init__(self):
        self.spans = []  # (name, parent, duration, self time, group, outermost, size)
        self._stack = []  # [name, group, child time]
        self._active = Counter()
        self._patched = []  # (module, attribute, original)

    def call(self, name, group, size, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span."""
        parent = self._stack[-1] if self._stack else None
        if group is None:
            group = parent[1] if parent else "cli"
        frame = [name, group, 0.0]
        outermost = not self._active[name]
        self._active[name] += 1
        self._stack.append(frame)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self._active[name] -= 1
            if parent is not None:
                parent[2] += duration
            measured = size(result) if size is not None and result is not None else None
            self.spans.append((
                name, parent[0] if parent else None, duration,
                duration - frame[2], group, outermost, measured,
            ))

    def _wrap(self, name, group, size, fn):
        def traced(*args, **kwargs):
            return self.call(name, group, size, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self, modules):
        """Wrap every TARGETS function at each attribute of `modules` bound to it."""
        for name, (module, functions, group, size) in TARGETS.items():
            defining = importlib.import_module(module)
            for function in functions:
                if name in OPTIONAL and not hasattr(defining, function):
                    continue
                original = getattr(defining, function)
                wrapper = self._wrap(name, group, size, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def take(self):
        spans, self.spans = self.spans, []
        return spans


def aggregate(spans) -> dict:
    """Per-layer metrics of one traced pass; `spans` must include the roots."""
    calls = Counter()
    inclusive = defaultdict(float)
    own = defaultdict(float)
    group_time = defaultdict(float)
    sizes = defaultdict(int)
    wall = 0.0
    prune_candidates = 0
    draws = 0
    eliminant_degree = 0
    for name, parent, duration, self_time, group, outermost, size in spans:
        calls[name] += 1
        own[name] += self_time
        group_time[group] += self_time
        if outermost:
            inclusive[name] += duration
        if name == ROOT_SPAN:
            wall += duration
        elif name == "derive.eliminate" and size is not None:
            sizes[name] += size[0]
            eliminant_degree = max(eliminant_degree, size[1])
        elif size is not None:
            sizes[name] += size
        if name == "factor.factor" and parent == "derive.prune" and size is not None:
            prune_candidates += size
        if name == "numeric.draw" and parent == "numeric.sample_graph":
            draws += 1
    m = {}
    for layer in ("poly.pseudo_rem", "poly.divide_exact", "poly.rem_monic",
                  "resultants.resultant", "resultants.mgcd", "factor.factor",
                  "numeric.sample_graph"):
        m[f"{layer}_calls"] = calls[layer]
        m[f"{layer}_s"] = inclusive[layer]
    m["resultants.resultant_out_terms"] = sizes["resultants.resultant"]
    m["resultants.squarefree_s"] = inclusive["resultants.squarefree"]
    m["derive.eliminate_s"] = own["derive.eliminate"]
    m["derive.eliminant_terms"] = sizes["derive.eliminate"]
    m["derive.eliminant_degree"] = eliminant_degree
    m["factor.factor_factors_out"] = sizes["factor.factor"]
    m["numeric.phi_eval_calls"] = calls["numeric.phi_eval"]
    # each point tried draws u and v
    tried = draws / 2
    m["numeric.sample_accept_ratio"] = sizes["numeric.sample_graph"] / tried if tried else 0.0
    m["derive.prune_s"] = own["derive.prune"]
    m["derive.prune_candidates"] = prune_candidates
    for layer in ("funcspec.parse_spec", "funcspec.order", "laws.multiplier_group",
                  "laws.full_substitution_group", "laws.k_relation", "laws.same_theorem"):
        m[f"{layer}_s"] = inclusive[layer]
    for group in GROUPS:
        m[f"share.{group}"] = 100 * group_time[group] / wall if wall else 0.0
    m["trace.traced_pass_s"] = wall
    return m


def median_metrics(passes) -> dict:
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
