"""Outside-in tracer for revdeg: spans and counts recorded around the calls
into revdeg's layers, without touching revdeg's source.

A function is replaced at every place it is bound.  revdeg's modules import
many helpers by name (``from .groups import normalizer`` in lattice.py,
``from .burnside import recurrence`` in degrees.py, ``from .degrees import
DegreeEngine`` in report.py, ...), so wrapping only the defining module would
miss those calls: ``install`` swaps every module attribute of a loaded
``revdeg`` module that is the original object.  Methods are wrapped on their
class, which every caller shares.

Spans are kept in memory with a parent link and written out by ``dump`` when
the run ends.  A target that revdeg no longer defines is listed in
``missing`` and its metrics have no value (``value`` returns None), so a
change inside revdeg never breaks a traced run and a lost span is never
read as a measured zero.  A span's self time is its duration minus the
durations of its direct child spans.  Two very hot helpers (``conjugate_members`` and
``eval_polar``) are only counted: a span around each of their calls would
cost more than the call.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from collections import defaultdict


def _count_cosets(tracer, args, result, state):
    tracer.counts["groups.double_cosets.cosets"] += len(result)


def _classes_before(args):
    return len(args[0].classes)


def _count_interned(tracer, args, result, before):
    tracer.counts["lattice.classes_interned"] += len(args[0].classes) - before


def _table_bytes(tracer, args, result, state):
    # both truncation levels of the engine just built; the largest engine of
    # the run is kept, since engines of a run do not outlive their block
    lattice = args[0].lattice
    nbytes = 0
    for group in (getattr(lattice, "group_lo", None), getattr(lattice, "group_hi", None)):
        nbytes += getattr(getattr(group, "table", None), "nbytes", 0)
    counts = tracer.counts
    counts["groups.table_bytes"] = max(counts["groups.table_bytes"], nbytes)


# derived counts -> the span whose hook computes them
DERIVED = {
    "groups.table_bytes": "degrees.engine_init",
    "groups.double_cosets.cosets": "groups.double_cosets",
    "lattice.classes_interned": "lattice.ensure_handle",
}

# (module, attribute or Class.method, span name, options)
#   seen: a call is a hit when the same object already saw these arguments
#   true_is_hit: a call is a hit when it returns a true value
#   before/after: hooks that derive a count from the call
SPANS = [
    ("revdeg.groups", "direct_product", "groups.direct_product", {}),
    ("revdeg.groups", "normalizer", "groups.normalizer", {}),
    ("revdeg.groups", "double_cosets", "groups.double_cosets", {"after": _count_cosets}),
    ("revdeg.groups", "subgroup_classes", "groups.subgroup_classes", {}),
    ("revdeg.lattice", "ClassLattice.is_conjugate_full", "lattice.is_conjugate_full",
     {"true_is_hit": True}),
    ("revdeg.lattice", "ClassLattice.conjugates_full", "lattice.conjugates_full", {}),
    ("revdeg.lattice", "ClassLattice.ensure_handle", "lattice.ensure_handle",
     {"before": _classes_before, "after": _count_interned}),
    ("revdeg.lattice", "ClassLattice.n_count", "lattice.n_count", {"seen": True}),
    ("revdeg.lattice", "ClassLattice.product_classes", "lattice.product_classes",
     {"seen": True}),
    ("revdeg.burnside", "BurnsideElement.multiply", "burnside.multiply", {}),
    ("revdeg.burnside", "recurrence", "burnside.recurrence", {}),
    ("revdeg.chars", "character_table", "chars.character_table", {}),
    ("revdeg.degrees", "DegreeEngine.__init__", "degrees.engine_init",
     {"after": _table_bytes}),
    ("revdeg.degrees", "DegreeEngine.isotropy_classes", "degrees.isotropy_classes", {}),
    ("revdeg.degrees", "DegreeEngine.fixed_dim", "degrees.fixed_dim", {"seen": True}),
    ("revdeg.degrees", "DegreeEngine.rep_matrices", "degrees.rep_matrices", {}),
    ("revdeg.degrees", "DegreeEngine.basic_degree", "degrees.basic_degree", {}),
    ("revdeg.degrees", "DegreeEngine.degree_of_linearization", "degrees.route_product", {}),
    ("revdeg.degrees", "DegreeEngine._degree_direct", "degrees.route_direct", {}),
    ("revdeg.spectra", "spectral_summary", "spectra.spectral_summary", {}),
    ("revdeg.geometry", "check_conditions", "geometry.check_conditions", {}),
    ("revdeg.geometry", "boundary_radius", "geometry.boundary_radius", {}),
    ("revdeg.geometry", "curvature", "geometry.curvature", {}),
    ("revdeg.config", "parse_config", "config.parse_config", {}),
    ("revdeg.report", "run_analyze", "report.run_analyze", {}),
    ("revdeg.report", "ReportDocument.machine_text", "report.machine_text", {}),
    ("revdeg.cli", "main", "cli.main", {}),
]

COUNTERS = [
    ("revdeg.groups", "conjugate_members", "groups.conjugate_members"),
    ("revdeg.geometry", "PolarTrigPolynomial.eval_polar", "geometry.eval_polar"),
]


def _is_revdeg_module(name: str) -> bool:
    return name == "revdeg" or name.startswith("revdeg.")


class Tracer:
    """Spans and counters for one run; ``install`` patches revdeg for the
    rest of the process."""

    def __init__(self):
        self.spans: list = []          # (parent index or -1, name, start_ns, end_ns)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []   # open spans: [index, child_ns, start_ns]
        self.missing: dict[str, str] = {}   # span name -> target revdeg no longer has

    # -- wrappers ----------------------------------------------------------------

    def _span_wrapper(self, fn, name, seen=False, true_is_hit=False,
                      before=None, after=None):
        counts, self_ns, spans, stack = self.counts, self.self_ns, self.spans, self._stack
        clock = time.perf_counter_ns
        calls, hits, errors = name + ".calls", name + ".hits", name + ".errors"
        seen_args = weakref.WeakKeyDictionary() if seen else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if seen_args is not None:
                key = (args[1:], tuple(sorted(kwargs.items())))
                keys = seen_args.setdefault(args[0], set())
                if key in keys:
                    counts[hits] += 1
                else:
                    keys.add(key)
            state = before(args) if before is not None else None
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0, 0]
            spans.append(None)             # reserve the slot: indices follow start order
            stack.append(frame)
            frame[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if _is_revdeg_module(type(exc).__module__):
                    counts[errors] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans[frame[0]] = (parent, name, frame[2], end)
            if true_is_hit and result:
                counts[hits] += 1
            if after is not None:
                after(self, args, result, state)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        counts, calls = self.counts, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------------

    def _patch(self, module_name: str, target: str, name: str, make) -> None:
        module = importlib.import_module(module_name)
        if "." in target:
            cls_name, attr = target.split(".")
            original = vars(getattr(module, cls_name, object)).get(attr)
            if original is None:
                self.missing[name] = f"{module_name}.{target}"
                return
            setattr(getattr(module, cls_name), attr, make(original))
            return
        original = getattr(module, target, None)
        if original is None:
            self.missing[name] = f"{module_name}.{target}"
            return
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if not _is_revdeg_module(mod_name) or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)

    def install(self) -> "Tracer":
        for module_name, target, name, options in SPANS:
            self._patch(module_name, target, name,
                        lambda fn, n=name, o=options: self._span_wrapper(fn, n, **o))
        for module_name, target, name in COUNTERS:
            self._patch(module_name, target, name,
                        lambda fn, n=name: self._count_wrapper(fn, n))
        return self

    # -- results -----------------------------------------------------------------

    def value(self, metric: str) -> float | None:
        """Value of one per-layer metric name (``<span>.self_s``, ``<span>.calls``,
        ``<span>.hit_ratio``, ``<span>.errors`` or a derived count); None when
        its span's target is missing from revdeg."""
        base, _, kind = metric.rpartition(".")
        if DERIVED.get(metric, base) in self.missing:
            return None
        if kind == "self_s":
            return self.self_ns.get(base, 0) / 1e9
        if kind == "hit_ratio":
            calls = self.counts.get(base + ".calls", 0)
            return self.counts.get(base + ".hits", 0) / calls if calls else 0.0
        return self.counts.get(metric, 0)

    def dump(self, path, **meta) -> None:
        """Write every span (parent index, name, start, end in ns) and count."""
        names = sorted({s[1] for s in self.spans if s is not None})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(meta, names=names, counts=dict(sorted(self.counts.items())),
                   spans=[[p, index[n], a, b] for p, n, a, b in self.spans])
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
