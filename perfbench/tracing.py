"""Spans around the public functions of growcount, in traced runs only.

`Tracer.installed()` replaces each function named in LAYERS by a wrapper
that records a span (name, start, end, parent) while `recording` is
set, and puts the originals back on exit.  A module keeps its own
reference to a function it imported by name, and verify.SUITES keeps
the suites in a dict, so the swap covers every module attribute and
every value of a module-level dict that is the original function.  A
function that a later change renames is skipped: its metrics go missing
and the run goes on.  Nothing under src/ is changed.
"""

import functools
import sys
import time
from contextlib import contextmanager

PACKAGE = "growcount"

# (metric, module, function, kind).  "total" sums the span durations,
# "self" subtracts the time covered by child spans, "calls" counts spans.
LAYERS = [
    ("core.tree_from_json_self_s", "core", "tree_from_json", "self"),
    ("core.validate_tree_s", "core", "validate_tree", "total"),
    ("core.downstream_weights_self_s", "core", "downstream_weights", "self"),
    ("core.forest_weights_s", "core", "forest_weights", "total"),
    ("core.balanced_product_s", "core", "balanced_product", "total"),
    ("core.tree_weight_calls", "core", "tree_weight", "calls"),
    ("core.growth_count_self_s", "core", "growth_count", "self"),
    ("core.random_lattice_tree_s", "core", "random_lattice_tree", "total"),
    ("core.tree_to_json_s", "core", "tree_to_json", "total"),
    ("generators.path_tree_self_s", "generators", "path_tree", "self"),
    ("generators.tower_tree_self_s", "generators", "tower_tree", "self"),
    ("generators.tower_params_s", "generators", "tower_params", "total"),
    ("cli.gen_s", "cli", "cmd_gen", "total"),
    ("cli.gen_self_s", "cli", "cmd_gen", "self"),
    ("cli.count_s", "cli", "cmd_count", "total"),
    ("cli.count_self_s", "cli", "cmd_count", "self"),
    ("cli.export_s", "cli", "cmd_export", "total"),
    ("cli.analyze_s", "cli", "cmd_analyze", "total"),
    ("cli.analyze_self_s", "cli", "cmd_analyze", "self"),
    ("cli.bethe_s", "cli", "cmd_bethe", "total"),
    ("cli.verify_s", "cli", "cmd_verify", "total"),
    ("analytics.verify_main_bound_s", "analytics", "verify_main_bound",
     "total"),
    ("analytics.structure_fractions_s", "analytics", "structure_fractions",
     "total"),
    ("analytics.weight_upper_bound_s", "analytics", "weight_upper_bound",
     "total"),
    ("analytics.constants_s", "analytics", "constants", "total"),
    ("bethe.bethe_growth_count_s", "bethe", "bethe_growth_count", "total"),
    ("bethe.bethe_trees_s", "bethe", "bethe_trees", "total"),
    ("bethe.hook_counts_s", "bethe", "tree_growth_count", "total"),
    ("bethe.bethe_existence_bound_s", "bethe", "bethe_existence_bound",
     "total"),
    ("verify.core_suite_s", "verify", "core_suite", "total"),
    ("verify.tower_suite_s", "verify", "tower_suite", "total"),
    ("verify.bethe_suite_s", "verify", "bethe_suite", "total"),
    ("render.to_svg_s", "render", "to_svg", "total"),
]


class Tracer:
    """Keeps spans in memory; `layer_values` turns a slice into metrics."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1]
        self.recording = False
        self._stack = []
        targets = dict.fromkeys((m, f) for _, m, f, _ in LAYERS)
        self.found = {}       # "module.function" -> the original function
        for module, func in targets:
            original = getattr(sys.modules.get(f"{PACKAGE}.{module}"), func,
                               None)
            if callable(original):
                self.found[f"{module}.{func}"] = original
        self.missing = [f"{m}.{f}" for m, f in targets
                        if f"{m}.{f}" not in self.found]

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return wrapper

    @contextmanager
    def installed(self):
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        swapped = []   # (module or dict, key, original)
        try:
            for name, original in self.found.items():
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            swapped.append((mod, key, original))
                        elif type(value) is dict:
                            for k, v in value.items():
                                if v is original:
                                    value[k] = wrapper
                                    swapped.append((value, k, original))
            yield self
        finally:
            for holder, key, original in reversed(swapped):
                if isinstance(holder, dict):
                    holder[key] = original
                else:
                    setattr(holder, key, original)

    def layer_values(self, first: int) -> dict:
        """Per-layer metrics over the spans recorded from index `first` on."""
        spans = self.spans
        child = [0.0] * (len(spans) - first)
        total, own, calls = {}, {}, {}
        # a child is recorded after its parent, so walk backwards
        for i in range(len(spans) - 1, first - 1, -1):
            name, start, end, parent = spans[i]
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + dur - child[i - first]
            calls[name] = calls.get(name, 0) + 1
            if parent >= first:
                child[parent - first] += dur
        kinds = {"total": total, "self": own, "calls": calls}
        return {
            metric: kinds[kind].get(f"{module}.{func}",
                                    0 if kind == "calls" else 0.0)
            for metric, module, func, kind in LAYERS
            if f"{module}.{func}" in self.found
        }
