"""Per-layer spans for one treeclose process, installed from outside.

Tracer.install() replaces the layer-boundary functions of treeclose with
timing wrappers, in every loaded treeclose module namespace that binds
them, and wraps the group-operation methods of every model family. No
file under src/ changes. Each call is a span: its self time is its
duration minus the durations of the spans it encloses. Spans are folded
into per-layer totals in memory as they close; flush() returns the
totals once, when the process ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# module -> layer-boundary functions wrapped as spans
FUNCTIONS = {
    "tree_core": ("compose", "invert", "restrict", "germ_of_map"),
    "kclosure": (
        "check_k_legal", "ipk_check", "pk_check", "kclosure_equal",
        "germ_closure", "first_stab_germ_difference", "plusk_generator_germs",
        "nondiscreteness_certificate", "discreteness_certificate",
        "local_action", "solve_commutator", "closure_germs_at_targets",
    ),
    "permgroup": ("mulclose",),
    "models": ("build_model",),
    "cli": ("run_scenario", "render_json"),
}
# module -> generator function -> name of its count of yielded items;
# each resumption is a span
GENERATORS = {
    "tree_core": {
        "iterate_subtree_isos": "tree_core.isos_yielded",
        "iterate_ball_germs": "tree_core.ball_germs_yielded",
    },
}
# wrapped on every model family, named models.<family>.<method>
METHODS = ("act", "germ_of", "transporter", "stab_germ_group",
           "fixator_maps_on")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        # open spans: [child time, layer, stabiliser germs scanned]
        self.stack = [[0.0, None, 0]]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.stab_keys = set()
        self.modules = {}

    # --- span bookkeeping -------------------------------------------------

    def _close(self, frame, start, layer):
        elapsed = self.clock() - start
        self.stack.pop()
        self.stack[-1][0] += elapsed
        self.self_s[layer] += elapsed - frame[0]

    def span(self, layer, func, on_result=None):
        stack, clock, calls = self.stack, self.clock, self.calls

        def traced(*args, **kwargs):
            frame = [0.0, layer, 0]
            stack.append(frame)
            calls[layer] += 1
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(frame, start, layer)
            if on_result is not None:
                on_result(result, args, frame)
            return result

        traced.__wrapped__ = func
        return traced

    def generator_span(self, layer, func, yielded):
        stack, clock = self.stack, self.clock

        def traced(*args, **kwargs):
            inner = func(*args, **kwargs)
            self.calls[layer] += 1
            while True:
                frame = [0.0, layer, 0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(frame, start, layer)
                self.counts[yielded] += 1
                yield item

        traced.__wrapped__ = func
        return traced

    def counted(self, name, func):
        counts = self.counts

        def traced(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        traced.__wrapped__ = func
        return traced

    # --- result hooks -------------------------------------------------------

    def _legality(self, result, args, frame):
        ok = result[0] if isinstance(result, tuple) else result
        if not ok:
            self.counts["kclosure.check_k_legal.rejected"] += 1

    def _closure_size(self, result, args, frame):
        self.counts["permgroup.mulclose.elements"] += len(result)

    def _stab_result(self, family):
        def hook(result, args, frame):
            self.stab_keys.add((family, args[1], args[2]))
            parent = self.stack[-1]
            if parent[1] is not None and parent[1].endswith(".fixator_maps_on"):
                parent[2] += len(result)
        return hook

    def _fixator_kept(self, result, args, frame):
        # only calls that filter stabiliser germs have a kept/scanned ratio
        if frame[2]:
            self.counts["models.fixator.kept"] += len(result)
            self.counts["models.fixator.scanned"] += frame[2]

    # --- installation --------------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every treeclose namespace binding original at replacement."""
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "treeclose" and not name.startswith("treeclose."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def install(self):
        from treeclose import cli, kclosure, models, permgroup, tree_core
        from treeclose.models.base import GroupModel

        self.modules = {
            "tree_core": tree_core, "kclosure": kclosure,
            "permgroup": permgroup, "models": models, "cli": cli,
        }
        hooks = {
            "kclosure.check_k_legal": self._legality,
            "permgroup.mulclose": self._closure_size,
        }
        # a layer function the program no longer has is skipped, so its
        # metrics read 0 instead of the traced run failing
        for short, names in FUNCTIONS.items():
            for name in names:
                layer = f"{short}.{name}"
                original = getattr(self.modules[short], name, None)
                if original is not None:
                    self._rebind(original,
                                 self.span(layer, original, hooks.get(layer)))
        for short, names in GENERATORS.items():
            for name, yielded in names.items():
                original = getattr(self.modules[short], name, None)
                if original is not None:
                    self._rebind(original, self.generator_span(
                        f"{short}.{name}", original, yielded))
        germ = getattr(tree_core, "Germ", None)
        from_mapping = vars(germ).get("from_mapping") if germ else None
        if isinstance(from_mapping, staticmethod):
            germ.from_mapping = staticmethod(
                self.counted("tree_core.germs_built", from_mapping.__func__))
        for cls in GroupModel.__subclasses__():
            family = cls.name
            for method in METHODS:
                layer = f"models.{family}.{method}"
                hook = None
                if method == "stab_germ_group":
                    hook = self._stab_result(family)
                elif method == "fixator_maps_on":
                    hook = self._fixator_kept
                setattr(cls, method,
                        self.span(layer, getattr(cls, method), hook))

    def flush(self):
        counts = dict(self.counts)
        ball_vertices = getattr(self.modules["tree_core"], "ball_vertices", None)
        if hasattr(ball_vertices, "cache_info"):
            info = ball_vertices.cache_info()
            counts["tree_core.ball_vertices.hits"] = info.hits
            counts["tree_core.ball_vertices.misses"] = info.misses
        for family, _, _ in self.stab_keys:
            key = f"models.{family}.stab_germ_group.distinct_keys"
            counts[key] = counts.get(key, 0) + 1
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": counts,
        }
