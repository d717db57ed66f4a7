"""Spans around lexmetric's entry points, recorded from outside the library.

A :class:`Tracer` replaces each traced function with a wrapper in every
``lexmetric`` module namespace that holds the original. That matters because
modules import each other's functions by name: ``twins`` and ``theory`` call
``metric_dimension`` through their own globals, and ``cli`` calls
``verify_all`` and ``random_pairs`` the same way. Spans are kept in memory
and written out once, when the run ends.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import Counter, defaultdict

# Span name -> (module, attribute). The two private names are the solver's
# phases; if a later version renames them, their spans are reported absent.
TRACED = {
    "space.validate": ("space", "validate"),
    "construct.graph_metric": ("construct", "graph_metric"),
    "construct.gravitational": ("construct", "gravitational"),
    "construct.squash": ("construct", "squash"),
    "construct.lexicographic": ("construct", "lexicographic"),
    "resolving.resolves": ("resolving", "resolves"),
    "resolving.pair_table": ("resolving", "pair_table"),
    "resolving.greedy_generator": ("resolving", "greedy_generator"),
    "resolving.hitting_set_search": ("resolving", "_min_hitting_set_size"),
    "resolving.witness_reconstruction": ("resolving", "_lex_least_hitting_set"),
    "resolving.metric_dimension": ("resolving", "metric_dimension"),
    "twins.twin_classes": ("twins", "twin_classes"),
    "twins.is_twins_free": ("twins", "is_twins_free"),
    "twins.special_classes": ("twins", "special_classes"),
    "theory.fiber_dimensions": ("theory", "fiber_dimensions"),
    "theory.formula_rhs": ("theory", "formula_rhs"),
    "theory.verify_dimension": ("theory", "verify_dimension"),
    "theory.verify_diameter": ("theory", "verify_diameter"),
    "theory.verify_corollaries": ("theory", "verify_corollaries"),
    "theory.verify_squash": ("theory", "verify_squash"),
    "theory.verify_all": ("theory", "verify_all"),
    "theory.connected_graph_spaces": ("theory", "connected_graph_spaces"),
    "theory.random_connected_graph": ("theory", "random_connected_graph"),
    "theory.random_metric_space": ("theory", "random_metric_space"),
    "theory.random_pairs": ("theory", "random_pairs"),
    # cli.main's self time is the command's own work: argument parsing and
    # document rendering, without the pair generation and verification below it.
    "cli.corpus": ("cli", "main"),
}

LAYERS = ("space", "construct", "resolving", "twins", "theory", "cli")


def _solve_key(args, kwargs) -> bytes:
    """Identity of one metric_dimension solve: table, tolerance, enumerate_all."""
    space = args[0] if args else kwargs["space"]
    enumerate_all = args[1] if len(args) > 1 else kwargs.get("enumerate_all", False)
    digest = hashlib.blake2b(space.dist.tobytes(), digest_size=16)
    digest.update(repr((space.dist.shape, space.tolerance, bool(enumerate_all))).encode())
    return digest.digest()


class Tracer:
    """Records (name, start, end, parent, raised) for every traced call.

    Use as a context manager, as often as needed: wrappers are installed on
    entry and the original functions are put back on exit, even when the
    body raises. Spans accumulate across entries.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, raised]
        self.solve_keys: list[bytes] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[dict, str, object, object]] | None = None

    def _wrap(self, name: str, fn):
        spans, stack, solve_keys = self.spans, self._stack, self.solve_keys
        keyed = name == "resolving.metric_dimension"

        def traced(*args, **kwargs):
            if keyed:
                solve_keys.append(_solve_key(args, kwargs))
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, False])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans[index][4] = True
                raise
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _patches(self) -> list[tuple[dict, str, object, object]]:
        """(namespace, key, original, wrapper) for every binding of a traced function."""
        namespaces = [
            vars(module)
            for key, module in sys.modules.items()
            if key == "lexmetric" or key.startswith("lexmetric.")
        ]
        patches = []
        for name, (module_name, attr) in TRACED.items():
            module = sys.modules.get(f"lexmetric.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    if value is original:
                        patches.append((namespace, key, original, wrapper))
        return patches

    def __enter__(self) -> "Tracer":
        if self._patched is None:
            self._patched = self._patches()
        for namespace, key, _original, wrapper in self._patched:
            namespace[key] = wrapper
        return self

    def __exit__(self, *exc) -> None:
        for namespace, key, original, _wrapper in self._patched:
            namespace[key] = original

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-span calls and self time, per-layer raised counts, uncovered time.

        A span's self time is its duration minus its direct children's; spans
        nest strictly in one thread, so the children never overlap.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _raised in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter[str] = Counter()
        self_s: defaultdict[str, float] = defaultdict(float)
        raised: Counter[str] = Counter()
        covered = 0.0
        subsolves = 0
        for i, (name, start, end, parent, did_raise) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if did_raise:
                raised[name.split(".", 1)[0]] += 1
            if parent < 0:
                covered += end - start
            elif (
                name == "resolving.hitting_set_search"
                and spans[parent][0] == "resolving.witness_reconstruction"
            ):
                subsolves += 1
        out: dict[str, float] = {}
        for name in TRACED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        solves = calls["resolving.metric_dimension"]
        distinct = len(set(self.solve_keys))
        out["resolving.metric_dimension.distinct"] = distinct
        out["resolving.metric_dimension.useful_ratio"] = distinct / solves if solves else 0.0
        out["resolving.witness_reconstruction.subsolves"] = subsolves
        for layer in LAYERS:
            out[f"{layer}.raised"] = raised[layer]
        out["trace.uncovered_s"] = wall_s - covered
        return out

    def write(self, path, origin: float) -> None:
        """Write the spans as JSON, times in seconds from ``origin``."""
        index = {name: i for i, name in enumerate(TRACED)}
        doc = {
            "names": list(TRACED),
            "absent": self.absent,
            "fields": ["name", "start_s", "end_s", "parent", "raised"],
            "spans": [
                [index[n], round(s - origin, 7), round(e - origin, 7), p, int(r)]
                for n, s, e, p, r in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
