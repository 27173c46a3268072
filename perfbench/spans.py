"""In-memory spans around the package's public entry points.

A traced run replaces each entry point with a wrapper that records a span:
name, start, end, parent span and op id.  Modules import these functions
by name (``modal_eval`` holds its own reference to ``shallow_apply``,
``normalize_result`` and ``validate``), so the wrapper is installed under
every name in every ``multiworld`` module that refers to the original
function.  The label algebra's ``meet``/``join``/``is_empty``/``holds`` are
wrapped on each algebra instance that ``parse_bindings`` returns.  Nothing
in the package changes; ``restore`` puts the originals back.

A span's self time is its duration minus the durations of its direct
children.  Calls that nest inside one another run on one thread, so each
child lies inside its parent and the subtraction is exact.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict

# (span name, module, attribute); several attributes may share one name
MODULE_TARGETS = (
    ("lang.parse", "lang", "parse"),
    ("lang.eval_plain", "lang", "eval_plain"),
    ("bindings.parse", "bindings", "parse_bindings"),
    ("modal_eval.deep", "modal_eval", "eval_modal"),
    ("modal_eval.blackbox", "modal_eval", "eval_shallow_blackbox"),
    ("lifting.shallow_apply", "lifting", "shallow_apply"),
    ("modal.merge", "modal", "merge_value_pairs"),
    ("modal.merge", "modal", "merge_error_pairs"),
    ("modal.merge", "modal", "normalize_result"),
    ("modal.validate", "modal", "validate"),
    ("modal.render", "modal", "render_result"),
    ("cli.display_label", "cli", "display_label"),
    ("oracle.brute_force", "oracle", "brute_force_eval"),
    ("oracle.assert_equiv", "oracle", "assert_equiv"),
)
LABEL_METHODS = ("meet", "join", "is_empty", "holds")


class Tracer:
    """Spans of one run, kept in flat arrays until ``write``.

    ``kind`` (deep, shallow, checked, load or reference) and ``modality``
    tag every span opened while they are set; ``totals`` sums calls,
    seconds and self seconds per (name, kind, modality).
    """

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.kind_id = array("i")
        self.parent = array("l")
        self.op_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []  # [span index, seconds covered by children]
        self.op = -1
        self.kind = "none"
        self.modality = "none"
        self.totals: dict = defaultdict(lambda: [0, 0.0, 0.0])
        self.shallow_pairs_in = 0
        self.shallow_pairs_out = 0
        self.empty_checked: dict = {}  # id -> label checked in this op
        self._restore: list = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, observe=None):
        nid = self._id(name)
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.kind_id.append(self._id(self.kind))
            self.parent.append(stack[-1][0] if stack else -1)
            self.op_id.append(self.op)
            self.start.append(0.0)
            self.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                total = self.totals[(name, self.kind, self.modality)]
                total[0] += 1
                total[1] += dur
                total[2] += dur - frame[1]
            if observe is not None:
                out = observe(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def span(self, name, fn, *args):
        """Call ``fn(*args)`` inside a span of its own."""
        return self.wrap(name, fn)(*args)

    # -- installing ------------------------------------------------------------

    def _observe_bindings(self, args, out):
        alg, _ = out
        self.instrument(alg)
        return out

    def _observe_shallow_apply(self, args, out):
        pairs_in = max((len(mv.pairs) for mv in args[2]), default=0)
        self.shallow_pairs_in = max(self.shallow_pairs_in, pairs_in)
        self.shallow_pairs_out = max(self.shallow_pairs_out, len(out.values) + len(out.errors))
        return out

    def _observe_display_label(self, args, out):
        return self.wrap("cli.display", out)

    def _observe_is_empty(self, args, out):
        self.empty_checked[id(args[0])] = args[0]
        return out

    def instrument(self, alg):
        """Wrap the label operations of one algebra instance."""
        for method in LABEL_METHODS:
            fn = getattr(alg, method, None)
            if fn is not None:
                observe = self._observe_is_empty if method == "is_empty" else None
                setattr(alg, method, self.wrap(f"labels.{method}", fn, observe))

    def install(self):
        observers = {
            "bindings.parse": self._observe_bindings,
            "lifting.shallow_apply": self._observe_shallow_apply,
            "cli.display_label": self._observe_display_label,
        }
        modules = [m for n, m in list(sys.modules.items())
                   if n == "multiworld" or n.startswith("multiworld.")]
        for name, module, attr in MODULE_TARGETS:
            original = getattr(importlib.import_module(f"multiworld.{module}"), attr, None)
            if original is None:
                continue
            traced = self.wrap(name, original, observers.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._restore.append((mod, key, original))

    def restore(self):
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    # -- reading -------------------------------------------------------------

    def take_empty_checked(self) -> int:
        n = len(self.empty_checked)
        self.empty_checked.clear()
        return n

    def total(self, kinds, name=None, modality=None) -> tuple:
        """(calls, seconds, self seconds) of the spans opened under
        ``kinds``, for one name (default all) and modality (default all)."""
        rows = [v for (n, k, m), v in self.totals.items()
                if k in kinds and name in (None, n) and modality in (None, m)]
        return tuple(sum(col) for col in zip(*rows)) if rows else (0, 0.0, 0.0)

    def write(self, path):
        """One line per span: id, parent, op, kind, name, start, end
        (``perf_counter`` seconds)."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\top\tkind\tname\tstart\tend\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{self.op_id[i]}\t{names[self.kind_id[i]]}\t"
                          f"{names[self.name_id[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
