"""Span recorder for the traced run.

It wraps the program's public functions from outside: each wrapper replaces
the function in every ``lattes_sft`` module namespace that holds a reference
to it (``pipeline`` holds its own ``periodic_points``, for example), or on
the class for a method.  A span's self time is its duration minus the
durations of the spans it directly contains.  Spans stay in memory and are
written out when the run ends; per-name totals are kept for every call.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from time import perf_counter


def _entry_bits(M) -> int:
    return max(abs(v).bit_length() for v in M.entries())


def _coeff_bits(f) -> int:
    return max(abs(c.numerator).bit_length() for p in (f.num, f.den) for c in p.coeffs)


# (module, attribute, sizes): sizes maps a size name to a function of the
# result; its mean per call is reported.
TARGETS = (
    ("cfrac", "period_matrix", {"entry_bits": _entry_bits}),
    ("cfrac", "expand", {"period_len": lambda cf: len(cf.period)}),
    ("cfrac", "square_part", {}),
    ("lattice", "scale_lattice", {}),
    ("lattice", "hnf2", {}),
    ("exactnum", "companion_matrix", {}),
    ("exactnum", "Poly.squarefree_part", {}),
    ("exactnum", "Poly.gcd", {}),
    ("sft", "zeta_sft", {}),
    ("sft", "k_invariants", {}),
    ("sft", "per_count_trace", {}),
    ("sft", "per_count_enumerate", {}),
    ("sft", "shift_equivalent", {"decided": lambda r: r.status != "unknown"}),
    ("sft", "gl2z_similar", {"decided": lambda r: r.status != "unknown"}),
    ("intlinalg", "smith_normal_form", {}),
    ("intlinalg", "charpoly", {}),
    ("intlinalg", "sylvester_solutions", {"candidates": len}),
    ("intlinalg", "solve_right", {}),
    ("intlinalg", "mat_mul", {}),
    ("dynsys", "aberth_roots", {"roots": len}),
    ("dynsys", "iterate", {"degree": lambda f: f.degree, "coeff_bits": _coeff_bits}),
    ("dynsys", "compose", {}),
    ("dynsys", "periodic_points", {}),
    ("lattes", "RationalMap.__post_init__", {}),
    ("pipeline", "functor_invariants", {}),
    ("pipeline", "comparison_report", {}),
    ("pipeline", "conjugacy_test", {}),
    ("cli", "main", {}),
)

MAX_KEPT_SPANS = 200_000


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('__post_init__', 'post_init')}"


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    sizes: dict = field(default_factory=dict)
    warnings: int = 0


class Recorder:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = 0
        self.warning_log: list = []
        self._stack: list[list] = []  # [child time, span id]
        self._next_id = 0
        self._restore: list[tuple] = []

    def begin_op(self, op_id: int, warning_log: list) -> None:
        self.op_id = op_id
        self.warning_log = warning_log

    def _wrap(self, name: str, fn, sizes: dict):
        stats = self.stats.setdefault(name, Stat())
        stack = self._stack
        count_warnings = name == "dynsys.aberth_roots"

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            self._next_id += 1
            frame = [0.0, self._next_id]
            stack.append(frame)
            n_warn = len(self.warning_log)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                stats.calls += 1
                stats.self_s += dur - frame[0]
                if len(self.spans) < MAX_KEPT_SPANS:
                    self.spans.append((frame[1], parent, self.op_id, name, t0, t1, dur - frame[0]))
                else:
                    self.dropped += 1
            for key, size_fn in sizes.items():
                stats.sizes[key] = stats.sizes.get(key, 0) + size_fn(result)
            if count_warnings:
                stats.warnings += sum(
                    issubclass(w.category, RuntimeWarning)
                    for w in self.warning_log[n_warn:]
                )
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in every namespace that refers to it."""
        import importlib

        # Import every target module first: a module imported while some
        # wrappers are installed would keep references to them.
        for mod_name, _, _ in TARGETS:
            importlib.import_module(f"lattes_sft.{mod_name}")
        modules = [
            m for k, m in list(sys.modules.items()) if k == "lattes_sft" or k.startswith("lattes_sft.")
        ]
        for mod_name, attr, sizes in TARGETS:
            mod = sys.modules[f"lattes_sft.{mod_name}"]
            name = span_name(mod_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, sizes))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, sizes)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def write(self, path: str, summary: dict) -> None:
        """A summary line, then one JSON line per kept span: its id, the id
        of the span that caused it, the operation, name, start, end and
        self time."""
        keys = ("id", "parent", "op", "name", "start", "end", "self_s")
        with open(path, "w") as fh:
            fh.write(json.dumps({"summary": summary, "dropped_spans": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
