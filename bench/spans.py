"""Span tracing of the package from outside, by patching names.

A span is recorded around each wrapped call: its name, start, end, the
enclosing span and the case id shared by every span of one public call.
Spans live in a flat in-memory array and are written out when the run
ends.  Nothing in the package is edited: each wrapped function is rebound
under every module-level name that refers to it (``inverses``, ``solvers``,
``ode`` and ``cli`` import the ``minors`` functions and ``index_of`` by
name), and the ``CMatrix`` methods are replaced on the class.

Scalar arithmetic is counted in a separate pass (``ScalarCounter``): a
wrapper around every ``GaussianRational`` operator would dominate the
spans it sits inside.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from array import array
from collections import defaultdict

from exact import bits

FIELDS = 5  # name id, start ns, end ns, parent span, case id

# (span name, module holding the original, attribute) for every function
# wrapped by name.  Several functions may share one span name.
FUNCTION_SPANS = (
    ("minors.principal_sum", "minors", "sum_principal_minors"),
    ("minors.replaced_sum", "minors", "sum_minors_col_replaced"),
    ("minors.replaced_sum", "minors", "sum_minors_row_replaced"),
    ("inverses.index", "inverses", "index_of"),
    ("inverses.drazin", "inverses", "drazin_col"),
    ("inverses.drazin", "inverses", "drazin_row"),
    ("inverses.drazin", "inverses", "group_inverse"),
    ("inverses.drazin", "inverses", "projector_col"),
    ("inverses.drazin", "inverses", "projector_row"),
    ("inverses.oracle", "inverses", "drazin_oracle"),
    ("inverses.verify", "inverses", "verify_drazin"),
    ("solvers.solve", "solvers", "solve_ax"),
    ("solvers.solve", "solvers", "solve_xa"),
    ("solvers.solve", "solvers", "solve_axb"),
    ("ode.partial", "ode", "ode_left_partial"),
    ("ode.partial", "ode", "ode_right_partial"),
    ("cli.load", "cli", "load_matrix"),
    ("cli.emit", "cli", "_emit"),
    ("cli.main", "cli", "main"),
)

METHOD_SPANS = (
    ("matrices.det", "det"),
    ("matrices.rank", "rank"),
    ("matrices.matmul", "__matmul__"),
)

MODULES = ("minors", "matrices", "inverses", "solvers", "ode", "cli")


class Tracer:
    """In-memory span recorder with install/uninstall of the patches."""

    def __init__(self, package):
        self.names = []
        self.spans = array("q")
        self.stack = []
        self.case = -1
        self.cases = 0
        self.minor_evals = 0
        self.minor_nonzero = 0
        self.counters_at_prefix = (0, 0)
        self._patches = []
        self._build(package)

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name, fn):
        """fn wrapped so that each call records one span."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans) // FIELDS
            spans.extend((nid, 0, 0, stack[-1] if stack else -1, self.case))
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx * FIELDS + 1] = start
                spans[idx * FIELDS + 2] = end

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_minor(self, fn):
        def wrapper(m, subset):
            value = fn(m, subset)
            self.minor_evals += 1
            if value:
                self.minor_nonzero += 1
            return value

        return wrapper

    def _build(self, pkg):
        modules = [pkg] + [getattr(pkg, name) for name in MODULES]
        replacements = {}
        for name, module, attr in FUNCTION_SPANS:
            original = getattr(getattr(pkg, module), attr)
            replacements[id(original)] = (original, self.span(name, original))
        original = pkg.minors.principal_minor
        replacements[id(original)] = (original, self._count_minor(original))
        for module in modules:
            for attr, value in vars(module).items():
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value, hit[1]))
        cls = pkg.matrices.CMatrix
        for name, attr in METHOD_SPANS:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original, self.span(name, original)))

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def root(self, name, fn):
        """fn wrapped as the root span of one public call, each call under a
        new case id."""
        wrapped = self.span("call." + name, fn)

        def start_case(*args):
            self.case = self.cases
            self.cases += 1
            return wrapped(*args)

        return start_case

    def snapshot_counters(self):
        self.counters_at_prefix = (self.minor_evals, self.minor_nonzero)

    def __len__(self):
        return len(self.spans) // FIELDS

    def aggregate(self, cases=None):
        """Per span name: calls, inclusive ns and self ns, over the spans
        whose case id is in ``cases`` (all spans when None).

        Self time is the span's duration minus that of its direct children,
        which never overlap because there is one thread.
        """
        spans = self.spans
        count = len(self)
        child_ns = [0] * count
        for i in range(count):
            parent = spans[i * FIELDS + 3]
            if parent >= 0:
                child_ns[parent] += spans[i * FIELDS + 2] - spans[i * FIELDS + 1]
        out = defaultdict(lambda: [0, 0, 0])
        for i in range(count):
            base = i * FIELDS
            if cases is not None and spans[base + 4] not in cases:
                continue
            duration = spans[base + 2] - spans[base + 1]
            row = out[self.names[spans[base]]]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child_ns[i]
        return out

    def write_out(self, directory, workload):
        """All spans as gzip-compressed JSON lines; returns the file path."""
        path = os.path.join(directory, "trace-%s.jsonl.gz" % workload)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "case"],
                                     "names": self.names}) + "\n")
            spans = self.spans
            for i in range(len(self)):
                handle.write(json.dumps(spans[i * FIELDS:(i + 1) * FIELDS].tolist()) + "\n")
        return path


class ScalarCounter:
    """Counts GaussianRational operations and the widest result.

    ``__rsub__`` and ``__rtruediv__`` delegate to the patched ``__sub__``
    and ``__truediv__``, so they are counted there and not patched again.
    """

    OPERATORS = (
        ("__add__", "addsub"), ("__radd__", "addsub"), ("__sub__", "addsub"),
        ("__mul__", "mul"), ("__rmul__", "mul"), ("__truediv__", "div"),
    )

    def __init__(self, scalar_cls):
        self.cls = scalar_cls
        self.calls = {"addsub": 0, "mul": 0, "div": 0}
        self.bits_out = 0
        self._originals = {attr: scalar_cls.__dict__[attr] for attr, _ in self.OPERATORS}

    def _wrap(self, fn, kind):
        cls = self.cls

        def wrapper(a, b):
            result = fn(a, b)
            self.calls[kind] += 1
            if isinstance(result, cls):
                width = bits(result.re, result.im)
                if width > self.bits_out:
                    self.bits_out = width
            return result

        return wrapper

    def install(self):
        for attr, kind in self.OPERATORS:
            setattr(self.cls, attr, self._wrap(self._originals[attr], kind))

    def uninstall(self):
        for attr, original in self._originals.items():
            setattr(self.cls, attr, original)
