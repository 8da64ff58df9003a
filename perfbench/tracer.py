"""Span recording for traced benchmark runs.

A :class:`Tracer` wraps public functions and methods of the package from
outside.  Every call of a wrapped function records one span: its name, the
id of the enclosing span, the id of the benchmark case it belongs to, and its
start and end in nanoseconds.  Spans stay in memory, in flat arrays, until
:meth:`Tracer.write` stores them at the end of the run.

A function that another module imported by name is rebound there too
(``fractions.exact_divide``, ``braids.trace_coordinates``, ...), so every
call path goes through the wrapper.  :meth:`Tracer.uninstall` restores the
original bindings.

Self time of a span is its duration minus the part covered by its child
spans; the wrapper's own cost shows up in the self time of the caller.
"""

from __future__ import annotations

import array
import contextlib
import functools
import gzip
import json
import sys
import time
from collections import Counter

# (span name, module, owner class or None, attribute)
SPANS = (
    ("ring.mul", "ring", "LaurentPoly", "__mul__"),
    ("ring.mul", "ring", "LaurentPoly", "__rmul__"),
    ("ring.add", "ring", "LaurentPoly", "__add__"),
    ("ring.add", "ring", "LaurentPoly", "__radd__"),
    ("ring.exact_divide", "ring", None, "exact_divide"),
    ("ring.parse_poly", "ring", None, "parse_poly"),
    ("ring.serialize_poly", "ring", None, "serialize_poly"),
    ("ring.substitute", "ring", "LaurentPoly", "substitute"),
    ("fractions.reduce", "fractions", "FactoredFraction", "reduce"),
    ("fractions.derivative", "fractions", "FactoredFraction", "derivative"),
    ("fractions.frac_eq", "fractions", None, "frac_eq"),
    ("fractions.eval_poly", "fractions", None, "eval_poly"),
    ("forms.pull_one_form", "forms", "RationalMap", "pull_one_form"),
    ("forms.pull_two_form", "forms", "RationalMap", "pull_two_form"),
    ("forms.d", "forms", "ScalarOneForm", "d"),
    ("forms.wedge", "forms", "ScalarOneForm", "wedge"),
    ("sl2.mat_mul", "sl2", "Mat2", "__mul__"),
    ("sl2.inverse", "sl2", "Mat2", "inverse"),
    ("sl2.det", "sl2", "Mat2", "det"),
    ("reps.trace_coordinates", "reps", None, "trace_coordinates"),
    ("reps.reptuple_init", "reps", "RepTuple", "__init__"),
    ("braids.braid_act", "braids", None, "braid_act"),
    ("braids.closure", "braids", None, "orbit"),
    ("braids.closure", "braids", None, "extended_orbit"),
    ("braids.orbit_compare", "braids", None, "orbit_compare"),
    ("connections.flat_representative", "connections", None, "flat_representative"),
    ("connections.residue", "connections", None, "residue"),
    ("connections.is_flat", "connections", None, "is_flat"),
    ("connections.pullback_riccati", "connections", None, "pullback_riccati"),
    ("garnier.restrict_to_line", "garnier", None, "restrict_to_line"),
    ("garnier.h21_extract", "garnier", None, "h21_extract"),
    ("garnier.garnier_parametrization", "garnier", None, "garnier_parametrization"),
)


def span_names(suites) -> list[str]:
    """Every span name a traced run can record, in table order."""
    names = list(dict.fromkeys(name for name, *_ in SPANS))
    return names + [f"cli.suite.{s}" for s in suites]


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("H")
        self.parent = array.array("l")
        self.case = array.array("l")
        self.start = array.array("q")
        self.end = array.array("q")
        self.counts: Counter = Counter()
        self.case_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def traced(self, name: str, fn, note=None):
        """Wrap ``fn`` so that each call records a span called ``name``.

        ``note(args, result)`` runs after the call, outside the span, to
        update :attr:`counts`.
        """
        sid = self.name_id(name)
        stack, clock = self._stack, time.perf_counter_ns
        names, parents, cases = self.name, self.parent, self.case
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            cases.append(self.case_id)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if note is not None:
                note(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; it starts a new case."""
        i = len(self.name)
        outer, self.case_id = self.case_id, i
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.case.append(i)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter_ns()
            self._stack.pop()
            self.case_id = outer

    # -- patching -------------------------------------------------------

    def install(self, package) -> None:
        """Patch the listed functions and every by-name binding of them
        in the package's loaded modules."""
        prefix = package.__name__ + "."
        mods = [m for name, m in list(sys.modules.items()) if name.startswith(prefix)]
        notes = {"ring.mul": self._note_mul,
                 "ring.exact_divide": self._note_divide}
        for name, module, owner, attr in SPANS:
            if owner is not None:
                cls = getattr(getattr(package, module), owner)
                self._set(cls, attr,
                          self.traced(name, cls.__dict__[attr], notes.get(name)))
                continue
            fn = getattr(getattr(package, module), attr)
            wrapper = self.traced(name, fn, notes.get(name))
            for target in [package] + mods:
                for key, value in list(vars(target).items()):
                    if value is fn:
                        self._set(target, key, wrapper)
        suites = package.cli.SUITES
        for key, fn in list(suites.items()):
            wrapper = self.traced(f"cli.suite.{key}", fn)
            suites[key] = wrapper
            self._patches.append((suites, key, fn))

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _note_mul(self, args, result) -> None:
        a, b = args
        nb = len(b.terms) if hasattr(b, "terms") else (1 if b else 0)
        self.counts["ring.mul.term_products"] += len(a.terms) * nb

    def _note_divide(self, args, result) -> None:
        self.counts["ring.exact_divide.hits"] += result is not None

    # -- aggregation and output -----------------------------------------

    def per_name(self) -> dict[str, tuple[int, int, int]]:
        """``{span name: (calls, total ns, self ns)}`` over all spans."""
        n = len(self.name)
        child = [0] * n
        parents, starts, ends = self.parent, self.start, self.end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        total_ns = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, sid in enumerate(self.name):
            dur = ends[i] - starts[i]
            calls[sid] += 1
            total_ns[sid] += dur
            self_ns[sid] += dur - child[i]
        return {name: (calls[i], total_ns[i], self_ns[i])
                for i, name in enumerate(self.names)}

    def write(self, path, stamp: dict) -> None:
        """Store all spans: a JSON header line, then the raw columns."""
        cols = [("name", self.name), ("parent", self.parent),
                ("case", self.case), ("start_ns", self.start),
                ("end_ns", self.end)]
        header = {"stamp": stamp, "names": self.names, "spans": len(self.name),
                  "columns": [[c, a.typecode, a.itemsize] for c, a in cols]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, a in cols:
                fh.write(a.tobytes())
