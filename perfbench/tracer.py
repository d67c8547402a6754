"""Outside-in tracer for defectlab.

The tracer wraps the library from outside: it replaces the public
functions of the entry-point modules with span-recording wrappers in every
``defectlab`` module namespace that bound them, and wraps the ``Series``,
``FiniteField`` and ``ExtRat`` operations on their classes.  No file under
``src/`` is edited.

* Module entry points keep full spans ``(name, start, end, parent, job)``.
* ``Series`` add/sub/mul are timed but aggregated per op kind and mode,
  so the trace's memory stays bounded (about 1.4M such calls per 100
  ``as-family`` jobs).
* ``FiniteField`` and ``ExtRat`` operations are counted only: a wrapper
  around a 0.1 us op would measure mostly itself.

A span's self time is its duration minus the durations of its direct
children.  Every job runs under a root ``job`` span, so the self times of
one job sum exactly to its traced wall time; wrapper bookkeeping lands in
the caller's self time.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter

ENTRY_MODULES = ("cli", "fields", "approx", "artin", "kummer", "certfile", "series")
SERIES_OPS = ("__add__", "__sub__", "__mul__")
FFIELD_OPS = ("add", "sub", "neg", "mul", "inv", "pow_", "frob", "ifrob")
EXTRAT_OPS = ("__add__", "__sub__", "__rsub__", "__mul__", "__neg__",
              "__lt__", "__le__", "__gt__", "__ge__", "__eq__")
OP_NAMES = {"__add__": "add", "__sub__": "sub", "__mul__": "mul"}


class Frame:
    __slots__ = ("child", "span", "scanned")

    def __init__(self, span):
        self.child = 0.0
        self.span = span
        self.scanned = 0


class Tracer:
    """Span and counter store; ``install`` patches the imported library."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job id]
        self.agg = {}            # name -> [calls, self_s, total_s]
        self.counts = {}         # name -> int
        self.errors = {}         # layer -> exceptions crossing its boundary
        self.ffield_ops = [0]
        self.extrat_ops = [0]
        self.stack = [Frame(-1)]
        self.job = None
        self._seen_lists = {}    # id -> enumerate_elements result
        self._patched = []

    # -- bookkeeping ------------------------------------------------------

    def bump(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _close(self, name, frame, dur):
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += dur - frame.child
        a[2] += dur

    def _error(self, layer):
        self.errors[layer] = self.errors.get(layer, 0) + 1

    # -- spans -------------------------------------------------------------

    def span(self, name, layer, fn, post=None):
        """Wrap ``fn`` so that each call records a full span."""
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            rec = [name, 0.0, 0.0, parent.span, self.job]
            spans.append(rec)
            frame = Frame(idx)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._error(layer)
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent.child += dur
                rec[1], rec[2] = t0, t1
                self._close(name, frame, dur)
            if post is not None:
                post(self, frame, args, result)
            return result

        return wrapper

    def job_span(self, job_id, fn, *args):
        """Run ``fn(*args)`` as the root span of job ``job_id``; returns
        (result, the job span's duration in seconds)."""
        self.job = job_id
        rec = len(self.spans)
        try:
            result = self.span("job", "job", fn)(*args)
        finally:
            self.job = None
        _, start, end, _, _ = self.spans[rec]
        return result, end - start

    def _series_op(self, op, fn):
        stack, agg_names = self.stack, {m: f"series.{m}.{OP_NAMES[op]}" for m in ("equal", "mixed")}

        def wrapper(a, b):
            # an op frame carries the enclosing span, so spans below it keep a parent
            frame = Frame(stack[-1].span)
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(a, b)
            except BaseException:
                self._error("series")
                raise
            finally:
                dur = perf_counter() - t0
                stack.pop()
                stack[-1].child += dur
                self._close(agg_names[a.ctx.mode], frame, dur)

        return wrapper

    @staticmethod
    def _counted(fn, cell):
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        """Patch the already imported ``defectlab`` package in place."""
        import defectlab  # noqa: F401  (imports every submodule)
        from defectlab.cuts import ExtRat
        from defectlab.ffield import FiniteField
        from defectlab.series import Series

        mods = [m for k, m in sys.modules.items()
                if k == "defectlab" or k.startswith("defectlab.")]
        replace = {}
        for short in ENTRY_MODULES:
            mod = sys.modules[f"defectlab.{short}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not callable(obj) or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                replace[id(obj)] = self.span(name, short, obj, POST_HOOKS.get(name))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                w = replace.get(id(obj))
                if w is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, w)
        for op in SERIES_OPS:
            self._patch_class(Series, op, self._series_op(op, getattr(Series, op)))
        for op in FFIELD_OPS:
            self._patch_class(FiniteField, op, self._counted(getattr(FiniteField, op), self.ffield_ops))
        for op in EXTRAT_OPS:
            self._patch_class(ExtRat, op, self._counted(getattr(ExtRat, op), self.extrat_ops))
        return self

    def _patch_class(self, cls, attr, wrapper):
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()

    # -- reports -----------------------------------------------------------

    def snapshot(self):
        """Cumulative counters, for per-job deltas."""
        snap = {f"{k}.calls": v[0] for k, v in self.agg.items()}
        snap.update({f"{k}.self_s": v[1] for k, v in self.agg.items()})
        snap.update(self.counts)
        snap["ffield.ops"] = self.ffield_ops[0]
        snap["cuts.extrat_ops"] = self.extrat_ops[0]
        return snap

    def enumeration_distinct(self):
        """(distinct, listed) over every distinct list enumerate_elements
        returned; computed after the timed loop."""
        distinct = listed = 0
        for lst in self._seen_lists.values():
            distinct += len(set(lst))
            listed += len(lst)
        return distinct, listed

    def dump(self):
        distinct, listed = self.enumeration_distinct()
        return {
            "agg": self.agg,
            "counts": self.counts,
            "errors": self.errors,
            "ffield_ops": self.ffield_ops[0],
            "extrat_ops": self.extrat_ops[0],
            "enum_distinct": distinct,
            "enum_unique_listed": listed,
        }


# -- per-entry post hooks: counts measured where the work happens ----------

def _post_enumerate(tr, frame, args, result):
    tr.bump("fields.enumerate_elements.listed", len(result))
    if id(result) in tr._seen_lists:
        tr.bump("fields.enumerate_elements.hits")
    else:
        tr._seen_lists[id(result)] = result
    for f in reversed(tr.stack):
        if f.span >= 0 and tr.spans[f.span][0] == "approx.value_set":
            f.scanned += len(result)
            break


def _post_value_set(tr, frame, args, result):
    tr.bump("approx.value_set.elements_scanned", frame.scanned)
    tr.bump("approx.value_set.realized", len(result.realized))


def _post_read(tr, frame, args, result):
    tr.bump("certfile.read_certificate_file.bytes", os.path.getsize(args[0]))


def _post_write(tr, frame, args, result):
    tr.bump("certfile.write_certificate_file.bytes", os.path.getsize(args[0]))


def _post_verify(tr, frame, args, result):
    tr.bump("certfile.verify_certificate.certs", len(args[0].certs))


POST_HOOKS = {
    "fields.enumerate_elements": _post_enumerate,
    "approx.value_set": _post_value_set,
    "certfile.read_certificate_file": _post_read,
    "certfile.write_certificate_file": _post_write,
    "certfile.verify_certificate": _post_verify,
}
