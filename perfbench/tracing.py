"""In-memory tracing of the calls the benchmark makes into each sbq layer.

A layer is one ``sbq`` module.  :class:`Tracer` replaces every public
function of every ``sbq`` module at every import site (the defining module
and each module that imported it by name) with a wrapper that records a
span: layer, function, start, end, parent span, process id, and the FFT
calls made while the span was the innermost one.  ``numpy.fft`` (and
``scipy.fft``, if the program imported it) transforms are counted globally
by wrappers on the FFT functions; each call is also attributed to the
innermost open span, so the attributed counts must sum to the global count.

Pool workers started with ``fork`` inherit the wrappers.  A worker keeps its
own spans while it runs ``ensemble.run_realization`` and returns them on the
result object; :meth:`Tracer.merge_results` folds them into the parent.

Nothing is written while tracing; :meth:`Tracer.write_spans` writes the
spans out once the run is over.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import os
import sys
import time

FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft")
RESULT_ATTR = "perfbench_trace"

# span categories: work inside records, output writing and config building is
# kept apart from the per-step work so that per-step figures mean the stepper
CATEGORY_BY_LAYER = {"diagnostics": "record", "io": "io", "config": "setup"}


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


def _sbq_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sbq" or name.startswith("sbq."))]


def public_functions():
    """(layer, name, function) for every public function defined in sbq."""
    out = []
    for mod in _sbq_modules():
        if mod.__name__ == "sbq":
            continue
        layer = mod.__name__.split(".", 1)[1]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                out.append((layer, name, obj))
    return out


def patch_everywhere(patches: Patches, original, replacement):
    """Replace ``original`` in every sbq module namespace that holds it."""
    for mod in _sbq_modules():
        for name, obj in list(vars(mod).items()):
            if obj is original:
                patches.set(mod, name, replacement)


class Tracer:
    """Span and FFT recorder; :meth:`install` turns it on, :meth:`uninstall`
    restores every patched name."""

    SPAN_FIELDS = ("id", "parent", "pid", "layer", "name", "category", "t0", "t1",
                   "self_s", "fft_calls", "fft_s", "fft_bytes")

    def __init__(self):
        self.owner = self.pid = os.getpid()
        self.patches = Patches()
        self.next_id = 0  # never reset, so span ids stay unique per process
        self.clear()

    def clear(self):
        # open frames: [id, parent, layer, name, t0, category, fft_calls,
        #               fft_s, fft_bytes, child_s]
        self.stack = []
        self.spans = []        # closed spans, see SPAN_FIELDS
        self.fft_global = 0    # counted by the FFT wrappers
        self.fft_unattributed = 0

    # -- recording ---------------------------------------------------------
    def enter(self, layer, name):
        if os.getpid() != self.pid:  # first call in a forked worker
            self.pid = os.getpid()
            self.clear()
        parent = self.stack[-1] if self.stack else None
        category = CATEGORY_BY_LAYER.get(layer, parent[5] if parent else "work")
        frame = [self.next_id, parent[0] if parent else -1, layer, name,
                 time.perf_counter(), category, 0, 0.0, 0, 0.0]
        self.next_id += 1
        self.stack.append(frame)

    def exit(self):
        t1 = time.perf_counter()
        fid, parent, layer, name, t0, category, ffts, fft_s, fft_bytes, child = \
            self.stack.pop()
        if self.stack:
            self.stack[-1][9] += t1 - t0
        self.spans.append((fid, parent, self.pid, layer, name, category, t0, t1,
                           t1 - t0 - child, ffts, fft_s, fft_bytes))

    def record_fft(self, seconds, nbytes):
        self.fft_global += 1
        if self.stack:
            top = self.stack[-1]
            top[6] += 1
            top[7] += seconds
            top[8] += nbytes
            # FFT time belongs to the numpy call, not to the caller's self time
            top[9] += seconds
        else:
            self.fft_unattributed += 1

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, layer, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        if (layer, name) == ("ensemble", "run_realization"):
            @functools.wraps(fn)
            def realization(*args, **kwargs):
                in_worker = os.getpid() != tracer.owner
                result = wrapper(*args, **kwargs)
                if in_worker:
                    setattr(result, RESULT_ATTR, tracer.export())
                    tracer.clear()
                return result
            return realization
        return wrapper

    def _wrap_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def fft(a, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(a, *args, **kwargs)
            elapsed = time.perf_counter() - t0
            tracer.record_fft(elapsed, getattr(a, "nbytes", 0) + out.nbytes)
            return out
        return fft

    def install(self):
        self.owner = self.pid = os.getpid()
        for layer, name, fn in public_functions():
            patch_everywhere(self.patches, fn, self._wrap(layer, name, fn))
        fft_modules = [importlib.import_module("numpy.fft")]
        if "scipy.fft" in sys.modules:
            fft_modules.append(sys.modules["scipy.fft"])
        for mod in fft_modules:
            for name in FFT_NAMES:
                fn = getattr(mod, name, None)
                if fn is None:
                    continue
                wrapped = self._wrap_fft(fn)
                patch_everywhere(self.patches, fn, wrapped)
                self.patches.set(mod, name, wrapped)

    def uninstall(self):
        self.patches.undo()

    # -- results -----------------------------------------------------------
    def export(self) -> dict:
        return {"spans": self.spans, "fft_global": self.fft_global,
                "fft_unattributed": self.fft_unattributed}

    def merge(self, data: dict):
        self.spans.extend(data["spans"])
        self.fft_global += data["fft_global"]
        self.fft_unattributed += data["fft_unattributed"]

    def merge_results(self, results):
        """Fold the spans pool workers attached to realization results."""
        for res in results:
            data = getattr(res, RESULT_ATTR, None)
            if data is not None:
                self.merge(data)
                delattr(res, RESULT_ATTR)

    def fft_attribution(self) -> tuple[bool, str]:
        """The FFT calls attributed to spans must sum to the global count, and
        none may run outside a layer span."""
        attributed = sum(s[9] for s in self.spans)
        ok = (attributed + self.fft_unattributed == self.fft_global
              and not self.fft_unattributed)
        return ok, (f"{attributed} attributed + {self.fft_unattributed} outside "
                    f"spans, {self.fft_global} counted")

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.SPAN_FIELDS)
            writer.writerows(self.spans)
