"""Spans around tvo's public functions, recorded from the benchmark's side.

A :class:`Tracer` replaces selected functions, methods and cached
properties of the loaded ``tvo`` modules with wrappers that record, per
layer metric, the self time (span minus the spans of its children) and the
call count. Spans are kept as running totals in memory, split by phase:
each set-up gets its own totals, and the timed rounds share one.
"""

from __future__ import annotations

import sys
import tracemalloc
from functools import cached_property
from time import perf_counter

# (module, attribute, span name); an attribute "Class.name" is a method or
# a cached property of that class
TARGETS = (
    *(("tvo.catalog", fn, "catalog.generators") for fn in (
        "trivial_data", "fibonacci", "ising", "su2_level_k", "pointed_cyclic",
        "quantum_double_abelian", "twisted_double_cyclic")),
    ("tvo.dataio", "load_modular_file", "dataio.load_modular_file"),
    ("tvo.modular", "verify_verlinde", "modular.verify_verlinde"),
    ("tvo.modular", "FusionTable.associative_ok", "modular.associative_ok"),
    ("tvo.modular", "fusion_from_S", "modular.fusion_from_S"),
    ("tvo.modular", "conjugate_equivalent", "modular.conjugate_equivalent"),
    ("tvo.modular", "double_data", "modular.double_data"),
    ("tvo.tube", "tube_pointed", "tube.tube_pointed"),
    ("tvo.tube", "TubeAlgebra.associativity_residual", "tube.associativity_residual"),
    ("tvo.tube", "center_idempotents", "tube.center_idempotents"),
    ("tvo.tube", "tube_modular_data", "tube.tube_modular_data"),
    ("tvo.surgery", "lens_general", "surgery.lens_general"),
    ("tvo.surgery", "lens_p1", "surgery.lens_p1"),
    ("tvo.surgery", "lens_p2", "surgery.lens_p2"),
    ("tvo.surgery", "brieskorn", "surgery.brieskorn"),
    ("tvo.surgery", "plumbing_invariant", "surgery.plumbing_invariant"),
    ("tvo.statesum", "tv_evaluate", "statesum.tv_evaluate"),
    ("tvo.statesum", "verify_pentagon", "statesum.verify_pentagon"),
    ("tvo.triangulation", "pachner_23", "triangulation.pachner_23"),
    ("tvo.triangulation", "pachner_14", "triangulation.pachner_14"),
    *(("tvo.triangulation", f"Triangulation.{prop}", "triangulation.classes") for prop in (
        "vertex_class", "edge_class", "face_classes", "orientation")),
)

# spans whose tracemalloc peak is recorded as tube.traced_peak_mb
MEMORY_LAYER = "tube."


class Tracer:
    def __init__(self):
        self._stack = []  # [name, start, child seconds]
        self.current = self._new_phase()
        self.setups = []
        self.run = self._new_phase()
        self.originals = {}
        self._mem_depth = 0
        self.peak_bytes = 0
        self.muted = False  # while set, wrapped calls run unrecorded

    @staticmethod
    def _new_phase():
        return {"self_s": {}, "calls": {}, "counts": {}}

    # -- phases ---------------------------------------------------------------

    def begin_setup(self):
        self.current = self._new_phase()
        self.setups.append(self.current)

    def begin_run(self):
        self.current = self.run

    def count(self, name: str, amount: int = 1):
        counts = self.current["counts"]
        counts[name] = counts.get(name, 0) + amount

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        if self.muted:
            return fn(*args, **kwargs)
        memory = name.startswith(MEMORY_LAYER)
        if memory:
            if self._mem_depth == 0:
                tracemalloc.start()
            self._mem_depth += 1
        frame = [name, perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - frame[1]
            self._stack.pop()
            if self._stack:
                self._stack[-1][2] += dur
            phase = self.current
            phase["self_s"][name] = phase["self_s"].get(name, 0.0) + dur - frame[2]
            phase["calls"][name] = phase["calls"].get(name, 0) + 1
            if memory:
                self._mem_depth -= 1
                if self._mem_depth == 0:
                    self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target in the loaded tvo modules; returns self."""
        for module_name, attr, name in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[member]
                if isinstance(raw, cached_property):
                    self.originals[attr] = raw.func
                    raw.func = self._wrap(name, raw.func)
                else:
                    self.originals[attr] = raw
                    setattr(cls, member, self._wrap(name, raw))
                continue
            original = getattr(module, attr)
            self.originals[attr] = original
            wrapped = self._wrap(name, original)
            # replace every re-export too, so calls through tvo.<name> and
            # module-internal calls both pass through the wrapper
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "tvo" or mod_name.startswith("tvo."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        return self
