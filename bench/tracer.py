"""Spans and counters around the package's layer functions, installed from outside.

The tracer replaces a function at every import site inside the ``cocycle``
package (every module attribute that is the same object), so calls made
between modules are recorded too. Nothing under ``src/`` is edited. Spans
stay in memory as ``[name, start, end, parent, phase, job]`` lists and are
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def gl_order(q: int, m: int) -> int:
    """|GL_m(F_q)| = prod_{i<m} (q^m - q^i)."""
    total = 1
    for i in range(m):
        total *= q**m - q**i
    return total


def _h1_counts(tracer, args, kwargs, result):
    parent = args[0]
    gamma, base = parent.gamma, parent.base
    k = len(gamma.generators()) if gamma.order > 1 else 0
    cands = base.order**k
    tracer.add("cohomology.candidates", cands)
    tracer.add("cohomology.cocycles", result.n_cocycles)
    tracer.add("cohomology.classes", result.order)
    tracer.peak("cohomology.candidate_bytes", 8 * cands * gamma.order)


def _h1_trivial_counts(tracer, args, kwargs, result):
    gamma, base = args[0], args[1]
    tracer.add("cohomology.candidates", base.order ** len(gamma.generators()))
    tracer.add("cohomology.cocycles", result.n_cocycles)
    tracer.add("cohomology.classes", result.order)


def _hom_counts(tracer, args, kwargs, result):
    source, target = args[0], args[1]
    tracer.add("groups.hom_candidates", target.order ** len(source.generators()))
    tracer.add("groups.homs_found", len(result))


def _h2_counts(tracer, args, kwargs, result):
    gamma, pres = args[0], args[1]
    n1, k = gamma.order - 1, pres.rank
    d2, d3 = n1 * n1 * k, n1 * n1 * n1 * k
    tracer.add("exactness.h2_entries", d3 * (d2 + d3))


def _snf_counts(tracer, args, kwargs, result):
    m = args[0]
    rows, cols = len(m), (len(m[0]) if m else 0)
    tracer.add("snf.calls", 1)
    tracer.add("snf.entries", rows * cols)
    tracer.peak("snf.max_rows", rows)
    tracer.peak("snf.max_cols", cols)


def _tower_counts(tracer, args, kwargs, result):
    if not result._tables_built:
        tracer.untabled.add((result.p, result.d, result.n))


def _scan_counts(tracer, args, kwargs, result):
    tower, m = args[0], args[1]
    tracer.add("galois.matrices_scanned", tower.size ** (m * m))


def _forms_counts(tracer, args, kwargs, result):
    tower, tensor = args[0], args[1]
    tracer.add("galois.forms_gl_size", gl_order(tower.size, tensor.dim))


#: (defining module, attribute, span name, counter hook). Functions that
#: share a span name form one layer; nested spans of one name count once.
TARGETS = [
    ("cocycle.groups", "make_group", "groups.build", None),
    ("cocycle.groups", "cyclic_group", "groups.build", None),
    ("cocycle.groups", "symmetric_group", "groups.build", None),
    ("cocycle.groups", "dihedral_group", "groups.build", None),
    ("cocycle.groups", "quaternion_group", "groups.build", None),
    ("cocycle.groups", "direct_product", "groups.build", None),
    ("cocycle.groups", "quotient_group", "groups.build", None),
    ("cocycle.groups", "enumerate_homs", "groups.hom_search", _hom_counts),
    ("cocycle.groups", "homs_up_to_conjugacy", "groups.hom_search", None),
    ("cocycle.groups", "automorphism_group", "groups.hom_search", None),
    ("cocycle.cohomology", "h1", "cohomology.h1", _h1_counts),
    ("cocycle.cohomology", "h1_trivial_action", "cohomology.h1", _h1_trivial_counts),
    ("cocycle.cohomology", "trivial_action", "cohomology.action_build", None),
    ("cocycle.cohomology", "action_from_gen_images", "cohomology.action_build", None),
    ("cocycle.cohomology", "conjugation_action", "cohomology.action_build", None),
    ("cocycle.cohomology", "inversion_action", "cohomology.action_build", None),
    ("cocycle.cohomology", "induced_map", "cohomology.induced_map", None),
    ("cocycle.exactness", "h2_central", "exactness.h2", _h2_counts),
    ("cocycle.exactness", "connecting_delta", "exactness.delta", None),
    ("cocycle.exactness", "orbit_kernel_bijection", "exactness.bijection", None),
    ("cocycle.exactness", "six_term_check", "exactness.bijection", None),
    ("cocycle.snf", "smith_normal_form", "snf.smith", _snf_counts),
    ("cocycle.fields", "make_tower", "fields.tower", _tower_counts),
    ("cocycle.fields", "enumerate_gl", "fields.gl_enum", None),
    ("cocycle.fields", "enumerate_sl", "fields.gl_enum", None),
    ("cocycle.galois", "hilbert90_verify", "galois.scan", _scan_counts),
    ("cocycle.galois", "sl_h1_verify", "galois.scan", None),
    ("cocycle.galois", "classify_forms", "galois.forms", _forms_counts),
    ("cocycle.etale", "classify_etale", "etale.classify", None),
    ("cocycle.etale", "realize_over_fq", "etale.realize", None),
    ("cocycle.twisted", "cocycle_twist_correspondence", "twisted.classify", None),
    ("cocycle.twisted", "classify_phs", "twisted.classify", None),
    ("cocycle.twisted", "shapiro_verify", "twisted.classify", None),
    ("cocycle.quad", "verify_units_iso", "quad.units", None),
]


class Tracer:
    """Records nested spans and per-phase counters for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = -1  # -1 is set-up; passes count from 0
        self.job = -1
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.maxima: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.untabled: set[tuple[int, int, int]] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float) -> None:
        self.counts[self.phase][name] += value

    def peak(self, name: str, value: float) -> None:
        slot = self.maxima[self.phase]
        slot[name] = max(slot[name], value)

    def wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent, tracer.phase, tracer.job]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span[2] = time.perf_counter()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every ``cocycle`` import site."""
        for module_name, attr, name, hook in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = self.wrap(name, original, hook)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "") or ""
                if mod_name.split(".")[0] != "cocycle":
                    continue
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))
        gamma_group = importlib.import_module("cocycle.cohomology").GammaGroup
        original_init = gamma_group.__init__
        gamma_group.__init__ = self.wrap("cohomology.action_build", original_init)
        self._undo.append((gamma_group, "__init__", original_init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def merge(self, spans: list[list], counts: dict, maxima: dict, untabled) -> None:
        """Adopt spans and counters recorded by a traced child process."""
        offset = len(self.spans)
        for name, start, end, parent, _phase, _job in spans:
            new_parent = parent + offset if parent >= 0 else -1
            self.spans.append([name, start, end, new_parent, self.phase, self.job])
        for name, value in counts.items():
            self.add(name, value)
        for name, value in maxima.items():
            self.peak(name, value)
        self.untabled.update(tuple(t) for t in untabled)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
            "maxima": {str(k): dict(v) for k, v in self.maxima.items()},
            "untabled": sorted(self.untabled),
        }


def layer_times(spans: list[list], phase: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per span name: total time (outermost spans of that name) and self time.

    Self time is a span's duration minus the time its direct children cover;
    children of one span never overlap because the process is single-threaded.
    """
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    for _name, start, end, parent, ph, _job in spans:
        if ph == phase and parent >= 0:
            child_time[parent] += end - start
    for idx, (name, start, end, parent, ph, _job) in enumerate(spans):
        if ph != phase:
            continue
        dur = end - start
        self_time[name] += dur - child_time[idx]
        anc, nested = parent, False
        while anc >= 0:
            if spans[anc][0] == name:
                nested = True
                break
            anc = spans[anc][3]
        if not nested:
            total[name] += dur
    return total, self_time
