"""Spans around the layers' entry points, recorded from outside the package.

`Tracer.installed()` replaces each entry point at every module attribute (and
runner-table slot) through which a caller looks it up, so no file under
`src/` changes. Each wrapped call appends a span [name, start, end, parent,
run id] to an in-memory list. A layer's self time is the duration of its
spans minus the part covered by their child spans; code outside the package
(numpy, file writes) counts toward the layer that called it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

from donorpair import config, experiments, linalg, pulses, spam, spinmodel, tomography

LAYERS = ("pulses", "linalg", "tomography", "experiments")

# (module, attribute path) of each wrapped entry point; the span name is
# "<layer>.<attribute path>"
ENTRIES = (
    (experiments, "run"),
    (experiments, "run_phase_map"),
    (experiments, "run_full_phase_sim"),
    (experiments, "run_bell_tomography"),
    (experiments, "run_pirs_cz"),
    (experiments, "csv_bytes"),
    (experiments, "json_bytes"),
    (pulses, "engine_for"),
    (pulses, "phase_map"),
    (pulses, "cz_flip_curve"),
    (pulses, "run_sequence"),
    (pulses, "SequenceEngine.step_unitary"),
    (pulses, "SequenceEngine.pulse_propagator"),
    (linalg, "unitary_exp"),
    (linalg, "hermitian_eig"),
    (linalg, "nearest_physical_density"),
    (linalg, "psd_sqrt"),
    (tomography, "sequence_table"),
    (tomography, "tomography_pipeline"),
    (tomography, "sample_table"),
    (tomography, "bootstrap_ci"),
    (tomography, "mean_table"),
    (tomography, "stokes_from_probabilities"),
    (tomography, "density_from_stokes"),
    (tomography, "fidelity"),
    (tomography, "concurrence"),
)

SPAN_NAMES = tuple(f"{m.__name__.split('.')[-1]}.{attr}" for m, attr in ENTRIES)

# modules whose globals hold the callers' references; linalg's own internal
# calls (unitary_exp -> hermitian_eig) stay unwrapped
_CALLER_MODULES = (config, experiments, pulses, spam, spinmodel, tomography)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, run id]
        self.run_id = 0
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.run_id])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        undo = []
        try:
            for (module, attr), name in zip(ENTRIES, SPAN_NAMES):
                owner, _, method = attr.rpartition(".")
                if owner:  # callers look a method up on its class
                    cls = getattr(module, owner)
                    original = vars(cls)[method]
                    setattr(cls, method, self._wrap(name, original))
                    undo.append(lambda c=cls, m=method, f=original: setattr(c, m, f))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(name, original)
                for namespace in [vars(m) for m in _CALLER_MODULES] + [experiments._RUNNERS]:
                    for key in [k for k, v in namespace.items() if v is original]:
                        namespace[key] = wrapped
                        undo.append(lambda ns=namespace, k=key, f=original: ns.__setitem__(k, f))
            yield self
        finally:
            for restore in reversed(undo):
                restore()

    def dump(self, path) -> None:
        """Write the spans as JSON: a name table and [name index, start, end,
        parent, run id] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh)


def layer_self_times(spans, run_id) -> dict:
    """Self seconds of each layer over the spans of one run."""
    child = [0.0] * len(spans)
    for name, start, end, parent, rid in spans:
        if rid == run_id and parent >= 0:
            child[parent] += end - start
    out = {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, parent, rid) in enumerate(spans):
        if rid == run_id:
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
    return out


def call_counts(spans, run_id) -> dict:
    counts = dict.fromkeys(SPAN_NAMES, 0)
    for name, _, _, _, rid in spans:
        if rid == run_id:
            counts[name] += 1
    return counts
