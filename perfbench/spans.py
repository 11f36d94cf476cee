"""Outside-in tracing of drbss's layers from the benchmark's own files.

``Tracer.installed()`` wraps each layer function where its callers look
it up: every module-level name in the ``drbss`` package bound to the
function (``checked_solve`` is imported by name into four modules and
the CLI reaches the STFT, metrics, simulator and WAV helpers through its
own namespace), the values of ``ilrma_t._ITERATIONS``, and the
``ExtendedDemixer.assert_structure`` method. Every wrapper is removed on
exit. Spans stay in memory; ``summary()`` turns them into self times.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from drbss import cli, ilrma_t, linalg, metrics, nmf, separation, sim, stacking, stft, wpe

MB = 1e6
C = 16  # bytes per complex128 element
R = 8  # bytes per float64 element

# Computed bytes moved per call, from array shapes: every numpy
# expression in the kernel reads each operand and writes its result
# once; cache reuse is ignored. F bins, N sources, T frames, L = D - N
# delayed rows of the stacked tensor.


def _tap_sweep_mb(dm, sx, variances, outputs, *_, **__):
    f, n, t = outputs.shape
    # inv = 1/r; then per delayed row: outputs*inv, both gain einsums
    # (with the conjugated and squared row), and outputs -= gains*row.
    per_row = (7 * C + 2 * R) * f * n * t + (5 * C + 4 * R) * f * t
    return (2 * R * f * n * t + (sx.dim - n) * per_row) / MB


def _tap_joint_mb(dm, sx, variances, outputs, *_, **__):
    f, n, t = outputs.shape
    lags = sx.dim - n
    # The (F, N, L, T) weighted rows and their batched normal matrices,
    # two conjugated copies of the delayed rows, the correlations and
    # output update, and loading plus solve on the (F, N, L, L) systems.
    return (
        (4 * C + R) * f * n * lags * t
        + 6 * C * f * lags * t
        + (7 * C + 3 * R) * f * n * t
        + 5 * C * f * n * lags * lags
    ) / MB


def _steering_sweep_mb(matrix, outputs, variances, *_, **__):
    f, n, t = outputs.shape
    # Per pivot source: inv = 1/r, outputs*inv, both gain einsums, the
    # pivot copy, and outputs -= gains*pivot.
    return n * (7 * C + 4 * R) * (f * n * t + f * t) / MB


def _stacked_tensor_mb(spec, taps, *_, **__):
    # Size of the (F, M*(taps+1), T) stacked tensor; every pass over it
    # moves this much.
    f, t, m = spec.data.shape
    return C * f * m * (taps.taps + 1) * t / MB


# (layer, module, attribute, computed-bytes function or None)
LAYERS = (
    ("sim.make_sources", sim, "make_sources", None),
    ("sim.mix", sim, "mix", None),
    ("stft.analyze", stft, "analyze", None),
    ("stft.synthesize", stft, "synthesize", None),
    ("stacking.build_stacked", stacking, "build_stacked", _stacked_tensor_mb),
    ("separation.weighted_cov", separation, "weighted_cov", None),
    ("separation.ip_update_row", separation, "ip_update_row", None),
    ("separation.iss_source_sweep", separation, "iss_source_sweep", _steering_sweep_mb),
    ("linalg.solve", linalg, "checked_solve", None),
    ("linalg.add_loading", linalg, "add_loading", None),
    ("nmf.update", nmf, "nmf_update", None),
    ("nmf.variance", nmf, "variance", None),
    ("ilrma_t.run_self", ilrma_t, "run", None),
    ("ilrma_t.step", ilrma_t, "ilrma_t_ip_iteration", None),
    ("ilrma_t.step", ilrma_t, "ilrma_t_iss_seq_iteration", None),
    ("ilrma_t.step", ilrma_t, "ilrma_t_iss_joint_iteration", None),
    ("ilrma_t.tap_sweep", ilrma_t, "_steering_sweep_over_taps", _tap_sweep_mb),
    ("ilrma_t.tap_joint", ilrma_t, "_joint_tap_update", _tap_joint_mb),
    ("ilrma_t.cost", ilrma_t, "cost", None),
    ("ilrma_t.projection_back", ilrma_t, "projection_back", None),
    ("wpe.run", ilrma_t, "_run_wpe", None),
    ("wpe.run", wpe, "wpe_run", None),
    ("wpe.filter_update", wpe, "wpe_filter_update", None),
    ("wpe.dereverb", wpe, "wpe_dereverb", None),
    ("metrics.evaluate", metrics, "evaluate", None),
    ("cli.main", cli, "main", None),
    ("cli.simulate", cli, "cmd_simulate", None),
    ("cli.separate", cli, "cmd_separate", None),
    ("cli.eval", cli, "cmd_eval", None),
    ("cli.read_wav", cli, "read_wav", None),
    ("cli.write_wav", cli, "write_wav", None),
)
METHODS = (("stacking.assert_structure", stacking.ExtendedDemixer, "assert_structure"),)

LAYER_NAMES = tuple(dict.fromkeys(entry[0] for entry in LAYERS + METHODS))
COMPUTED_BYTES = {
    "ilrma_t.tap_sweep": "ilrma_t.tap_sweep_mb_computed",
    "ilrma_t.tap_joint": "ilrma_t.tap_joint_mb_computed",
    "separation.iss_source_sweep": "separation.iss_source_sweep_mb_computed",
    "stacking.build_stacked": "stacking.tilde_mb_computed",
}
JOB = "job"


class Tracer:
    """Records one span per call into a wrapped layer.

    A span is ``[layer, start, end, parent index, computed MB]``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _enter(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent, 0.0])
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def job(self):
        """Root span around one benchmark job."""
        index = self._enter(JOB)
        try:
            yield
        finally:
            self._exit(index)

    def _wrap(self, layer: str, fn, mb):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index)
                if mb is not None:
                    self.spans[index][4] = mb(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block."""
        namespaces = [vars(m) for name, m in list(sys.modules.items()) if name.split(".")[0] == "drbss"]
        namespaces.append(ilrma_t._ITERATIONS)
        restore = []
        try:
            for layer, module, attr, mb in LAYERS:
                original = getattr(module, attr)
                wrapper = self._wrap(layer, original, mb)
                for ns in namespaces:
                    for key in [k for k, v in ns.items() if v is original]:
                        restore.append((ns, key, original))
                        ns[key] = wrapper
            for layer, cls, attr in METHODS:
                original = vars(cls)[attr]
                restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(layer, original, None))
            yield self
        finally:
            for target, key, original in reversed(restore):
                if isinstance(target, type):
                    setattr(target, key, original)
                else:
                    target[key] = original

    def summary(self) -> dict:
        """Per-layer self time (ms), calls and computed MB, over all jobs.

        Self time is a span's duration minus its children's durations;
        calls are properly nested, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"self_ms": 0.0, "calls": 0, "mb": 0.0})
        for (layer, start, end, _, mb), children in zip(self.spans, child_time):
            entry = out[layer]
            entry["self_ms"] += (end - start - children) * 1e3
            entry["calls"] += 1
            entry["mb"] += mb
        return dict(out)
