"""Frequency-parallel kernels: bin blocks on a thread pool, bit for bit."""

import multiprocessing
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from drbss import (
    AlgorithmVariant,
    ExtendedDemixer,
    SolveCounter,
    TapConfig,
    build_stacked,
    cost,
    init_model,
    linalg,
    model_term,
    nmf_update,
    run,
    wpe_dereverb,
    wpe_filter_update,
)
from drbss.ilrma_t import _joint_tap_update, ilrma_t_ip_iteration, ilrma_t_iss_seq_iteration
from tests.conftest import desk_spectrogram, normal_equation_instance, stack_rows

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402  (the benchmark's layer tracer)

TAPS = TapConfig(3, 2)


class CountingPool(ThreadPoolExecutor):
    """A pool that counts the blocks handed to it and names their kernels (``submit`` runs
    on the caller; ``over_bins`` submits ``Context.run`` with the kernel as its first argument)."""

    submitted = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.kernels = set()

    def submit(self, fn, *args, **kwargs):
        self.submitted += 1
        self.kernels.add(args[0].__name__)
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def pool(monkeypatch):
    pool = CountingPool(2)
    monkeypatch.setattr(linalg, "_pool", pool)
    yield pool
    pool.shutdown(wait=True)


def _run_all(spec):
    results = {}
    for variant in AlgorithmVariant:
        counter = SolveCounter()
        res = run(variant, spec, iterations=6, taps=TAPS, counter=counter)
        arrays = (res.outputs.data, res.trace.costs, res.trace.cumulative_solves)
        results[variant] = arrays if res.demixer is None else (*arrays, res.demixer.top)  # wpe has none
    return results


@pytest.mark.parametrize("n_sources", [2, 3])
def test_every_variant_is_bit_identical_for_any_worker_count_and_split(monkeypatch, pool, n_sources):
    spec = desk_spectrogram(4, n_sources=n_sources, n_samples=6000)
    monkeypatch.setattr(linalg, "WORKERS", 1)
    serial = _run_all(spec)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL over as often as possible
    try:
        # 2 workers in small blocks; 3 workers in 9 blocks of 14 or 15 bins; one bin per block
        for workers, block_bytes in ((2, 1 << 14), (3, spec.data.nbytes // 8), (2, 1)):
            monkeypatch.setattr(linalg, "WORKERS", workers)
            monkeypatch.setattr(linalg, "BLOCK_BYTES", block_bytes)
            before = pool.submitted
            blocked = _run_all(spec)
            assert pool.submitted > before
            for variant, arrays in serial.items():
                for want, got in zip(arrays, blocked[variant]):
                    assert np.array_equal(want, got), (variant, workers, block_bytes)
    finally:
        sys.setswitchinterval(interval)


def _variance_model_instance(n_sources, n_bins=67, n_frames=151):
    """Complex outputs and a demixer with a random separation block."""
    rng = np.random.default_rng(n_sources)
    outputs = rng.standard_normal((n_bins, n_sources, n_frames)) + 1j * rng.standard_normal((n_bins, n_sources, n_frames))
    dm = ExtendedDemixer.identity(n_bins, n_sources, TapConfig(0, 1))
    dm.top += 0.3 * rng.standard_normal(dm.top.shape)
    return outputs, dm


def _model_sweeps(outputs, dm):
    model = init_model(outputs.shape[1], 3, outputs.shape[0], outputs.shape[2], seed=1)
    inv = np.empty(outputs.shape)
    terms = [model_term(model, outputs, inv)]
    for _ in range(3):
        terms.append(nmf_update(model, outputs, inv))
    costs = [cost(dm, outputs.shape[2], term) for term in terms]
    return model.bases, model.activations, inv, terms, costs


@pytest.mark.parametrize(
    "n_sources, n_bins, n_frames",
    [pytest.param(2, 67, 151, id="2"), pytest.param(3, 67, 151, id="3"), pytest.param(2, 513, 628, id="pipeline")],
)
def test_variance_model_and_cost_are_bit_identical_for_any_worker_count_and_split(
    monkeypatch, pool, n_sources, n_bins, n_frames
):
    """The factors, the 1/r buffer, the model terms and the costs. Each frame's terms are summed
    in one fixed order, so the model term does not depend on how many frames share a block; at
    the ``pipeline`` shape (F=513, T=628) a per-block ``np.sum(axis=(0, 1))`` would depend on it."""
    outputs, dm = _variance_model_instance(n_sources, n_bins, n_frames)
    nbytes = outputs.nbytes // 2  # one real (F, N, T) array
    monkeypatch.setattr(linalg, "WORKERS", 1)
    serial = _model_sweeps(outputs, dm)  # in serial blocks on the caller
    # 2 workers in small blocks; 3 workers in 21 NMF blocks; one bin or frame per block; one thread,
    # whose blocks all run on the caller, one bin and one frame per block; and 8 workers, too many
    # for the 5 NMF blocks to wake the pool, so each NMF half runs 5 serial blocks on the caller
    for workers, block_bytes, pooled in (
        (2, 1 << 12, True),
        (3, nbytes // 4, True),
        (2, 1, True),
        (1, 1 << 12, False),
        (8, nbytes, False),
    ):
        monkeypatch.setattr(linalg, "WORKERS", workers)
        monkeypatch.setattr(linalg, "BLOCK_BYTES", block_bytes)
        before = pool.submitted
        blocked = _model_sweeps(outputs, dm)
        assert (pool.submitted > before) == pooled
        for want, got in zip(serial, blocked):
            assert np.array_equal(want, got), (workers, block_bytes)


def test_variance_model_and_cost_peak_below_one_variance_array(monkeypatch, pool):
    """In blocks, neither the NMF sweep nor the initial model term, which carry the cost's model term,
    allocates a whole (F, N, T) temporary."""
    monkeypatch.setattr(linalg, "WORKERS", 2)
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 1 << 14)
    outputs, _ = _variance_model_instance(3, n_bins=129, n_frames=316)
    model = init_model(3, 2, 129, 316, seed=0)
    inv = np.empty(outputs.shape)
    nmf_update(model, outputs, inv)  # the pool's thread is started before measuring
    for sweep in (nmf_update, model_term):
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            sweep(model, outputs, inv)
            extra = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert extra < inv.nbytes


def test_variance_model_stays_within_a_block_when_it_runs_inline(monkeypatch, pool):
    """At the benchmark's engine shape the NMF sweep fills 3 blocks, too few for ``over_bins``
    to wake the pool on 2 workers. It still runs each half in those blocks on the calling thread,
    so the sweep allocates less than one block beyond its inputs (a whole-range half allocates 3 MB)."""
    monkeypatch.setattr(linalg, "WORKERS", 2)
    outputs, _ = _variance_model_instance(3, n_bins=129, n_frames=316)
    model = init_model(3, 2, 129, 316, seed=0)
    inv = np.empty(outputs.shape)
    before = pool.submitted
    for sweep in (model_term, nmf_update):
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            sweep(model, outputs, inv)
            extra = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert extra < linalg.BLOCK_BYTES
    assert pool.submitted == before


def test_a_call_too_small_for_the_pool_still_runs_in_blocks_on_the_caller(monkeypatch, pool):
    """With two workers, a working set of 3 blocks makes 3 equal blocks, too few to wake the pool:
    the kernel gets 3 ranges in order on the calling thread. ``pooled=False`` keeps 8 there too."""
    monkeypatch.setattr(linalg, "WORKERS", 2)
    seen = []

    def kernel(block):
        seen.append((block, threading.current_thread().name))

    main = threading.current_thread().name
    linalg.over_bins(kernel, 3 * linalg.BLOCK_BYTES, range(12))
    assert seen == [(range(0, 4), main), (range(4, 8), main), (range(8, 12), main)]
    seen.clear()
    linalg.over_bins(kernel, 8 * linalg.BLOCK_BYTES, range(16), pooled=False)
    assert seen == [(range(lo, lo + 2), main) for lo in range(0, 16, 2)]
    assert pool.submitted == 0


@pytest.mark.parametrize("workers", [2, 8])
def test_gram_steps_hold_less_than_the_stacked_tensor(monkeypatch, pool, workers):
    """The IP step, the joint tap update and WPE gather their rows per bin block: each
    allocates less than one (F, D, T) stacked tensor beyond its inputs. At this shape
    2 workers share the IP covariances' and the joint normal equations' blocks with the
    pool, and 8 run their blocks on the calling thread."""
    monkeypatch.setattr(linalg, "WORKERS", workers)
    spec, sx, dm, variances, outputs = normal_equation_instance()
    tilde_bytes = stack_rows(sx).nbytes
    inv = 1.0 / variances
    ilrma_t_ip_iteration(dm, sx, inv, outputs.copy())  # starts the pool's thread
    steps = (
        lambda stacked: ilrma_t_ip_iteration(dm, stacked, inv, outputs),
        lambda stacked: _joint_tap_update(dm, stacked, inv, outputs),
        lambda stacked: wpe_dereverb(wpe_filter_update(variances[:, 0], stacked), stacked),
    )
    for step in steps:
        stacked = build_stacked(spec, TapConfig(5, 2))  # nothing is cached from an earlier step
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            step(stacked)
            extra = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert extra < tilde_bytes


def test_iss_step_holds_less_than_one_output_array(monkeypatch, pool):
    """The sequential ISS step (source sweep, then the scalar tap sweep) allocates less than one
    (F, N, T) outputs array beyond its inputs, with its bin blocks on two threads."""
    monkeypatch.setattr(linalg, "WORKERS", 2)
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 1 << 14)
    _, sx, dm, variances, outputs = normal_equation_instance()
    inv = np.divide(1.0, variances, order="C")
    ilrma_t_iss_seq_iteration(dm, sx, inv, outputs.copy())  # starts the pool's thread
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        ilrma_t_iss_seq_iteration(dm, sx, inv, outputs)
        extra = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert extra < outputs.nbytes


class ThreadTracer(spans.Tracer):
    """The benchmark's tracer, also noting the thread that enters each layer."""

    def __init__(self):
        super().__init__()
        self.threads = []

    def _enter(self, layer):
        self.threads.append((layer, threading.current_thread().name))
        return super()._enter(layer)


def test_traced_layers_stay_on_the_calling_thread(monkeypatch, pool):
    monkeypatch.setattr(linalg, "WORKERS", 2)
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 1 << 14)
    spec = desk_spectrogram(2, n_sources=2, n_samples=6000)
    tracer = ThreadTracer()
    with tracer.installed():
        for variant in (
            AlgorithmVariant.ILRMA_T_IP,
            AlgorithmVariant.ILRMA_T_ISS_JOINT,
            AlgorithmVariant.ILRMA_T_ISS_SEQ,
            AlgorithmVariant.WPE,
            AlgorithmVariant.WPE_ILRMA_IP,
        ):
            run(variant, spec, iterations=3, taps=TAPS)
    assert {
        "sweep",
        "pivots",
        "weighted_gram",  # the IP covariances and the joint's normal equations
        "bases_block",
        "activations_block",
    } <= pool.kernels
    layers = {layer for layer, _ in tracer.threads}
    assert {
        "separation.weighted_cov",
        "separation.iss_source_sweep",
        "ilrma_t.tap_sweep",
        "nmf.update",
        "ilrma_t.cost",
        "wpe.filter_update",
        "wpe.dereverb",
    } <= layers
    assert "nmf.variance" not in layers  # run evaluates the model per block from its factors
    main = threading.main_thread().name
    assert [entry for entry in tracer.threads if entry[1] != main] == []
    assert all(entry["self_ms"] >= 0 for entry in tracer.summary().values())

    sx = build_stacked(spec, TAPS)
    dm = ExtendedDemixer.identity(spec.n_bins, spec.n_channels, TAPS)
    submitted = pool.submitted
    coeffs = wpe_filter_update(np.ones((spec.n_bins, spec.n_frames)), sx)
    sx.apply(coeffs, spec.data.copy(), past=True)
    sx.apply(dm.top, np.empty_like(spec.data))
    assert pool.submitted == submitted  # WPE's Gram and the products slice on the calling thread
    _joint_tap_update(dm, sx, np.ones(spec.data.shape), spec.data.copy())
    assert pool.submitted > submitted  # the same kernel at the same sizes, pooled


@pytest.mark.parametrize("bad", range(6))
def test_a_block_exception_propagates_after_every_block_finishes(monkeypatch, bad):
    monkeypatch.setattr(linalg, "WORKERS", 3)
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 1)
    lock = threading.Lock()
    running, finished, threads = [0], [], set()

    def kernel(block):
        with lock:
            running[0] += 1
            threads.add(threading.current_thread().name)
        try:
            index = int(block[0])
            if index == bad:
                raise ValueError(f"block {bad}")
            time.sleep(0.05)
            block[:] = -1
            finished.append(index)
        finally:
            with lock:
                running[0] -= 1

    bins = np.arange(6)
    with pytest.raises(ValueError, match=f"block {bad}"):
        linalg.over_bins(kernel, 6, bins)
    assert running[0] == 0  # no block still runs (or writes) once the call has returned
    assert len(threads) > 1
    assert len(finished) == int(np.sum(bins == -1))


def test_pool_blocks_run_in_the_callers_error_state(monkeypatch, pool):
    """A caller's ``np.errstate`` holds for the blocks on the pool's thread too, so ``run``'s
    filter step reports an overflow once, on any split, instead of warning from the pool."""
    monkeypatch.setattr(linalg, "WORKERS", 2)
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 1)
    seen = []

    def kernel(block):
        seen.append((threading.current_thread().name, np.geterr()["over"]))

    with np.errstate(over="ignore"):
        linalg.over_bins(kernel, 4, np.arange(4))
    assert pool.submitted == 2 and len({thread for thread, _ in seen}) == 2
    assert [state for _, state in seen] == ["ignore"] * 4
    assert np.geterr()["over"] == "warn"


def _add_one(block):
    block += 1


def _blocked_sum(_):
    bins = np.zeros(8)
    linalg.over_bins(_add_one, 8, bins)
    return float(bins.sum())


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_a_forked_child_gets_its_own_pool(monkeypatch):
    monkeypatch.setattr(linalg, "WORKERS", 2)
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 1)
    assert _blocked_sum(None) == 8.0  # the pool's thread runs before the fork
    with multiprocessing.get_context("fork").Pool(1) as child:
        assert child.map_async(_blocked_sum, [None]).get(timeout=60) == [8.0]
