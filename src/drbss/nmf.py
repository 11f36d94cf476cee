"""Low-rank nonnegative variance model for the separated sources.

Each source's time-frequency variance is r[:, n] = bases[n].T @
activations[n].T, updated with multiplicative rules that never increase
the Itakura-Saito fit between the output power and the model. The factors
are the model's state: its variances are evaluated from them per block,
and the power and the inverse variances share the outputs' (F, N, T) layout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import VARIANCE_FLOOR, over_bins

# Lower bound applied to the nonnegative factors themselves, so a
# factor driven to zero cannot wedge later multiplicative updates.
FACTOR_FLOOR = 1e-12


@dataclass
class NmfVarianceModel:
    """Per-source factors: bases (N, K, F), activations (N, T, K)."""

    bases: np.ndarray
    activations: np.ndarray

    @property
    def n_sources(self) -> int:
        return self.bases.shape[0]


def init_model(
    n_sources: int, n_bases: int, n_bins: int, n_frames: int, seed: int
) -> NmfVarianceModel:
    """Unit bases, activations drawn uniformly from [0.1, 1)."""
    if min(n_sources, n_bases, n_bins, n_frames) < 1:
        raise ValueError("model dimensions must be positive")
    rng = np.random.default_rng(seed)
    bases = np.ones((n_sources, n_bases, n_bins))
    activations = rng.uniform(0.1, 1.0, size=(n_sources, n_frames, n_bases))
    return NmfVarianceModel(bases, activations)


def variance(model: NmfVarianceModel) -> np.ndarray:
    """Modelled variances, shape (F, N, T), floored away from zero.

    The array is f-fastest in memory, laid out (N, T, F) by einsum, so it is not
    C-contiguous. ``run`` never holds it: ``nmf_update`` and ``model_term``
    evaluate the model per block from the factors, in the same order and bits.
    """
    return _evaluate(model.bases, model.activations)


def _evaluate(bases: np.ndarray, activations: np.ndarray, out=None) -> np.ndarray:
    """The model at the frames of ``activations``, floored at ``VARIANCE_FLOOR``, written into ``out`` if given."""
    r = np.einsum("nkf,ntk->fnt", bases, activations, out=out)
    return np.maximum(r, VARIANCE_FLOOR, out=r)


def nmf_update(model: NmfVarianceModel, outputs: np.ndarray, buffer: np.ndarray) -> float:
    """One multiplicative sweep (bases, then activations) against the output power |y|^2.

    ``outputs`` and the real, C-ordered ``buffer`` are (F, N, T); the buffer's
    1/r is not read. The bases are updated per block of bins, each under its
    bins' variances evaluated from the factors, and the block's |y|^2 is written
    into the buffer. Then the activations per block of frames, under those
    frames' variances for the new bases. Returns the model term
    sum(|y|^2/r + log r) of the refreshed model, whose 1/r the buffer holds
    on return (see ``model_term``). Each half handles the range of bins or
    frames ``over_bins`` hands it, a block within ``BLOCK_BYTES`` on any
    thread, so its temporaries stay within a block at every shape.
    """
    return _sweep(model, outputs, buffer, True)


def model_term(model: NmfVarianceModel, outputs: np.ndarray, buffer: np.ndarray) -> float:
    """sum(|y|^2/r + log r) of the model as it stands, with its 1/r written into ``buffer``.

    The state ``run`` starts from, built per block of frames as ``nmf_update``
    ends: each frame's terms are summed in one fixed order, so the term is
    the same for any block split.
    """
    return _sweep(model, outputs, buffer, False)


def _sweep(model: NmfVarianceModel, outputs: np.ndarray, buffer: np.ndarray, update: bool) -> float:
    shape = (model.bases.shape[2], model.n_sources, model.activations.shape[1])
    if outputs.shape != shape or buffer.shape != shape:
        raise ValueError("output and buffer tensor shapes do not match the model")
    bases, activations = model.bases, model.activations
    frame_sums = np.empty(shape[2])
    working = 5 * buffer.nbytes  # a block touches the buffer and up to four temporaries of its size

    def bases_block(bins: range) -> None:
        f = slice(bins.start, bins.stop)
        power = np.abs(outputs[f], out=buffer[f])
        np.square(power, out=power)
        if update:
            v = _evaluate(bases[:, :, f], activations)
            num = v * v
            np.divide(power, num, out=num)  # in the variances' order: a faster einsum, same bits
            _scale(bases[:, :, f], activations, "ntk,fnt->nkf", num, v)

    def activations_block(frames: range) -> None:
        t = slice(frames.start, frames.stop)
        acts, power = activations[:, t], buffer[:, :, t]
        v = _evaluate(bases, acts)
        if update:
            _scale(acts, bases, "nkf,fnt->ntk", power / (v * v), v)
            _evaluate(bases, acts, out=v)
        _frame_terms(v, power, frame_sums[t])

    over_bins(bases_block, working, range(shape[0]))
    over_bins(activations_block, working, range(shape[2]))
    return float(np.sum(frame_sums))


def _frame_terms(variances: np.ndarray, power: np.ndarray, sums: np.ndarray) -> None:
    """Write each frame's sum of power/r + log r into ``sums``, then 1/r over ``power``.

    The terms take the power's C order: passes between it and the f-fastest
    ``variances`` run faster in that direction. They are summed over bins by
    folding the upper rows onto the lower ones until one row is left, then
    over sources in order, so a frame's sum takes the same steps however many
    frames share its block. ``variances`` is overwritten.
    """
    terms = np.divide(power, variances, out=np.empty(power.shape))
    np.divide(1.0, variances, out=power)
    terms += np.log(variances, out=variances)
    rows = len(terms)
    while rows > 1:
        half = rows // 2
        terms[:half] += terms[rows - half : rows]
        rows -= half
    sums[:] = terms[0, 0]
    for row in terms[0, 1:]:
        sums += row


def _scale(factor: np.ndarray, other: np.ndarray, subscripts: str, num: np.ndarray, variances: np.ndarray) -> None:
    """Multiply ``factor``, a block view, by its update ratio; ``num`` is power / variances²."""
    num = np.einsum(subscripts, other, num)
    den = np.einsum(subscripts, other, 1.0 / variances)
    factor *= np.sqrt(num / np.maximum(den, FACTOR_FLOOR))
    np.maximum(factor, FACTOR_FLOOR, out=factor)

