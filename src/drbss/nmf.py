"""Low-rank nonnegative variance model for the separated sources.

Each source's time-frequency variance is r[:, n] = bases[n].T @
activations[n].T, updated with multiplicative rules that never increase
the Itakura-Saito fit between the output power and the model. Power and
variances share the outputs' (F, N, T) layout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
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
    C-contiguous. ``nmf_update`` refreshes it in that order; a C-contiguous copy
    changes the rounding of the kernels that read it.
    """
    return _evaluate(model.bases, model.activations)


def _evaluate(bases: np.ndarray, activations: np.ndarray, out=None) -> np.ndarray:
    """The model at the frames of ``activations``, floored at ``VARIANCE_FLOOR``, written into ``out`` if given."""
    r = np.einsum("nkf,ntk->fnt", bases, activations, out=out)
    return np.maximum(r, VARIANCE_FLOOR, out=out)


def nmf_update(model: NmfVarianceModel, power: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """One multiplicative sweep (bases, then activations) against ``power``.

    ``power`` is the output power |y|^2 and ``variances`` the model's
    current ``variance(model)``, both (F, N, T). The bases are updated per
    block of bins, then the activations per block of frames under those
    frames' variances for the new bases. The refreshed variances overwrite
    ``variances``, in its memory order, which is returned. Each half walks
    its block in serial sub-ranges, as many over the whole range as
    ``over_bins`` would make blocks, also when ``over_bins`` hands it the
    whole range inline; so its temporaries stay within a block at every
    shape.
    """
    shape = (model.bases.shape[2], model.n_sources, model.activations.shape[1])
    if power.shape != shape or variances.shape != shape:
        raise ValueError("power and variance tensor shapes do not match the model")
    if np.any(power < 0):
        raise ValueError("power tensor must be nonnegative")
    bases, activations = model.bases, model.activations
    # a block touches power, the variances and up to three temporaries of their size; a pool block
    # is no wider than a sub-range, so only an inline half loops
    working = 5 * power.nbytes
    parts = -(-working // linalg.BLOCK_BYTES)
    bin_width, frame_width = -(-shape[0] // parts), -(-shape[2] // parts)

    def bases_block(bins: range) -> None:
        for lo in range(bins.start, bins.stop, bin_width):
            f = slice(lo, min(lo + bin_width, bins.stop))
            v = variances[f]
            num = v * v
            np.divide(power[f], num, out=num)  # in the variances' order: a faster einsum, same bits
            _scale(bases[:, :, f], activations, "ntk,fnt->nkf", num, v)

    def activations_block(frames: range) -> None:
        for lo in range(frames.start, frames.stop, frame_width):
            t = slice(lo, min(lo + frame_width, frames.stop))
            acts = activations[:, t]
            v = _evaluate(bases, acts)
            _scale(acts, bases, "nkf,fnt->ntk", power[:, :, t] / (v * v), v)
            _evaluate(bases, acts, out=variances[:, :, t])

    over_bins(bases_block, working, range(shape[0]))
    over_bins(activations_block, working, range(shape[2]))
    return variances


def _scale(factor: np.ndarray, other: np.ndarray, subscripts: str, num: np.ndarray, variances: np.ndarray) -> None:
    """Multiply ``factor``, a block view, by its update ratio; ``num`` is power / variances²."""
    num = np.einsum(subscripts, other, num)
    den = np.einsum(subscripts, other, 1.0 / variances)
    factor *= np.sqrt(num / np.maximum(den, FACTOR_FLOOR))
    np.maximum(factor, FACTOR_FLOOR, out=factor)


def model_cost_in_place(power: np.ndarray, variances: np.ndarray) -> float:
    """Sum of power/r + log r, the variance-model part of the objective.

    ``power`` and ``variances`` share their shape, (F, N, T) or WPE's (F, T)
    track. The sum is formed in ``power``, which holds power/r + log r on return.
    """
    over_bins(_model_term, 3 * power.nbytes, power, variances)
    return float(np.sum(power))


def _model_term(power: np.ndarray, variances: np.ndarray) -> None:
    np.divide(power, variances, out=power)
    power += np.log(variances)
