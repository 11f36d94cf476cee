"""Batch command line: simulate, separate, eval, bench.

All commands are file-in/file-out and deterministic for a fixed seed
and config (wall-clock columns excepted). Exit codes: 0 success, 2
configuration or usage error, 3 numerical failure, 4 I/O failure.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .ilrma_t import VARIANTS, AlgorithmVariant, RunResult, projection_back, run
from .linalg import NumericalError, SolveCounter
from .metrics import evaluate, mean_delta_si_sdr
from .sim import SyntheticRoomConfig, make_sources, mix
from .stacking import TapConfig
from .stft import Spectrogram, StftConfig, analyze, synthesize


class ConfigError(ValueError):
    """Bad config file, flag combination, or input layout."""


@dataclass
class RunConfig:
    """Flat, JSON-serializable settings for ``separate``."""

    variant: str = "ilrma-t-iss-seq"
    iterations: int = 100
    taps: int = 5
    delay: int = 2
    n_bases: int = 2
    frame_len: int = 1024
    hop: int = 256
    seed: int = 0
    wpe_init_iters: int = 3

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not type(f.default):
                raise ConfigError(f"{f.name} must be {type(f.default).__name__}, got {value!r}")
        AlgorithmVariant.from_name(self.variant)
        if self.iterations < 0:
            raise ConfigError("iterations must be non-negative")
        if self.n_bases < 1:
            raise ConfigError("n_bases must be positive")
        if self.wpe_init_iters < 0:
            raise ConfigError("wpe_init_iters must be non-negative")
        try:
            StftConfig(self.frame_len, self.hop)
            TapConfig(self.taps, self.delay)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def stft(self, sample_rate: int) -> StftConfig:
        return StftConfig(self.frame_len, self.hop, sample_rate)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(_load_json_dict(path))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")


def _load_json_dict(path: str | Path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return data


def write_wav(path: str | Path, sample_rate: int, data: np.ndarray) -> None:
    """Write a 32-bit float WAV; rows of a 2-D input are channels."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr.T
    wavfile.write(str(path), int(sample_rate), arr.astype(np.float32))


def read_wav(path: str | Path) -> tuple[int, np.ndarray]:
    """Read a WAV as float64, channels-first: (sample_rate, (M, S))."""
    rate, data = wavfile.read(str(path))
    if data.dtype == np.int16:
        data = data / 32768.0
    elif data.dtype == np.int32:
        data = data / 2147483648.0
    elif data.dtype == np.uint8:
        data = (data.astype(np.float64) - 128.0) / 128.0
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    else:
        arr = arr.T
    return int(rate), arr


# ---------------------------------------------------------------- simulate


def room_config_from_dict(data: dict) -> tuple[SyntheticRoomConfig, float]:
    """Strict room config; returns (config, builtin source duration)."""
    allowed = {f.name for f in fields(SyntheticRoomConfig)} | {"duration"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    data = dict(data)
    try:
        duration = float(data.pop("duration", 4.0))
        if duration <= 0:
            raise ConfigError("duration must be positive")
        for key in ("direct_delays", "direct_gains"):
            if data.get(key) is not None:
                data[key] = tuple(tuple(row) for row in data[key])
        if "snr" in data and isinstance(data["snr"], str):
            data["snr"] = float(data["snr"])
        return SyntheticRoomConfig(**data), duration
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def cmd_simulate(
    cfg: SyntheticRoomConfig,
    out_dir: str | Path,
    duration: float = 4.0,
    wav_paths: list[str] | None = None,
) -> Path:
    """Write mixture.wav, reference WAVs, and meta.json under ``out_dir``."""
    if wav_paths:
        if len(wav_paths) != cfg.n_sources:
            raise ConfigError(f"expected {cfg.n_sources} source WAVs, got {len(wav_paths)}")
        rates, signals = [], []
        for p in wav_paths:
            rate, sig = read_wav(p)
            if sig.shape[0] != 1:
                raise ConfigError(f"{p}: source WAVs must be mono")
            rates.append(rate)
            signals.append(sig[0])
        if len(set(rates)) != 1:
            raise ConfigError("source WAVs have mixed sample rates; resampling is out of scope")
        if rates[0] != cfg.sample_rate:
            cfg = replace(cfg, sample_rate=rates[0])
        n_samples = min(s.size for s in signals)
        sources = np.stack([s[:n_samples] for s in signals])
    else:
        n_samples = int(round(duration * cfg.sample_rate))
        sources = make_sources(cfg.n_sources, n_samples, cfg.sample_rate, cfg.seed)

    result = mix(sources, cfg)
    out = Path(out_dir)
    (out / "refs" / "direct").mkdir(parents=True, exist_ok=True)
    (out / "refs" / "anechoic").mkdir(parents=True, exist_ok=True)
    write_wav(out / "mixture.wav", cfg.sample_rate, result.mixture)
    for i in range(cfg.n_sources):
        write_wav(out / "refs" / "direct" / f"src{i:02d}.wav", cfg.sample_rate, result.direct_images[i, 0])
        write_wav(out / "refs" / "anechoic" / f"src{i:02d}.wav", cfg.sample_rate, result.sources[i])
    meta = {
        "n_sources": cfg.n_sources,
        "sample_rate": cfg.sample_rate,
        "rt60": cfg.rt60,
        "snr": cfg.snr if np.isfinite(cfg.snr) else "inf",
        "noise_variance": 0.0 if np.isinf(cfg.snr) else cfg.n_sources / cfg.snr,
        "seed": cfg.seed,
        "tail_gain": cfg.tail_gain,
        "max_direct_delay": cfg.max_direct_delay,
        "n_samples": int(sources.shape[1]),
        "rir_sha256": [
            [hashlib.sha256(h.tobytes()).hexdigest() for h in row]
            for row in result.impulse_responses
        ],
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return out


# ---------------------------------------------------------------- separate


def _separate(
    config: RunConfig, x: np.ndarray, sample_rate: int, **options
) -> tuple[Spectrogram, RunResult]:
    """Analyze a (M, S) signal and run ``config`` on it; ``options`` go to ``run``."""
    spec = analyze(x, config.stft(sample_rate))
    result = run(
        AlgorithmVariant.from_name(config.variant),
        spec,
        iterations=config.iterations,
        taps=TapConfig(config.taps, config.delay),
        n_bases=config.n_bases,
        seed=config.seed,
        wpe_iterations=config.wpe_init_iters,
        **options,
    )
    return spec, result


def cmd_separate(mixture_path: str | Path, config: RunConfig, out_dir: str | Path) -> Path:
    """Separate a mixture WAV; write estimates, trace.csv, report.json."""
    sample_rate, x = read_wav(mixture_path)
    counter = SolveCounter()
    spec, result = _separate(config, x, sample_rate, counter=counter)
    estimates = synthesize(result.outputs)
    out = Path(out_dir)
    (out / "estimates").mkdir(parents=True, exist_ok=True)
    for i in range(estimates.shape[0]):
        write_wav(out / "estimates" / f"src{i:02d}.wav", sample_rate, estimates[i])
    _write_trace(out / "trace.csv", result)
    _write_report(out / "report.json", config, spec, counter, result)
    return out


def _write_trace(path: Path, result: RunResult) -> None:
    trace = result.trace
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "cost", "cumulative_solves", "wall_ms"])
        for i, (value, solves) in enumerate(zip(trace.costs, trace.cumulative_solves)):
            wall = trace.wall_ms[i - 1] if i > 0 else 0.0
            writer.writerow([i, repr(float(value)), solves, f"{wall:.3f}"])


def _write_report(
    path: Path,
    config: RunConfig,
    spec: Spectrogram,
    counter: SolveCounter,
    result: RunResult,
) -> None:
    trace = result.trace
    iters = trace.iterations
    expected = VARIANTS[AlgorithmVariant.from_name(config.variant)].solve_law(spec.n_channels)
    measured = (
        (trace.cumulative_solves[-1] - trace.cumulative_solves[0]) / (iters * spec.n_bins)
        if iters > 0
        else 0.0
    )
    report = {
        "config": config.to_dict(),
        "n_bins": spec.n_bins,
        "n_frames": spec.n_frames,
        "n_channels": spec.n_channels,
        "final_cost": trace.costs[-1],
        "iteration_solves": counter.iteration_solves,
        "projection_solves": counter.projection_solves,
        "solve_law": {
            "expected_per_bin_iteration": expected,
            "measured_per_bin_iteration": measured,
            "consistent": bool(iters == 0 or measured == expected),
        },
    }
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- eval


def _load_source_dir(directory: Path) -> tuple[int, np.ndarray]:
    paths = sorted(directory.glob("*.wav"))
    if not paths:
        raise ConfigError(f"no WAV files in {directory}")
    rates, rows = [], []
    for p in paths:
        rate, sig = read_wav(p)
        if sig.shape[0] != 1:
            raise ConfigError(f"{p}: expected mono WAV")
        rates.append(rate)
        rows.append(sig[0])
    if len(set(rates)) != 1:
        raise ConfigError(f"{directory}: mixed sample rates")
    lengths = {r.size for r in rows}
    if len(lengths) != 1:
        raise ConfigError(f"{directory}: mixed signal lengths")
    return rates[0], np.stack(rows)


def cmd_eval(
    refs_dir: str | Path,
    estimates_dir: str | Path,
    mode: str = "direct-path",
    out_dir: str | Path = ".",
    mixture_path: str | Path | None = None,
) -> dict:
    """Score estimates; write metrics.json and metrics.csv to ``out_dir``."""
    if mode not in ("direct-path", "anechoic"):
        raise ConfigError("mode must be 'direct-path' or 'anechoic'")
    root = Path(refs_dir)
    sub = "direct" if mode == "direct-path" else "anechoic"
    if (root / "refs" / sub).is_dir():
        ref_sub = root / "refs" / sub
        default_mix = root / "mixture.wav"
    elif (root / sub).is_dir():
        ref_sub = root / sub
        default_mix = root.parent / "mixture.wav"
    else:
        ref_sub = root
        default_mix = root.parent / "mixture.wav"
    mix_path = Path(mixture_path) if mixture_path is not None else default_mix
    if not mix_path.is_file():
        raise ConfigError(f"mixture WAV not found at {mix_path}; pass --mixture")

    rate_r, refs = _load_source_dir(ref_sub)
    rate_e, ests = _load_source_dir(Path(estimates_dir))
    rate_m, mixture = read_wav(mix_path)
    if len({rate_r, rate_e, rate_m}) != 1:
        raise ConfigError("references, estimates, and mixture have different sample rates")
    if refs.shape[0] != ests.shape[0]:
        raise ConfigError(f"{refs.shape[0]} references but {ests.shape[0]} estimates")
    report = evaluate(refs, ests, mixture, rate_r)

    scores = {k: v for k, v in asdict(report).items() if k != "permutation"}
    means = {k: float(np.mean(v)) for k, v in scores.items()}
    payload = {"mode": mode, "permutation": list(report.permutation), **scores, "mean": means}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    with open(out / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", *scores])
        for i in range(refs.shape[0]):
            writer.writerow([i, *(v[i] for v in scores.values())])
        writer.writerow(["mean", *means.values()])
    return payload


# ---------------------------------------------------------------- bench

# Grid axes and bench's own defaults; every other run and room setting
# defaults as in ``RunConfig`` and ``SyntheticRoomConfig``.
_MATRIX_DEFAULTS = {
    "variants": None,  # required
    "n_sources": [2],
    "seeds": [0],
    "iterations": 30,
    "metric_every": 10,
    "duration": 3.0,
    "sample_rate": 8000,
    "frame_len": 256,
    "hop": 64,
}
# Settings shared by every cell: ``RunConfig`` fields, and the room keys
# of ``room_config_from_dict``.
_RUN_KEYS = {f.name for f in fields(RunConfig)} - {"variant", "seed"}
_ROOM_KEYS = {"sample_rate", "rt60", "snr", "tail_gain", "duration"}


def _load_matrix(path: str | Path) -> dict:
    """The matrix, with one validated ``RunConfig`` per variant and the room."""
    data = _load_json_dict(path)
    unknown = sorted(set(data) - set(_MATRIX_DEFAULTS) - _RUN_KEYS - _ROOM_KEYS)
    if unknown:
        raise ConfigError(f"unknown matrix keys: {', '.join(unknown)}")
    matrix = _MATRIX_DEFAULTS | data
    if not matrix["variants"]:
        raise ConfigError("matrix must list at least one variant")
    if type(matrix["metric_every"]) is not int or matrix["metric_every"] < 1:
        raise ConfigError("metric_every must be a positive integer")
    run_keys = {k: v for k, v in matrix.items() if k in _RUN_KEYS}
    matrix["configs"] = [RunConfig.from_dict(run_keys | {"variant": name}) for name in matrix["variants"]]
    # n_sources is a grid axis: an unsupported count fails its own cells only
    room = {k: v for k, v in matrix.items() if k in _ROOM_KEYS}
    matrix["room"], matrix["duration"] = room_config_from_dict(room | {"n_sources": 1})
    return matrix


def _bench_cell(job: tuple[RunConfig, SyntheticRoomConfig, float, int, int]) -> list[dict]:
    config, room, duration, metric_every, n_sources = job
    base = {"variant": config.variant, "n_sources": n_sources, "seed": config.seed}
    try:
        room = replace(room, n_sources=n_sources, seed=config.seed)
        fs = room.sample_rate
        sources = make_sources(n_sources, int(round(duration * fs)), fs, config.seed)
        result = mix(sources, room)
        refs = result.direct_images[:, 0, :]

        deltas: dict[int, float] = {}

        def checkpoint(iteration: int, outputs: np.ndarray, dm) -> None:
            if iteration > 0 and config.variant != AlgorithmVariant.WPE.value:
                outputs, _ = projection_back(dm, outputs)
            est = synthesize(Spectrogram(outputs, config.stft(fs), sources.shape[1]))
            deltas[iteration] = mean_delta_si_sdr(refs, est, result.mixture)

        _, run_result = _separate(
            config, result.mixture, fs, callback=checkpoint, callback_every=metric_every
        )
        final_est = synthesize(run_result.outputs)
        deltas[config.iterations] = mean_delta_si_sdr(refs, final_est, result.mixture)
        rows = []
        for iteration in sorted(deltas):
            rows.append(
                base
                | {
                    "iteration": iteration,
                    "cost": run_result.trace.costs[iteration],
                    "delta_si_sdr": deltas[iteration],
                    "status": "ok",
                }
            )
        return rows
    except Exception as exc:  # failed cells are recorded, the sweep continues
        return [base | {"iteration": "", "cost": "", "delta_si_sdr": "", "status": f"error:{type(exc).__name__}: {exc}"}]


def cmd_bench(matrix_path: str | Path, out_dir: str | Path, workers: int = 1) -> Path:
    """Run a variant/sources/seed grid; write curves.csv and summary.csv."""
    matrix = _load_matrix(matrix_path)
    jobs = [
        (replace(config, seed=seed), matrix["room"], matrix["duration"], matrix["metric_every"], n)
        for config in matrix["configs"]
        for n in matrix["n_sources"]
        for seed in matrix["seeds"]
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cell_rows = list(pool.map(_bench_cell, jobs))
    else:
        cell_rows = [_bench_cell(job) for job in jobs]

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns = ["variant", "n_sources", "seed", "iteration", "cost", "delta_si_sdr", "status"]
    with open(out / "curves.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for rows in cell_rows:
            for row in rows:
                writer.writerow(row)

    summary: dict[tuple[str, int], dict] = {}
    for rows in cell_rows:
        key = (rows[0]["variant"], rows[0]["n_sources"])
        entry = summary.setdefault(key, {"cells": 0, "failed": 0, "cost": [], "delta": []})
        entry["cells"] += 1
        if rows[-1]["status"] != "ok":
            entry["failed"] += 1
        else:
            entry["cost"].append(rows[-1]["cost"])
            entry["delta"].append(rows[-1]["delta_si_sdr"])
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["variant", "n_sources", "cells", "failed", "mean_final_cost", "mean_final_delta_si_sdr"]
        )
        for (variant, n), entry in summary.items():
            mean_cost = float(np.mean(entry["cost"])) if entry["cost"] else ""
            mean_delta = float(np.mean(entry["delta"])) if entry["delta"] else ""
            writer.writerow([variant, n, entry["cells"], entry["failed"], mean_cost, mean_delta])
    return out


# ---------------------------------------------------------------- argparse


# ``simulate`` flags, each overriding the room-config key of its name:
# (key, type, help).
_ROOM_FLAGS = (
    ("n_sources", int, None),
    ("sample_rate", int, None),
    ("rt60", float, None),
    ("snr", float, "linear signal-to-noise power ratio"),
    ("seed", int, None),
    ("duration", float, "builtin source length in seconds"),
    ("tail_gain", float, None),
    ("max_direct_delay", int, None),
)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _overrides(args: argparse.Namespace, names: list[str]) -> dict:
    """The config keys among ``names`` whose flag was given."""
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drbss",
        description="Joint dereverberation and blind source separation, batch style.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="synthesize a reverberant mixture with references")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--config", help="JSON file with room settings")
    for name, kind, text in _ROOM_FLAGS:
        sim.add_argument(_flag(name), type=kind, help=text)
    sim.add_argument("--wav", action="append", help="mono source WAV (repeat per source)")

    sep = sub.add_parser("separate", help="separate a mixture WAV")
    sep.add_argument("mixture", help="multichannel mixture WAV")
    sep.add_argument("--out", required=True, help="output directory")
    sep.add_argument("--config", help="JSON run config")
    for f in fields(RunConfig):
        sep.add_argument(_flag(f.name), type=type(f.default))

    ev = sub.add_parser("eval", help="score estimates against references")
    ev.add_argument("--refs", required=True, help="simulate output dir (or a dir of reference WAVs)")
    ev.add_argument("--estimates", required=True, help="directory of estimate WAVs")
    ev.add_argument("--mode", choices=["direct-path", "anechoic"], default="direct-path")
    ev.add_argument("--mixture", help="mixture WAV for the unprocessed baseline")
    ev.add_argument("--out", required=True, help="output directory")

    be = sub.add_parser("bench", help="run a variants x sources x seeds grid")
    be.add_argument("matrix", help="JSON benchmark matrix")
    be.add_argument("--out", required=True, help="output directory")
    be.add_argument("--workers", type=int, default=1, help="parallel cells (default: 1)")

    return parser


def _run_config_from_args(args: argparse.Namespace) -> RunConfig:
    data = RunConfig.load(args.config).to_dict() if args.config else RunConfig().to_dict()
    data.update(_overrides(args, [f.name for f in fields(RunConfig)]))
    return RunConfig.from_dict(data)


def _room_config_from_args(args: argparse.Namespace) -> tuple[SyntheticRoomConfig, float]:
    data = _load_json_dict(args.config) if args.config else {}
    data.update(_overrides(args, [name for name, _, _ in _ROOM_FLAGS]))
    if args.wav and "n_sources" not in data:
        data["n_sources"] = len(args.wav)
    if "n_sources" not in data:
        data["n_sources"] = 2
    return room_config_from_dict(data)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            cfg, duration = _room_config_from_args(args)
            cmd_simulate(cfg, args.out, duration, args.wav)
        elif args.command == "separate":
            cmd_separate(args.mixture, _run_config_from_args(args), args.out)
        elif args.command == "eval":
            cmd_eval(args.refs, args.estimates, args.mode, args.out, args.mixture)
        elif args.command == "bench":
            cmd_bench(args.matrix, args.out, args.workers)
    except NumericalError as exc:
        print(f"drbss: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"drbss: i/o failure: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ValueError) as exc:
        print(f"drbss: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
