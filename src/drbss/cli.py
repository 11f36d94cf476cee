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
import struct
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .ilrma_t import VARIANTS, AlgorithmVariant, RunResult, projection_back, run
from .linalg import NumericalError
from .metrics import evaluate, mean_delta_si_sdr, mixture_baseline
from .sim import SyntheticRoomConfig, make_sources, mix
from .stacking import TapConfig
from .stft import Spectrogram, StftConfig, analyze, synthesize


def _reject_unknown(data: dict, allowed: set[str], what: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")


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
                raise ValueError(f"{f.name} must be {type(f.default).__name__}, got {value!r}")
        AlgorithmVariant.from_name(self.variant)
        for name in ("iterations", "seed", "wpe_init_iters"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.n_bases < 1:
            raise ValueError("n_bases must be positive")
        StftConfig(self.frame_len, self.hop)
        TapConfig(self.taps, self.delay)

    def stft(self, sample_rate: int) -> StftConfig:
        return StftConfig(self.frame_len, self.hop, sample_rate)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        _reject_unknown(data, {f.name for f in fields(cls)}, "config")
        return cls(**data)


def _load_json_dict(path: str | Path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


_PCM, _IEEE_FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
# The last 12 bytes of the sub-format GUID of a WAVE_FORMAT_EXTENSIBLE
# file whose first 4 bytes hold a plain format tag (RFC 2361).
_SUBFORMAT_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bits per sample) -> (sample dtype, offset, full scale);
# 24-bit samples are read into the top three bytes of a 32-bit integer.
_SAMPLE_FORMATS = {
    (_PCM, 8): ("u1", 128.0, 128.0),
    (_PCM, 16): ("<i2", 0.0, 32768.0),
    (_PCM, 24): ("<i4", 0.0, 2147483648.0),
    (_PCM, 32): ("<i4", 0.0, 2147483648.0),
    (_IEEE_FLOAT, 32): ("<f4", 0.0, 1.0),
    (_IEEE_FLOAT, 64): ("<f8", 0.0, 1.0),
}


def write_wav(path: str | Path, sample_rate: int, data: np.ndarray) -> None:
    """Write a 32-bit float WAV; rows of a 2-D input are channels.

    The bytes are those ``scipy.io.wavfile.write`` gives: an 18-byte IEEE
    float ``fmt `` chunk and a ``fact`` chunk in a 58-byte header, then
    the interleaved little-endian samples.
    """
    arr = np.asarray(data, dtype=np.float64)
    frames = np.ascontiguousarray(arr.T if arr.ndim == 2 else arr, dtype="<f4")
    channels = frames.shape[1] if frames.ndim == 2 else 1
    rate, size = int(sample_rate), frames.nbytes
    if size > 0xFFFFFFFF - 50 or 4 * channels * rate > 0xFFFFFFFF:
        raise ValueError(f"{path}: a WAV header cannot hold {size} bytes of {channels}-channel samples at {rate} Hz")
    header = b"".join([
        b"RIFF", struct.pack("<I", 50 + size), b"WAVE",
        b"fmt ", struct.pack("<IHHIIHHH", 18, _IEEE_FLOAT, channels, rate, 4 * channels * rate, 4 * channels, 32, 0),
        b"fact", struct.pack("<II", 4, frames.shape[0]),
        b"data", struct.pack("<I", size),
    ])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(frames.data)


def read_wav(path: str | Path) -> tuple[int, np.ndarray]:
    """Read a WAV as float64, channels-first: (sample_rate, (M, S)).

    Reads little-endian RIFF files, plain or WAVE_FORMAT_EXTENSIBLE, of
    unsigned 8-bit, 16-, 24- or 32-bit PCM, or of 32- or 64-bit IEEE
    float samples. PCM is scaled to [-1, 1). Any other file, or one cut
    short, is a ``ValueError`` naming ``path``.
    """
    raw = memoryview(Path(path).read_bytes())
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a little-endian RIFF WAVE file")
    fmt = data = None
    pos = 12
    while data is None and pos + 8 <= len(raw):
        chunk, size = struct.unpack_from("<4sI", raw, pos)
        body = raw[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise ValueError(f"{path}: WAV is cut short in its {chunk.decode('latin-1')!r} chunk")
        if chunk == b"fmt ":
            fmt = body
        elif chunk == b"data":
            data = body
        pos += 8 + size + size % 2
    if data is None:
        raise ValueError(f"{path}: WAV has no data chunk")
    if fmt is None:
        raise ValueError(f"{path}: WAV has no fmt chunk before its data")
    if len(fmt) < 16:
        raise ValueError(f"{path}: WAV fmt chunk is too short ({len(fmt)} of at least 16 bytes)")
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _EXTENSIBLE and len(fmt) >= 40 and fmt[28:40] == _SUBFORMAT_TAIL:
        tag = struct.unpack_from("<I", fmt, 24)[0]
    if (tag, bits) not in _SAMPLE_FORMATS or channels == 0 or block_align != channels * bits // 8:
        raise ValueError(f"{path}: unsupported WAV format (tag {tag:#x}, {channels} channels, {bits} bits)")
    if len(data) % block_align:
        raise ValueError(f"{path}: WAV data is not a whole number of frames")
    dtype, offset, scale = _SAMPLE_FORMATS[tag, bits]
    if bits == 24:
        wide = np.zeros((len(data) // 3, 4), np.uint8)
        wide[:, 1:] = np.frombuffer(data, np.uint8).reshape(-1, 3)
        data = wide
    arr = np.frombuffer(data, dtype).astype(np.float64)
    if scale != 1.0:
        arr -= offset
        arr /= scale
    arr = arr.reshape(-1, channels).T
    if arr.size == 0:
        raise ValueError(f"{path}: WAV has no samples")
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: WAV has non-finite samples")
    return rate, arr


def _read_mono_wavs(paths: list[str | Path]) -> tuple[int, list[np.ndarray]]:
    """Read mono WAVs that share one sample rate: (rate, [signal, ...])."""
    rate, signals = None, []
    for p in paths:
        file_rate, sig = read_wav(p)
        if sig.shape[0] != 1:
            raise ValueError(f"{p}: expected a mono WAV")
        if rate is not None and file_rate != rate:
            raise ValueError(f"{p}: mixed sample rates ({file_rate} vs {rate} Hz); resampling is out of scope")
        rate = file_rate
        signals.append(sig[0])
    return rate, signals


# ---------------------------------------------------------------- simulate


def room_config_from_dict(data: dict) -> tuple[SyntheticRoomConfig, float]:
    """Strict room config; returns (config, builtin source duration)."""
    _reject_unknown(data, {f.name for f in fields(SyntheticRoomConfig)} | {"duration"}, "config")
    data = dict(data)
    duration = data.pop("duration", 4.0)
    if type(duration) not in (int, float) or not 0 < duration < np.inf:
        raise ValueError(f"duration must be a positive finite number, got {duration!r}")
    if isinstance(data.get("snr"), str):
        try:
            data["snr"] = float(data["snr"])
        except ValueError:
            raise ValueError(f"snr must be a number or 'inf', got {data['snr']!r}") from None
    return SyntheticRoomConfig(**data), float(duration)


def cmd_simulate(
    cfg: SyntheticRoomConfig,
    out_dir: str | Path,
    duration: float = 4.0,
    wav_paths: list[str] | None = None,
) -> Path:
    """Write mixture.wav, reference WAVs, and meta.json under ``out_dir``."""
    if wav_paths:
        if len(wav_paths) != cfg.n_sources:
            raise ValueError(f"expected {cfg.n_sources} source WAVs, got {len(wav_paths)}")
        rate, signals = _read_mono_wavs(wav_paths)
        cfg = replace(cfg, sample_rate=rate)
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
    meta = asdict(cfg) | {
        "snr": cfg.snr if np.isfinite(cfg.snr) else "inf",
        "noise_variance": 0.0 if np.isinf(cfg.snr) else cfg.n_sources / cfg.snr,
        "n_samples": int(sources.shape[1]),
        "rir_sha256": [
            [hashlib.sha256(h.tobytes()).hexdigest() for h in row]
            for row in result.impulse_responses
        ],
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return out


# ---------------------------------------------------------------- separate


def _separate(config: RunConfig, spec: Spectrogram, **options) -> RunResult:
    """Run ``config`` on an analyzed mixture; ``options`` go to ``run``."""
    return run(
        AlgorithmVariant.from_name(config.variant),
        spec,
        iterations=config.iterations,
        taps=TapConfig(config.taps, config.delay),
        n_bases=config.n_bases,
        seed=config.seed,
        wpe_iterations=config.wpe_init_iters,
        **options,
    )


def cmd_separate(mixture_path: str | Path, config: RunConfig, out_dir: str | Path) -> Path:
    """Separate a mixture WAV; write estimates, trace.csv, report.json."""
    sample_rate, x = read_wav(mixture_path)
    spec = analyze(x, config.stft(sample_rate))
    del x  # the run holds the spectrogram alone
    result = _separate(config, spec)
    del spec  # only the outputs are held through synthesis and the writes
    estimates = synthesize(result.outputs)
    out = Path(out_dir)
    (out / "estimates").mkdir(parents=True, exist_ok=True)
    for i in range(estimates.shape[0]):
        write_wav(out / "estimates" / f"src{i:02d}.wav", sample_rate, estimates[i])
    _write_trace(out / "trace.csv", result)
    _write_report(out / "report.json", config, result)
    return out


def _write_trace(path: Path, result: RunResult) -> None:
    trace = result.trace
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "cost", "cumulative_solves", "wall_ms"])
        for i, (value, solves, wall) in enumerate(zip(trace.costs, trace.cumulative_solves, [0.0, *trace.wall_ms])):
            writer.writerow([i, repr(float(value)), solves, f"{wall:.3f}"])


def _write_report(path: Path, config: RunConfig, result: RunResult) -> None:
    """The run's shape, final cost and solve counts: the trace's last cumulative count,
    and one projection-back solve per bin when ``scales`` says it ran."""
    trace, outputs = result.trace, result.outputs  # square: outputs have the mixture's shape
    iters, solves = trace.iterations, trace.cumulative_solves
    expected = VARIANTS[AlgorithmVariant.from_name(config.variant)].solve_law(outputs.n_channels, config.taps)
    measured = (solves[-1] - solves[0]) / (iters * outputs.n_bins) if iters > 0 else 0.0
    report = {
        "config": asdict(config),
        "n_bins": outputs.n_bins,
        "n_frames": outputs.n_frames,
        "n_channels": outputs.n_channels,
        "final_cost": trace.costs[-1],
        "iteration_solves": solves[-1],
        "projection_solves": 0 if result.scales is None else len(result.scales),
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
        raise ValueError(f"no WAV files in {directory}")
    rate, rows = _read_mono_wavs(paths)
    if len({r.size for r in rows}) != 1:
        raise ValueError(f"{directory}: mixed signal lengths")
    return rate, np.stack(rows)


def cmd_eval(
    refs_dir: str | Path,
    estimates_dir: str | Path,
    mode: str = "direct-path",
    out_dir: str | Path = ".",
    mixture_path: str | Path | None = None,
) -> dict:
    """Score estimates; write metrics.json and metrics.csv to ``out_dir``."""
    if mode not in ("direct-path", "anechoic"):
        raise ValueError("mode must be 'direct-path' or 'anechoic'")
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
        raise ValueError(f"mixture WAV not found at {mix_path}; pass --mixture")

    rate_r, refs = _load_source_dir(ref_sub)
    rate_e, ests = _load_source_dir(Path(estimates_dir))
    rate_m, mixture = read_wav(mix_path)
    if len({rate_r, rate_e, rate_m}) != 1:
        raise ValueError("references, estimates, and mixture have different sample rates")
    if ests.shape != refs.shape:
        raise ValueError(f"{estimates_dir}: estimates of shape {ests.shape}, references of shape {refs.shape}")
    if mixture.shape != refs.shape:
        raise ValueError(f"{mix_path}: mixture of shape {mixture.shape}, references of shape {refs.shape}")
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
    _reject_unknown(data, set(_MATRIX_DEFAULTS) | _RUN_KEYS | _ROOM_KEYS, "matrix")
    matrix = _MATRIX_DEFAULTS | data
    for key in ("variants", "n_sources", "seeds"):
        if type(matrix[key]) is not list or not matrix[key]:
            raise ValueError(f"{key} must be a non-empty list, got {matrix[key]!r}")
    if type(matrix["metric_every"]) is not int or matrix["metric_every"] < 1:
        raise ValueError("metric_every must be a positive integer")
    run_keys = {k: v for k, v in matrix.items() if k in _RUN_KEYS}
    matrix["configs"] = [RunConfig.from_dict(run_keys | {"variant": name}) for name in matrix["variants"]]
    # n_sources is a grid axis: an unsupported count fails its own cells only
    room = {k: v for k, v in matrix.items() if k in _ROOM_KEYS}
    matrix["room"], matrix["duration"] = room_config_from_dict(room | {"n_sources": 1})
    return matrix


def _bench_cell(config: RunConfig, n_sources: int, matrix: dict) -> list[dict]:
    room, duration, metric_every = matrix["room"], matrix["duration"], matrix["metric_every"]
    base = {"variant": config.variant, "n_sources": n_sources, "seed": config.seed}
    try:
        room = replace(room, n_sources=n_sources, seed=config.seed)
        fs = room.sample_rate
        result = mix(make_sources(n_sources, int(round(duration * fs)), fs, config.seed), room)
        refs = result.direct_images[:, 0, :]
        _, baseline = mixture_baseline(refs, result.mixture)  # the same at every checkpoint
        spec = analyze(result.mixture, config.stft(fs))
        del result  # the run holds the spectrogram and the references alone
        deltas: dict[int, float] = {}

        def checkpoint(iteration: int, outputs: np.ndarray, dm) -> None:
            """Score every ``metric_every``-th state and the final one, which ``run`` returns."""
            if iteration % metric_every and iteration != config.iterations:
                return
            if iteration > 0 and dm is not None:  # as run ends, on a copy: the run goes on with these
                outputs = outputs.copy()
                projection_back(dm, outputs)
            est = synthesize(Spectrogram(outputs, spec.config, spec.n_samples))
            deltas[iteration] = mean_delta_si_sdr(refs, est, baseline)

        costs = _separate(config, spec, callback=checkpoint).trace.costs
        return [base | {"iteration": i, "cost": costs[i], "delta_si_sdr": d, "status": "ok"} for i, d in deltas.items()]
    except MemoryError:  # a room too large to allocate is a bad matrix: exit 2, not a failed cell
        raise
    except Exception as exc:  # failed cells are recorded, the sweep continues
        return [base | {"iteration": "", "cost": "", "delta_si_sdr": "", "status": f"error:{type(exc).__name__}: {exc}"}]


def cmd_bench(matrix_path: str | Path, out_dir: str | Path) -> Path:
    """Run a variant/sources/seed grid cell by cell; write curves.csv and summary.csv."""
    matrix = _load_matrix(matrix_path)
    cells = [  # every cell's config is checked before the first one runs
        (replace(config, seed=seed), n)
        for config in matrix["configs"]
        for n in matrix["n_sources"]
        for seed in matrix["seeds"]
    ]
    cell_rows = [_bench_cell(config, n, matrix) for config, n in cells]

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns = ["variant", "n_sources", "seed", "iteration", "cost", "delta_si_sdr", "status"]
    with open(out / "curves.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for rows in cell_rows:
            for row in rows:
                writer.writerow(row)

    last_rows: dict[tuple[str, int], list[dict]] = {}  # each cell's last row, per (variant, n_sources)
    for *_, last in cell_rows:
        last_rows.setdefault((last["variant"], last["n_sources"]), []).append(last)
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["variant", "n_sources", "cells", "failed", "mean_final_cost", "mean_final_delta_si_sdr"]
        )
        for (variant, n), rows in last_rows.items():
            ok = [row for row in rows if row["status"] == "ok"]
            means = [float(np.mean([row[k] for row in ok])) if ok else "" for k in ("cost", "delta_si_sdr")]
            writer.writerow([variant, n, len(rows), len(rows) - len(ok), *means])
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


def _config_from_args(args: argparse.Namespace, names: list[str]) -> dict:
    """The ``--config`` object (or ``{}``) with every given flag among ``names`` applied over it."""
    data = _load_json_dict(args.config) if args.config else {}
    return data | {k: getattr(args, k) for k in names if getattr(args, k) is not None}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one line, like every other exit-2 failure
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    be.add_argument("matrix_path", metavar="matrix", help="JSON benchmark matrix")
    be.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "simulate":
            data = _config_from_args(args, [name for name, _, _ in _ROOM_FLAGS])
            data.setdefault("n_sources", len(args.wav) if args.wav else 2)
            cfg, duration = room_config_from_dict(data)
            cmd_simulate(cfg, args.out, duration, args.wav)
        elif args.command == "separate":
            data = _config_from_args(args, [f.name for f in fields(RunConfig)])
            cmd_separate(args.mixture, RunConfig.from_dict(data), args.out)
        elif args.command == "eval":
            cmd_eval(args.refs, args.estimates, args.mode, args.out, args.mixture)
        elif args.command == "bench":
            cmd_bench(args.matrix_path, args.out)
    except SystemExit as exc:  # argparse's one-line errors (status 2) and --help (status 0)
        return exc.code
    except NumericalError as exc:
        print(f"drbss: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"drbss: i/o failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, MemoryError) as exc:  # a size too large to allocate is a bad config
        print(f"drbss: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
