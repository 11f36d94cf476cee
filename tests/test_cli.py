"""Batch pipeline: config handling, artifacts, exit codes."""

import argparse
import csv
import json

import numpy as np
import pytest

from drbss import SyntheticRoomConfig, make_sources
from drbss.cli import (
    ConfigError,
    RunConfig,
    cmd_bench,
    cmd_eval,
    cmd_separate,
    cmd_simulate,
    build_parser,
    main,
    read_wav,
    room_config_from_dict,
    write_wav,
)

FS = 8000
FAST = {"frame_len": 256, "hop": 128, "iterations": 5, "taps": 2}


def simulate_tree(tmp_path, seed=0, n_sources=2, duration=1.0, **kwargs):
    cfg = SyntheticRoomConfig(
        n_sources, sample_rate=FS, rt60=0.15, snr=1e4, seed=seed, **kwargs
    )
    out = tmp_path / f"sim{seed}"
    cmd_simulate(cfg, out, duration=duration)
    return out


def test_run_config_round_trip(tmp_path):
    cfg = RunConfig(variant="ilrma-ip", iterations=7, frame_len=512, hop=128)
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg
    path = tmp_path / "run.json"
    cfg.save(path)
    assert RunConfig.load(path) == cfg


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_dict({"variant": "ilrma-ip", "bogus": 1})


def test_run_config_rejects_bad_values():
    with pytest.raises(ValueError):
        RunConfig(variant="not-a-variant")
    with pytest.raises(ConfigError):
        RunConfig(iterations=-1)
    with pytest.raises(ConfigError):
        RunConfig(delay=0)
    with pytest.raises(ConfigError):
        RunConfig(frame_len=300, hop=100)
    with pytest.raises(ConfigError):
        RunConfig(taps=-1)


def test_room_config_from_dict():
    cfg, duration = room_config_from_dict({"n_sources": 2, "snr": "inf", "duration": 2.5})
    assert np.isinf(cfg.snr)
    assert duration == 2.5
    with pytest.raises(ConfigError, match="unknown config keys"):
        room_config_from_dict({"n_sources": 2, "rooms": 3})
    with pytest.raises(ConfigError):
        room_config_from_dict({"n_sources": 2, "duration": -1.0})
    for key, bad in (("rt60", "x"), ("snr", True), ("tail_gain", None)):
        with pytest.raises(ConfigError, match=f"{key} must be a number"):
            room_config_from_dict({"n_sources": 2, key: bad})


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    stereo = 0.4 * rng.standard_normal((2, 500))
    write_wav(tmp_path / "x.wav", FS, stereo)
    rate, back = read_wav(tmp_path / "x.wav")
    assert rate == FS
    assert back.shape == (2, 500)
    assert np.abs(back - stereo).max() <= 1e-6

    mono = 0.4 * rng.standard_normal(300)
    write_wav(tmp_path / "m.wav", FS, mono)
    _, back = read_wav(tmp_path / "m.wav")
    assert back.shape == (1, 300)


def test_simulate_artifacts(tmp_path):
    out = simulate_tree(tmp_path, seed=1)
    assert (out / "mixture.wav").is_file()
    for sub in ("direct", "anechoic"):
        for i in range(2):
            assert (out / "refs" / sub / f"src{i:02d}.wav").is_file()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["n_sources"] == 2
    assert meta["sample_rate"] == FS
    assert meta["n_samples"] == FS  # one second
    assert len(meta["rir_sha256"]) == 2 and len(meta["rir_sha256"][0]) == 2
    rate, mixture = read_wav(out / "mixture.wav")
    assert mixture.shape == (2, FS)


def test_simulate_deterministic(tmp_path):
    a = simulate_tree(tmp_path, seed=2)
    b_dir = tmp_path / "again"
    cmd_simulate(
        SyntheticRoomConfig(2, sample_rate=FS, rt60=0.15, snr=1e4, seed=2),
        b_dir,
        duration=1.0,
    )
    assert (a / "mixture.wav").read_bytes() == (b_dir / "mixture.wav").read_bytes()
    assert json.loads((a / "meta.json").read_text()) == json.loads(
        (b_dir / "meta.json").read_text()
    )


def test_simulate_three_sources(tmp_path):
    out = simulate_tree(tmp_path, seed=3, n_sources=3)
    _, mixture = read_wav(out / "mixture.wav")
    assert mixture.shape[0] == 3
    assert len(list((out / "refs" / "direct").glob("*.wav"))) == 3


def test_simulate_from_wav_sources(tmp_path):
    sources = 0.3 * make_sources(2, 4000, FS, seed=4)
    for i in range(2):
        write_wav(tmp_path / f"in{i}.wav", FS, sources[i])
    cfg = SyntheticRoomConfig(2, sample_rate=FS, rt60=0.1, snr=1e4, seed=4)
    out = cmd_simulate(cfg, tmp_path / "wavsim", wav_paths=[str(tmp_path / f"in{i}.wav") for i in range(2)])
    meta = json.loads((out / "meta.json").read_text())
    assert meta["n_samples"] == 4000


def test_separate_artifacts_and_solve_law(tmp_path):
    sim = simulate_tree(tmp_path, seed=5)
    out = tmp_path / "sep"
    cfg = RunConfig(variant="ilrma-t-iss-seq", **FAST)
    cmd_separate(sim / "mixture.wav", cfg, out)

    assert (out / "estimates" / "src00.wav").is_file()
    assert (out / "estimates" / "src01.wav").is_file()
    report = json.loads((out / "report.json").read_text())
    assert report["solve_law"]["expected_per_bin_iteration"] == 0
    assert report["solve_law"]["measured_per_bin_iteration"] == 0
    assert report["solve_law"]["consistent"] is True
    assert report["iteration_solves"] == 0
    assert report["projection_solves"] == report["n_bins"]

    with open(out / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == cfg.iterations + 1
    costs = np.array([float(r["cost"]) for r in rows])
    assert np.all(np.diff(costs) <= 1e-8 * np.abs(costs[:-1]))


def test_separate_solve_law_with_solves(tmp_path):
    sim = simulate_tree(tmp_path, seed=6)
    out = tmp_path / "sep-ip"
    cmd_separate(sim / "mixture.wav", RunConfig(variant="ilrma-t-ip", **FAST), out)
    report = json.loads((out / "report.json").read_text())
    assert report["solve_law"]["expected_per_bin_iteration"] == 4  # two per source
    assert report["solve_law"]["measured_per_bin_iteration"] == 4
    assert report["solve_law"]["consistent"] is True


def test_separate_zero_iterations_passes_mixture_through(tmp_path):
    sim = simulate_tree(tmp_path, seed=7)
    out = tmp_path / "sep0"
    cfg = RunConfig(variant="ilrma-ip", frame_len=256, hop=128, iterations=0)
    cmd_separate(sim / "mixture.wav", cfg, out)
    _, mixture = read_wav(sim / "mixture.wav")
    _, est0 = read_wav(out / "estimates" / "src00.wav")
    _, est1 = read_wav(out / "estimates" / "src01.wav")
    ests = np.vstack([est0, est1])
    assert np.abs(ests - mixture).max() <= 1e-5  # float32 plus round trip


def test_eval_mixture_scores_zero_delta(tmp_path):
    sim = simulate_tree(tmp_path, seed=8)
    est_dir = tmp_path / "asmix"
    est_dir.mkdir()
    _, mixture = read_wav(sim / "mixture.wav")
    for i in range(2):
        write_wav(est_dir / f"src{i:02d}.wav", FS, mixture[i])
    payload = cmd_eval(sim, est_dir, out_dir=tmp_path / "ev0")
    assert payload["delta_si_sdr"] == [0.0, 0.0]
    assert (tmp_path / "ev0" / "metrics.json").is_file()
    assert (tmp_path / "ev0" / "metrics.csv").is_file()


def test_eval_after_separation_improves(tmp_path):
    sim = simulate_tree(tmp_path, seed=9, duration=2.0)
    out = tmp_path / "sep9"
    cfg = RunConfig(variant="ilrma-t-iss-seq", frame_len=256, hop=128, iterations=40, taps=5)
    cmd_separate(sim / "mixture.wav", cfg, out)
    payload = cmd_eval(sim, out / "estimates", out_dir=tmp_path / "ev9")
    assert payload["mean"]["delta_si_sdr"] > 0.0
    with open(tmp_path / "ev9" / "metrics.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "source"
    assert rows[-1][0] == "mean"
    assert float(rows[-1][4]) == pytest.approx(payload["mean"]["delta_si_sdr"])


def test_eval_shape_mismatch(tmp_path):
    sim = simulate_tree(tmp_path, seed=10)
    est_dir = tmp_path / "short"
    est_dir.mkdir()
    write_wav(est_dir / "src00.wav", FS, np.zeros(100))
    with pytest.raises(ConfigError):
        cmd_eval(sim, est_dir, out_dir=tmp_path / "ev10")


def test_bench_grid_with_failed_cell(tmp_path):
    matrix = {
        "variants": ["ilrma-iss", "wpe"],
        "n_sources": [2, 5],  # five sources is out of range: recorded, not fatal
        "seeds": [0],
        "iterations": 4,
        "metric_every": 2,
        "duration": 1.0,
        "frame_len": 256,
        "hop": 128,
    }
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix))
    out = cmd_bench(path, tmp_path / "bench")
    with open(out / "curves.csv") as fh:
        rows = list(csv.DictReader(fh))
    ok = [r for r in rows if r["status"] == "ok"]
    errors = [r for r in rows if r["status"].startswith("error:")]
    assert {r["variant"] for r in ok} == {"ilrma-iss", "wpe"}
    assert all(r["n_sources"] == "5" for r in errors)
    assert len(errors) == 2
    assert all(r["status"] == "error:ValueError: n_sources must be between 1 and 4" for r in errors)
    for variant in ("ilrma-iss", "wpe"):
        iters = [int(r["iteration"]) for r in ok if r["variant"] == variant]
        assert iters == [0, 2, 4]
        costs = np.array([float(r["cost"]) for r in ok if r["variant"] == variant])
        assert np.all(np.diff(costs) <= 1e-8 * np.abs(costs[:-1]))
    with open(out / "summary.csv") as fh:
        summary = list(csv.DictReader(fh))
    failed = {(r["variant"], r["n_sources"]): r["failed"] for r in summary}
    assert failed[("ilrma-iss", "5")] == "1"
    assert failed[("ilrma-iss", "2")] == "0"
    # the process pool writes the same files as the serial loop
    pooled = cmd_bench(path, tmp_path / "bench_pool", workers=2)
    for name in ("curves.csv", "summary.csv"):
        assert (pooled / name).read_bytes() == (out / name).read_bytes()


def test_bench_rejects_bad_matrix(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"variants": []}))
    with pytest.raises(ConfigError):
        cmd_bench(path, tmp_path / "bench2")
    path.write_text(json.dumps({"variants": ["ilrma-ip"], "metric": 1}))
    with pytest.raises(ConfigError, match="unknown matrix keys"):
        cmd_bench(path, tmp_path / "bench2")
    # every run and room setting is checked once, before any cell runs
    for bad in (
        {"hop": 100}, {"taps": -1}, {"iterations": "3"}, {"rt60": -1},
        {"tail_gain": -1}, {"duration": None}, {"sample_rate": 8000.5}, {"metric_every": "2"},
        {"rt60": "x"}, {"snr": True}, {"tail_gain": None},
    ):
        path.write_text(json.dumps({"variants": ["ilrma-ip"], **bad}))
        with pytest.raises(ConfigError):
            cmd_bench(path, tmp_path / "bench2")
        assert main(["bench", str(path), "--out", str(tmp_path / "bench3")]) == 2
        assert not (tmp_path / "bench3" / "curves.csv").exists()


def test_main_exit_codes(tmp_path):
    sim = simulate_tree(tmp_path, seed=11)
    code = main(
        ["separate", str(sim / "mixture.wav"), "--out", str(tmp_path / "m0"),
         "--variant", "ilrma-iss", "--iterations", "2", "--frame-len", "256", "--hop", "128"]
    )
    assert code == 0

    # unknown config key in a run config file
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"variant": "ilrma-ip", "oops": True}))
    code = main(
        ["separate", str(sim / "mixture.wav"), "--out", str(tmp_path / "m1"), "--config", str(bad_cfg)]
    )
    assert code == 2

    # a silent mixture cannot be separated: numerical failure
    silent = tmp_path / "silent.wav"
    write_wav(silent, FS, np.zeros((2, 8000)))
    code = main(
        ["separate", str(silent), "--out", str(tmp_path / "m2"),
         "--variant", "ilrma-ip", "--iterations", "2", "--frame-len", "256", "--hop", "128"]
    )
    assert code == 3

    # prediction needs at least one tap
    code = main(
        ["separate", str(sim / "mixture.wav"), "--out", str(tmp_path / "m4"),
         "--variant", "wpe", "--taps", "0", "--iterations", "1", "--frame-len", "256", "--hop", "128"]
    )
    assert code == 2

    # a delay past the last frame leaves the taps nothing to predict from
    code = main(
        ["separate", str(sim / "mixture.wav"), "--out", str(tmp_path / "m5"),
         "--variant", "ilrma-t-iss-seq", "--delay", "100", "--iterations", "1", "--frame-len", "256", "--hop", "128"]
    )
    assert code == 2

    # missing input file
    code = main(
        ["separate", str(tmp_path / "nope.wav"), "--out", str(tmp_path / "m3"),
         "--variant", "ilrma-ip", "--iterations", "1"]
    )
    assert code == 4


def _option_strings(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [opt for action in sub.choices[command]._actions for opt in action.option_strings]


def test_cli_surface_is_pinned(tmp_path, capsys):
    assert _option_strings("separate") == [
        "-h", "--help", "--out", "--config", "--variant", "--iterations", "--taps", "--delay",
        "--n-bases", "--frame-len", "--hop", "--seed", "--wpe-init-iters",
    ]
    assert _option_strings("simulate") == [
        "-h", "--help", "--out", "--config", "--n-sources", "--sample-rate", "--rt60", "--snr",
        "--seed", "--duration", "--tail-gain", "--max-direct-delay", "--wav",
    ]
    # run configs written before the unused ``reference`` key was removed
    old_cfg = tmp_path / "old.json"
    old_cfg.write_text(json.dumps({"variant": "ilrma-ip", "reference": "direct-path"}))
    code = main(["separate", str(tmp_path / "x.wav"), "--out", str(tmp_path / "o"), "--config", str(old_cfg)])
    assert code == 2
    assert "unknown config keys: reference" in capsys.readouterr().err
