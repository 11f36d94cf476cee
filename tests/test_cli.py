"""Batch pipeline: config handling, artifacts, exit codes."""

import argparse
import csv
import itertools
import json
import re
import warnings
import weakref
from dataclasses import asdict, fields

import numpy as np
import pytest

from drbss import (
    AlgorithmVariant,
    SolveCounter,
    StftConfig,
    SyntheticRoomConfig,
    TapConfig,
    analyze,
    cli,
    make_sources,
    mix,
    run,
    synthesize,
)
from drbss.cli import (
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
from drbss.metrics import DB_CAP, mean_delta_si_sdr, mixture_baseline

FS = 8000
FAST = {"frame_len": 256, "hop": 128, "iterations": 5, "taps": 2}


def simulate_tree(tmp_path, seed=0, n_sources=2, duration=1.0, **kwargs):
    cfg = SyntheticRoomConfig(
        n_sources, sample_rate=FS, rt60=0.15, snr=1e4, seed=seed, **kwargs
    )
    out = tmp_path / f"sim{seed}"
    cmd_simulate(cfg, out, duration=duration)
    return out


def test_run_config_round_trip():
    cfg = RunConfig(variant="ilrma-ip", iterations=7, frame_len=512, hop=128)
    assert RunConfig.from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_dict({"variant": "ilrma-ip", "bogus": 1})


def test_run_config_rejects_bad_values():
    with pytest.raises(ValueError):
        RunConfig(variant="not-a-variant")
    with pytest.raises(ValueError, match="^iterations must be non-negative, got -1$"):
        RunConfig(iterations=-1)
    with pytest.raises(ValueError, match="^delay must be at least one frame$"):
        RunConfig(delay=0)
    with pytest.raises(ValueError, match="^frame_len must be a positive power of two, got 300$"):
        RunConfig(frame_len=300, hop=100)
    with pytest.raises(ValueError, match="^taps must be non-negative$"):
        RunConfig(taps=-1)


def test_room_config_from_dict():
    cfg, duration = room_config_from_dict({"n_sources": 2, "snr": "inf", "duration": 2.5})
    assert np.isinf(cfg.snr)
    assert duration == 2.5
    with pytest.raises(ValueError, match="unknown config keys"):
        room_config_from_dict({"n_sources": 2, "rooms": 3})
    with pytest.raises(ValueError, match=r"^duration must be a positive finite number, got -1\.0$"):
        room_config_from_dict({"n_sources": 2, "duration": -1.0})
    for key, bad in (("rt60", "x"), ("snr", True), ("tail_gain", None)):
        with pytest.raises(ValueError, match=f"{key} must be a number"):
            room_config_from_dict({"n_sources": 2, key: bad})
    # non-finite room values name their field; snr alone may be infinite
    for key in ("rt60", "tail_gain", "duration"):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match=f"{key} must be .*finite"):
                room_config_from_dict({"n_sources": 2, key: bad})
    assert np.isinf(room_config_from_dict({"n_sources": 2, "snr": np.inf})[0].snr)


def test_room_config_names_a_bad_snr_string():
    with pytest.raises(ValueError, match="snr") as info:
        room_config_from_dict({"n_sources": 2, "snr": "x"})
    assert "could not convert" not in str(info.value)


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


def test_a_rate_no_wav_header_holds_exits_2_naming_the_file(tmp_path, capsys):
    with pytest.raises(ValueError, match="x.wav"):
        write_wav(tmp_path / "x.wav", 2**30, np.zeros((1, 8)))
    argv = ["simulate", "--out", str(tmp_path / "s"), "--sample-rate", str(10**9), "--duration", "1e-6", "--rt60", "0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "mixture.wav" in err


def test_simulate_artifacts(tmp_path):
    out = simulate_tree(tmp_path, seed=1)
    assert (out / "mixture.wav").is_file()
    for sub in ("direct", "anechoic"):
        for i in range(2):
            assert (out / "refs" / sub / f"src{i:02d}.wav").is_file()
    meta = json.loads((out / "meta.json").read_text())
    assert {f.name for f in fields(SyntheticRoomConfig)} <= set(meta)
    assert meta["direct_delays"] is None and meta["direct_gains"] is None
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


def test_simulate_echoes_direct_paths(tmp_path):
    room = tmp_path / "room.json"
    delays, gains = [[0, 3], [5, 1]], [[1.0, 0.5], [1.0, 0.75]]
    room.write_text(json.dumps({"sample_rate": FS, "duration": 0.5, "direct_delays": delays, "direct_gains": gains}))
    assert main(["simulate", "--out", str(tmp_path / "s"), "--config", str(room)]) == 0
    meta = json.loads((tmp_path / "s" / "meta.json").read_text())
    assert meta["direct_delays"] == delays and meta["direct_gains"] == gains


@pytest.mark.parametrize(
    "room, key",
    [
        ({"direct_delays": [[0]]}, "direct_delays"),
        ({"direct_delays": [[0, -3], [1, 2]]}, "direct_delays"),
        ({"direct_gains": [[1.0, 0.5], [0.25, 1.0]]}, "direct_gains"),
        ({"direct_delays": [[0, 5000], [0, 0]]}, "direct_delays"),
        ({"direct_delays": [[0, 4000], [0, 0]]}, "direct_delays"),
        ({"duration": 0.001, "max_direct_delay": 12}, "max_direct_delay"),
    ],
)
def test_simulate_rejects_bad_direct_paths(tmp_path, capsys, room, key):
    config = tmp_path / "room.json"
    config.write_text(json.dumps({"sample_rate": FS, "duration": 0.5} | room))
    assert main(["simulate", "--out", str(tmp_path / "s"), "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert key in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "s").exists()


def test_flags_apply_over_config_before_validation(tmp_path, capsys):
    sim = simulate_tree(tmp_path, seed=12)
    run = tmp_path / "run.json"
    run.write_text(json.dumps({"variant": "ilrma-ip", "iterations": -1, "frame_len": 256, "hop": 128}))
    argv = ["separate", str(sim / "mixture.wav"), "--config", str(run)]
    assert main(argv + ["--out", str(tmp_path / "ok"), "--iterations", "1"]) == 0
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "bad")]) == 2
    assert "iterations" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    room = tmp_path / "room.json"
    room.write_text(json.dumps({"sample_rate": FS, "duration": 0.5, "rt60": -1}))
    assert main(["simulate", "--out", str(tmp_path / "s"), "--config", str(room), "--rt60", "0.2"]) == 0
    capsys.readouterr()
    assert main(["simulate", "--out", str(tmp_path / "s2"), "--config", str(room)]) == 2
    assert "rt60" in capsys.readouterr().err


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


def test_separate_lets_go_of_the_observation_before_synthesis(tmp_path, monkeypatch):
    """Only the outputs are held through synthesis; the report reads its shape from them."""
    sim = simulate_tree(tmp_path, seed=5)
    analyzed, alive_at_synthesis = [], []

    def analyze(*args):
        spec = cli_analyze(*args)
        analyzed.append(weakref.ref(spec))
        return spec

    def synthesize(spec):
        alive_at_synthesis.append(analyzed[0]() is not None)
        return cli_synthesize(spec)

    cli_analyze, cli_synthesize = cli.analyze, cli.synthesize
    monkeypatch.setattr(cli, "analyze", analyze)
    monkeypatch.setattr(cli, "synthesize", synthesize)
    cmd_separate(sim / "mixture.wav", RunConfig(variant="ilrma-t-iss-seq", **FAST), tmp_path / "sep")
    assert alive_at_synthesis == [False]
    report = json.loads((tmp_path / "sep" / "report.json").read_text())
    assert (report["n_bins"], report["n_channels"], report["n_frames"]) == (129, 2, 64)


def test_separate_solve_law_with_solves(tmp_path):
    sim = simulate_tree(tmp_path, seed=6)
    out = tmp_path / "sep-ip"
    cmd_separate(sim / "mixture.wav", RunConfig(variant="ilrma-t-ip", **FAST), out)
    report = json.loads((out / "report.json").read_text())
    assert report["solve_law"]["expected_per_bin_iteration"] == 4  # two per source
    assert report["solve_law"]["measured_per_bin_iteration"] == 4
    assert report["solve_law"]["consistent"] is True


@pytest.mark.parametrize("flags", [(), ("--taps", "0")], ids=["default-taps", "zero-taps"])
@pytest.mark.parametrize("variant", [v.value for v in AlgorithmVariant])
def test_separate_reports_a_consistent_solve_law_with_and_without_taps(tmp_path, capsys, variant, flags):
    """The law follows the taps: at zero taps the joint step is ilrma-iss's and makes no solve. A variant
    that runs WPE, alone or first, needs a tap and exits 2 without one."""
    sim = simulate_tree(tmp_path, seed=6)
    capsys.readouterr()
    code = main(["separate", str(sim / "mixture.wav"), "--out", str(tmp_path / "sep"), "--variant", variant,
                 "--iterations", "2", "--frame-len", "256", "--hop", "128", *flags])
    if flags and variant.startswith("wpe"):
        assert code == 2 and "prediction needs at least one tap" in capsys.readouterr().err
    else:
        law = json.loads((tmp_path / "sep" / "report.json").read_text())["solve_law"]
        assert code == 0 and law["consistent"] is True
        assert law["measured_per_bin_iteration"] == law["expected_per_bin_iteration"]


@pytest.mark.parametrize("iterations", [0, 3])
@pytest.mark.parametrize("variant", [v.value for v in AlgorithmVariant])
def test_report_solve_counts_match_a_counter_passed_to_run(tmp_path, variant, iterations):
    """report.json reads its counts from the run's trace and scales; a live counter and one
    projection solve per bin (none for plain dereverberation or no iteration) agree."""
    sim = simulate_tree(tmp_path, seed=5)
    cfg = RunConfig(variant=variant, **(FAST | {"iterations": iterations}))
    cmd_separate(sim / "mixture.wav", cfg, tmp_path / "sep")
    report = json.loads((tmp_path / "sep" / "report.json").read_text())
    rate, x = read_wav(sim / "mixture.wav")
    counter = SolveCounter()
    result = run(
        AlgorithmVariant(variant),
        analyze(x, cfg.stft(rate)),
        iterations=iterations,
        taps=TapConfig(cfg.taps, cfg.delay),
        n_bases=cfg.n_bases,
        seed=cfg.seed,
        wpe_iterations=cfg.wpe_init_iters,
        counter=counter,
    )
    projected = iterations > 0 and variant != "wpe"
    assert (report["iteration_solves"], report["projection_solves"]) == (
        counter.iteration_solves,
        report["n_bins"] if projected else 0,
    )
    assert counter.iteration_solves == result.trace.cumulative_solves[-1]


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
    """Too few (and shorter) or too many estimates: one message naming the directory and both shapes."""
    sim = simulate_tree(tmp_path, seed=10)
    for name, lengths in [("short", [100]), ("three", [FS] * 3)]:
        est_dir = tmp_path / name
        est_dir.mkdir()
        for i, n in enumerate(lengths):
            write_wav(est_dir / f"src{i:02d}.wav", FS, np.zeros(n))
        want = f"{est_dir}: estimates of shape ({len(lengths)}, {lengths[0]}), references of shape (2, {FS})"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            cmd_eval(sim, est_dir, out_dir=tmp_path / "ev10")
        assert not (tmp_path / "ev10").exists()


def test_eval_rejects_an_unknown_mode(tmp_path):
    with pytest.raises(ValueError, match="^mode must be 'direct-path' or 'anechoic'$"):
        cmd_eval(tmp_path, tmp_path, mode="bogus", out_dir=tmp_path / "ev")
    assert not (tmp_path / "ev").exists()


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


def test_bench_scores_the_final_state_off_the_checkpoint_grid(tmp_path):
    """With iterations not a multiple of metric_every, the last row is the state run returns."""
    matrix = {
        "variants": ["ilrma-t-iss-seq", "wpe"],
        "seeds": [0],
        "iterations": 5,
        "metric_every": 2,
        "duration": 1.0,
        "frame_len": 256,
        "hop": 128,
    }
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix))
    with open(cmd_bench(path, tmp_path / "bench") / "curves.csv") as fh:
        rows = list(csv.DictReader(fh))
    room = SyntheticRoomConfig(2, sample_rate=FS, seed=0)
    mixed = mix(make_sources(2, FS, FS, 0), room)
    refs = mixed.direct_images[:, 0, :]
    baseline = mixture_baseline(refs, mixed.mixture)[1]
    spec = analyze(mixed.mixture, StftConfig(256, 128, FS))
    for variant in matrix["variants"]:
        cell = [r for r in rows if r["variant"] == variant]
        assert [int(r["iteration"]) for r in cell] == [0, 2, 4, 5]
        result = run(AlgorithmVariant(variant), spec, iterations=5)
        assert float(cell[-1]["cost"]) == result.trace.costs[-1]
        assert float(cell[-1]["delta_si_sdr"]) == mean_delta_si_sdr(refs, synthesize(result.outputs), baseline)


def test_bench_scores_the_mixture_baseline_once_per_cell(tmp_path, monkeypatch):
    """A cell's mixture and references do not change between checkpoints."""
    calls = []
    original = cli.mixture_baseline

    def counted(references, mixture):
        calls.append(1)
        return original(references, mixture)

    monkeypatch.setattr(cli, "mixture_baseline", counted)
    matrix = {
        "variants": ["ilrma-iss", "wpe"],
        "n_sources": [2],
        "seeds": [0, 1],
        "iterations": 4,
        "metric_every": 1,
        "duration": 1.0,
        "frame_len": 256,
        "hop": 128,
    }
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix))
    out = cmd_bench(path, tmp_path / "bench")
    with open(out / "curves.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["ok"] * 4 * 5
    assert len(calls) == 4
    # the unprocessed mixture scored against its own baseline gains exactly nothing
    assert all(float(r["delta_si_sdr"]) == 0.0 for r in rows if r["iteration"] == "0")


def test_eval_names_a_mixture_that_does_not_match_the_references(tmp_path, capsys):
    """A mixture with the wrong channel count or length is blamed, not the estimates."""
    sim = simulate_tree(tmp_path, seed=10)
    _, refs = read_wav(sim / "refs" / "direct" / "src00.wav")
    for name, shape in (("three_channels", (3, refs.shape[1])), ("longer", (2, refs.shape[1] * 3 // 2))):
        mixture = tmp_path / f"{name}.wav"
        write_wav(mixture, FS, 0.1 * np.random.default_rng(0).standard_normal(shape))
        capsys.readouterr()
        argv = ["eval", "--refs", str(sim), "--estimates", str(sim / "refs" / "direct"), "--mixture", str(mixture)]
        assert main(argv + ["--out", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(mixture) in err and str(shape) in err, err
        assert not (tmp_path / name).exists()


def test_eval_names_estimates_longer_than_the_references(tmp_path, capsys):
    """Estimates of another length are blamed by their directory, with both shapes."""
    sim = simulate_tree(tmp_path, seed=11)
    _, refs = read_wav(sim / "refs" / "direct" / "src00.wav")
    estimates = tmp_path / "long"
    estimates.mkdir()
    shape = (2, refs.shape[1] * 3 // 2)
    for i, row in enumerate(0.1 * np.random.default_rng(1).standard_normal(shape)):
        write_wav(estimates / f"est{i:02d}.wav", FS, row)
    capsys.readouterr()
    assert main(["eval", "--refs", str(sim), "--estimates", str(estimates), "--out", str(tmp_path / "scores")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(estimates) in err, err
    assert str(shape) in err and str((2, refs.shape[1])) in err, err
    assert not (tmp_path / "scores").exists()


def test_eval_resolves_a_refs_directory_and_a_flat_directory_of_wavs(tmp_path, capsys):
    """``--refs <room>/refs`` picks the mode's subdirectory and ``<room>/mixture.wav``; a flat
    directory of WAVs is scored as it is, against the ``--mixture`` given. Either way the
    scores are those of ``--refs <room>``."""
    sim = simulate_tree(tmp_path, seed=12)
    flat = tmp_path / "flat"
    flat.mkdir()
    for path in (sim / "refs" / "direct").glob("*.wav"):
        (flat / path.name).write_bytes(path.read_bytes())

    runs = itertools.count()

    def scores(refs, estimates, *flags):
        out = tmp_path / f"scores{next(runs)}"
        assert main(["eval", "--refs", str(refs), "--estimates", str(estimates), "--out", str(out), *flags]) == 0
        return json.loads((out / "metrics.json").read_text())

    for mode, sub in (("direct-path", "direct"), ("anechoic", "anechoic")):
        estimates = sim / "refs" / sub
        want = scores(sim, estimates, "--mode", mode)
        assert want["mode"] == mode and want["si_sdr"] == [DB_CAP] * 2  # scored against refs/<sub>
        assert scores(sim / "refs", estimates, "--mode", mode) == want
    want = scores(sim, sim / "refs" / "direct")
    assert scores(flat, sim / "refs" / "direct", "--mixture", str(sim / "mixture.wav")) == want
    capsys.readouterr()


def test_eval_input_errors_exit_2_with_one_line(tmp_path, capsys):
    sim = simulate_tree(tmp_path, seed=13)
    refs, mixture = sim / "refs" / "direct", str(sim / "mixture.wav")
    empty, uneven, fast = tmp_path / "empty", tmp_path / "uneven", tmp_path / "fast"
    for directory in (empty, uneven, fast):
        directory.mkdir()
    write_wav(uneven / "src00.wav", FS, np.zeros(FS))
    write_wav(uneven / "src01.wav", FS, np.zeros(FS - 1))
    for i in range(2):
        write_wav(fast / f"src{i:02d}.wav", 2 * FS, np.zeros(FS))
    flat = tmp_path / "flat"
    flat.mkdir()
    write_wav(flat / "src00.wav", FS, np.zeros(FS))
    for argv, text in (
        (["--refs", str(empty), "--estimates", str(refs), "--mixture", mixture], f"no WAV files in {empty}"),
        (["--refs", str(sim), "--estimates", str(uneven)], f"{uneven}: mixed signal lengths"),
        (["--refs", str(flat), "--estimates", str(refs)],
         f"mixture WAV not found at {tmp_path / 'mixture.wav'}; pass --mixture"),
        (["--refs", str(sim), "--estimates", str(fast)], "estimates, and mixture have different sample rates"),
    ):
        out = tmp_path / "scores"
        capsys.readouterr()
        assert main(["eval", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and text in err, err
        assert not out.exists()


def test_eval_at_a_rate_too_low_for_the_cepstral_distance_exits_2_with_one_line(tmp_path, capsys):
    """At 40 Hz a 32 ms frame holds one sample: eval names the rate, not a slice step."""
    rng = np.random.default_rng(0)
    room = tmp_path / "room"
    (room / "refs" / "direct").mkdir(parents=True)
    refs = rng.standard_normal((2, 400))
    for i, row in enumerate(refs):
        write_wav(room / "refs" / "direct" / f"src{i:02d}.wav", 40, row)
    write_wav(room / "mixture.wav", 40, refs + 0.1 * rng.standard_normal(refs.shape))
    capsys.readouterr()
    out = tmp_path / "scores"
    assert main(["eval", "--refs", str(room), "--estimates", str(room / "refs" / "direct"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "at 40 Hz the 32 ms frame length 1 is too short for cepstral distance\n" in err, err
    assert not out.exists()


def test_bench_rejects_bad_matrix(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"variants": []}))
    with pytest.raises(ValueError, match=r"^variants must be a non-empty list, got \[\]$"):
        cmd_bench(path, tmp_path / "bench2")
    path.write_text(json.dumps({"variants": ["ilrma-ip"], "metric": 1}))
    with pytest.raises(ValueError, match="unknown matrix keys"):
        cmd_bench(path, tmp_path / "bench2")
    # every run and room setting is checked once, before any cell runs
    for bad, message in (
        ({"hop": 100}, "hop must divide frame_len, got hop=100 frame_len=256"),
        ({"taps": -1}, "taps must be non-negative"),
        ({"iterations": "3"}, "iterations must be int, got '3'"),
        ({"rt60": -1}, "rt60 must be finite and non-negative, got -1"),
        ({"tail_gain": -1}, "tail_gain must be finite and non-negative, got -1"),
        ({"duration": None}, "duration must be a positive finite number, got None"),
        ({"sample_rate": 8000.5}, "sample_rate must be a non-negative int, got 8000.5"),
        ({"metric_every": "2"}, "metric_every must be a positive integer"),
        ({"rt60": "x"}, "rt60 must be a number, got 'x'"),
        ({"snr": True}, "snr must be a number, got True"),
        ({"tail_gain": None}, "tail_gain must be a number, got None"),
        ({"rt60": float("inf")}, "rt60 must be finite and non-negative, got inf"),
        ({"rt60": float("nan")}, "rt60 must be finite and non-negative, got nan"),
        ({"tail_gain": float("inf")}, "tail_gain must be finite and non-negative, got inf"),
        ({"duration": float("inf")}, "duration must be a positive finite number, got inf"),
        ({"duration": float("nan")}, "duration must be a positive finite number, got nan"),
        ({"snr": "x"}, "snr must be a number or 'inf', got 'x'"),
    ):
        path.write_text(json.dumps({"variants": ["ilrma-ip"], **bad}))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cmd_bench(path, tmp_path / "bench2")
        assert main(["bench", str(path), "--out", str(tmp_path / "bench3")]) == 2
        assert not (tmp_path / "bench3" / "curves.csv").exists()
    # each grid axis is a non-empty list; anything else exits 2 naming the key
    for key, bad in (
        ("n_sources", 2), ("seeds", 0), ("seeds", None), ("variants", "ilrma-ip"),
        ("n_sources", []), ("seeds", []), ("variants", []),
    ):
        path.write_text(json.dumps({"variants": ["ilrma-ip"], key: bad}))
        with pytest.raises(ValueError, match=f"^{key} must be a non-empty list"):
            cmd_bench(path, tmp_path / "bench2")
        capsys.readouterr()
        assert main(["bench", str(path), "--out", str(tmp_path / "bench4")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err
        assert not (tmp_path / "bench4").exists()


def test_mono_wav_checks_exit_2(tmp_path, capsys):
    mono8k, mono16k, stereo = tmp_path / "mono8k.wav", tmp_path / "mono16k.wav", tmp_path / "stereo.wav"
    write_wav(mono8k, FS, np.zeros(4000))
    write_wav(mono16k, 2 * FS, np.zeros(8000))
    write_wav(stereo, FS, np.zeros((2, 4000)))

    def fails(argv, out, text):
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and text in err
        assert not out.exists()

    fails(["simulate", "--wav", str(stereo), "--wav", str(mono8k)], tmp_path / "s1", str(stereo))
    fails(["simulate", "--wav", str(mono8k), "--wav", str(mono16k)], tmp_path / "s2", "mixed sample rates")
    sim = simulate_tree(tmp_path, seed=5)
    est_dir = tmp_path / "est"
    est_dir.mkdir()
    write_wav(est_dir / "src00.wav", FS, np.zeros(FS))
    write_wav(est_dir / "src01.wav", FS, np.zeros((2, FS)))
    fails(["eval", "--refs", str(sim), "--estimates", str(est_dir)], tmp_path / "e1", "src01.wav")
    # WAV input must be non-empty and finite
    empty, nan = tmp_path / "empty.wav", tmp_path / "nan.wav"
    write_wav(empty, FS, np.zeros(0))
    write_wav(nan, FS, np.full(4000, np.nan))
    fails(["simulate", "--wav", str(empty), "--wav", str(mono8k)], tmp_path / "s3", str(empty))
    fails(["simulate", "--wav", str(nan), "--wav", str(mono8k)], tmp_path / "s4", str(nan))
    write_wav(est_dir / "src01.wav", FS, np.full(FS, np.nan))
    fails(["eval", "--refs", str(sim), "--estimates", str(est_dir)], tmp_path / "e2", "src01.wav")
    write_wav(est_dir / "src01.wav", FS, np.zeros(FS))
    write_wav(tmp_path / "nanmix.wav", FS, np.full((2, FS), np.nan))
    fails(
        ["eval", "--refs", str(sim), "--estimates", str(est_dir), "--mixture", str(tmp_path / "nanmix.wav")],
        tmp_path / "e3",
        "nanmix.wav",
    )


def test_main_exit_codes(tmp_path, capsys):
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

    # so does a last lag, delay + taps - 1, past it: the last tap rows would be all zero
    capsys.readouterr()
    code = main(
        ["separate", str(sim / "mixture.wav"), "--out", str(tmp_path / "m6"), "--variant", "ilrma-t-ip",
         "--delay", "60", "--taps", "5", "--iterations", "1", "--frame-len", "256", "--hop", "128"]
    )
    assert code == 2
    assert "delay 60 with 5 taps reaches lag 64, beyond the 64 frames" in capsys.readouterr().err

    # non-finite room values exit 2 before anything is written
    for flag in ("--rt60", "--duration", "--tail-gain"):
        for bad in ("inf", "nan"):
            out = tmp_path / f"sim{flag}{bad}"
            assert main(["simulate", "--out", str(out), flag, bad]) == 2
            assert not out.exists()

    # missing input file
    code = main(
        ["separate", str(tmp_path / "nope.wav"), "--out", str(tmp_path / "m3"),
         "--variant", "ilrma-ip", "--iterations", "1"]
    )
    assert code == 4


ZERO_MIXTURE_FAILURES = {
    "ilrma-ip": "singular weighted covariance at frequency bin 0",
    "ilrma-iss": "non-finite demixing filter at frequency bin 0",
    "ilrma-t-ip": "singular weighted covariance at frequency bin 0",
    "ilrma-t-iss-joint": "singular tap normal matrix at frequency bin 0",
    "ilrma-t-iss-seq": "non-finite demixing filter at frequency bin 0",
    "wpe": "singular prediction normal matrix at frequency bin 0",
    "wpe+ilrma-ip": "singular prediction normal matrix at frequency bin 0",
    "wpe+ilrma-iss": "singular prediction normal matrix at frequency bin 0",
}


def _separate_for_60_iterations(path, out, variant, capsys):
    """(exit code, messages of the warnings raised, stderr) of ``drbss separate`` at 256/64."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["separate", str(path), "--out", str(out), "--variant", variant,
                     "--iterations", "60", "--frame-len", "256", "--hop", "64"])
    return code, [str(w.message) for w in caught], capsys.readouterr().err


@pytest.mark.parametrize("variant", sorted(ZERO_MIXTURE_FAILURES))
def test_an_all_zero_mixture_fails_with_one_line(tmp_path, capsys, variant):
    """Every variant ends an all-zero mixture with exit 3 and one stderr line, and no warning.

    The steering sweeps grow the demixing filter by a constant factor per iteration on it
    until the filter overflows (after about 50 iterations at this shape): the step's
    overflow is reported as a non-finite filter instead of a numpy warning."""
    zeros = tmp_path / "zeros.wav"
    write_wav(zeros, FS, np.zeros((2, 20000)))
    code, caught, err = _separate_for_60_iterations(zeros, tmp_path / "sep", variant, capsys)
    assert (code, caught) == (3, [])
    assert err == f"drbss: numerical failure: {ZERO_MIXTURE_FAILURES[variant]}\n"


@pytest.mark.parametrize("variant", ["ilrma-iss", "ilrma-t-iss-joint", "ilrma-t-iss-seq", "wpe+ilrma-iss"])
def test_a_silent_channel_overflows_the_steering_filter_with_one_line(tmp_path, capsys, variant):
    """A mixture whose second channel is silent overflows every steering variant's filter the same way."""
    room = tmp_path / "room"
    cmd_simulate(SyntheticRoomConfig(2, sample_rate=FS, seed=0), room, duration=2.5)
    _, x = read_wav(room / "mixture.wav")
    silent = tmp_path / "silent.wav"
    write_wav(silent, FS, x * [[1], [0]])
    code, caught, err = _separate_for_60_iterations(silent, tmp_path / "sep", variant, capsys)
    assert (code, caught) == (3, [])
    assert err == "drbss: numerical failure: non-finite demixing filter at frequency bin 0\n"


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
    # cells run in one process: there is no worker count to set
    assert _option_strings("bench") == ["-h", "--help", "--out"]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["bench", "m.json", "--out", "o", "--workers", "2"])
    assert exc.value.code == 2
    # run configs written before the unused ``reference`` key was removed
    old_cfg = tmp_path / "old.json"
    old_cfg.write_text(json.dumps({"variant": "ilrma-ip", "reference": "direct-path"}))
    code = main(["separate", str(tmp_path / "x.wav"), "--out", str(tmp_path / "o"), "--config", str(old_cfg)])
    assert code == 2
    assert "unknown config keys: reference" in capsys.readouterr().err


# Bad values for every ``simulate`` and ``separate`` flag and every bench
# matrix key: (argv or matrix, text the one stderr line must contain, with
# dashes read as underscores so a flag matches its key).
# Large sizes are far past any machine's memory, so their first allocation
# fails at once. ``--out`` and a missing input file are I/O failures (exit 4).
BIG = "1000000000000"
FUZZ_SIMULATE = [
    *((["--n-sources", v], "n_sources") for v in ("0", "-1", "5", "x", BIG)),
    *((["--sample-rate", v], "sample_rate") for v in ("0", "-8000", "8000.5")),
    (["--sample-rate", BIG], "allocate"),
    *((["--rt60", v], "rt60") for v in ("-1", "inf", "nan", "x")),
    (["--rt60", "1e12"], "allocate"),
    *((["--snr", v], "snr") for v in ("0", "-1", "nan", "x")),
    *((["--seed", v], "seed") for v in ("-1", "x", "1.5")),
    *((["--duration", v], "duration") for v in ("0", "-1", "inf", "nan", "x")),
    (["--duration", "1e12"], "allocate"),
    *((["--tail-gain", v], "tail_gain") for v in ("-1", "inf", "nan", "x")),
    *((["--max-direct-delay", v], "max_direct_delay") for v in ("-1", "x", BIG)),
]
FUZZ_SEPARATE = [
    (["--variant", "bogus"], "variant"),
    *((["--iterations", v], "iterations") for v in ("-1", "x", "1.5")),
    *((["--taps", v], "taps") for v in ("-1", "x", BIG)),
    *((["--delay", v], "delay") for v in ("0", "-1", "x", BIG)),
    *((["--n-bases", v], "n_bases") for v in ("0", "-1", "x")),
    (["--n-bases", BIG], "allocate"),
    *((["--frame-len", v], "frame_len") for v in ("0", "-256", "300", "x")),
    (["--frame-len", str(2**40)], "shorter than one frame"),
    *((["--hop", v], "hop") for v in ("0", "-1", "100", "x", BIG)),
    *((["--seed", v], "seed") for v in ("-1", "x")),
    *((["--wpe-init-iters", v], "wpe_init_iters") for v in ("-1", "x")),
]
FUZZ_BENCH = [
    *(({"variants": v}, "variant") for v in ("ilrma-ip", [], ["bogus"], None)),
    *(({"n_sources": v}, "n_sources") for v in (2, [], None)),
    *(({"seeds": v}, "seed") for v in (0, [], [-1], ["a"], [1.5])),
    *(({"iterations": v}, "iterations") for v in (-1, "3", 1.5)),
    *(({"metric_every": v}, "metric_every") for v in (0, -1, "2")),
    *(({"duration": v}, "duration") for v in (0, -1, float("inf"), float("nan"), None, "x")),
    *(({"sample_rate": v}, "sample_rate") for v in (0, -1, 8000.5, "x")),
    *(({"frame_len": v}, "frame_len") for v in (0, 300, "x")),
    *(({"hop": v}, "hop") for v in (0, 100, "x")),
    *(({"taps": v}, "taps") for v in (-1, "x")),
    *(({"delay": v}, "delay") for v in (0, -1)),
    *(({"n_bases": v}, "n_bases") for v in (0, -1, "x")),
    *(({"wpe_init_iters": v}, "wpe_init_iters") for v in (-1, "x")),
    *(({"rt60": v}, "rt60") for v in (-1, float("inf"), float("nan"), "x")),
    *(({"snr": v}, "snr") for v in (0, -1, "x", True)),
    *(({"tail_gain": v}, "tail_gain") for v in (-1, float("inf"), None)),
]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_wav(root / "mix.wav", FS, 0.1 * np.random.default_rng(0).standard_normal((2, 4000)))
    write_wav(root / "mono.wav", FS, np.zeros(4000))
    write_wav(root / "empty.wav", FS, np.zeros(0))
    (root / "list.json").write_text("[1]")
    (root / "broken.json").write_text("{")
    return root


@pytest.mark.parametrize(
    "command, bad, text",
    [("simulate", argv, text) for argv, text in FUZZ_SIMULATE]
    + [("separate", ["{root}/mix.wav", *argv], text) for argv, text in FUZZ_SEPARATE]
    + [("bench", matrix, text) for matrix, text in FUZZ_BENCH]
    + [
        ("simulate", ["--wav", "{root}/empty.wav", "--wav", "{root}/empty.wav"], "empty.wav"),
        ("simulate", ["--n-sources", "2", "--wav", "{root}/mono.wav"], "expected 2 source WAVs"),
        ("separate", ["{root}/empty.wav"], "empty.wav"),
    ]
    + [(cmd, [*mix, "--config", f"{{root}}/{name}.json"], name)
       for cmd, mix in (("simulate", []), ("separate", ["{root}/mix.wav"])) for name in ("list", "broken")]
    # a room too large to allocate fails the matrix, not each cell
    + [("bench", {"duration": 1e12}, "allocate")],
)
def test_every_bad_flag_or_matrix_value_exits_2_with_one_line(tmp_path, capsys, fuzz_inputs, command, bad, text):
    out = tmp_path / "out"
    if command == "bench":
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps({"variants": ["ilrma-ip"]} | bad))
        argv = ["bench", str(matrix)]
    else:  # later flags override the short, low-rate default room
        room = ["--sample-rate", str(FS), "--duration", "0.5"] if command == "simulate" else []
        argv = [command, *room, *(a.replace("{root}", str(fuzz_inputs)) for a in bad)]
    capsys.readouterr()
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.count("\n") == 1, err
    assert text in err.replace("-", "_")
    assert not out.exists()
