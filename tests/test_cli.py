import functools
import itertools
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from meanfield import cli
from meanfield.cli import cmd_chaos_curve, cmd_metric, cmd_omega_n, cmd_simulate, main
from meanfield.config import (
    dump_particles,
    load_particles,
    parse_config_text,
    render_value,
    write_csv,
)
from meanfield.core import EmpiricalMeasure, ParticleState
from meanfield.mckean import VlasovSpec, gradient_catalog, simulate_vlasov
from meanfield.metrics import h_neg_sobolev_norm, toscani_norm
from oracles import format_config


def read_csv_header(text: str) -> dict:
    """The ``# key = value`` header block of a CSV written by write_csv, parsed."""
    lines = []
    for line in text.splitlines():
        if not line.startswith("#"):
            break
        lines.append(line[1:])
    return parse_config_text("\n".join(lines))


def test_config_round_trip():
    text = """
# an experiment
model = kac_elastic
dimension = 3
n = 100
alpha = 0.8
snapshot_times = 0.5, 1.0, 2.0
ordered_pair_rate = true
kernel = isotropic
"""
    cfg = parse_config_text(text)
    assert cfg["model"] == "kac_elastic"
    assert cfg["n"] == 100 and isinstance(cfg["n"], int)
    assert cfg["alpha"] == 0.8 and isinstance(cfg["alpha"], float)
    assert cfg["snapshot_times"] == [0.5, 1.0, 2.0]
    assert cfg["ordered_pair_rate"] is True
    # canonical echo re-parses to the same dict
    assert parse_config_text(format_config(cfg)) == cfg


def test_render_value_floats_17_digits():
    x = 1.0 / 3.0
    assert render_value(x) == f"{x:.17g}"
    assert float(render_value(x)) == x  # lossless round trip


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ValueError, match="key = value"):
        parse_config_text("model kac\n")


def test_write_and_read_csv(tmp_path):
    path = tmp_path / "out.csv"
    text = write_csv(
        path,
        [("alpha", 0.8), ("tags", [1, 2, 3])],
        ["a", "b"],
        [[1, 0.5], [2, 0.25]],
        [("slope", -1.0)],
    )
    assert path.read_text() == text
    hdr = read_csv_header(text)
    assert hdr["alpha"] == 0.8 and hdr["tags"] == [1, 2, 3]
    assert "a,b\n" in text and text.rstrip().endswith("# slope = -1")


def test_particle_file_round_trip(tmp_path):
    coords = np.random.default_rng(0).normal(size=(17, 3))
    p = tmp_path / "parts.txt"
    dump_particles(p, coords)
    back = load_particles(p)
    np.testing.assert_array_equal(back, coords)


SIM_CFG = {
    "model": "kac_elastic",
    "dimension": 3,
    "n": 64,
    "t_end": 1.0,
    "snapshot_times": [0.5, 1.0],
    "initial": "gaussian",
    "initial_mean": 0.0,
    "initial_variance": 1.0,
    "master_seed": 11,
}


def test_cmd_simulate_deterministic_and_echo_round_trip(tmp_path):
    a = cmd_simulate(dict(SIM_CFG), 11, 1, None)
    b = cmd_simulate(dict(SIM_CFG), 11, 4, None)
    assert a == b
    c = cmd_simulate(dict(SIM_CFG), 12, 1, None)
    assert a != c
    # rerunning the echoed config reproduces the bytes
    hdr = read_csv_header(a)
    echoed = {k: v for k, v in hdr.items()
              if k in SIM_CFG or k in ("master_seed",)}
    a2 = cmd_simulate(echoed, int(hdr["master_seed"]), 1, None)
    assert a2 == a


THERMO_CFG = {
    "model": "inelastic_thermostat", "dimension": 3, "n": 32,
    "alpha": 0.8, "nu": 1.0, "t_end": 0.5, "snapshot_times": [0.5],
    "initial_variance": 2.0,
}
MKV_CFG = {
    "model": "mckean_vlasov", "dimension": 1, "n": 128, "dt": 0.01,
    "drift_lambda": 1.0, "sigma": 1.0, "interaction": "linear",
    "interaction_kappa": 1.0, "t_end": 0.5, "snapshot_times": [0.25, 0.5],
}
VLASOV_CFG = {
    "model": "vlasov", "dimension": 1, "n": 64, "dt": 0.01,
    "potential_gradient": "sine", "gradient_amp": 1.0,
    "initial": "quantile", "quantile_law": "uniform",
    "t_end": 0.5, "snapshot_times": [0.5],
}
TWO_POINT_CFG = {"model": "kac_elastic", "dimension": 1, "n": 16, "kernel": "two_point",
                 "kernel_weights": [0.25, 0.75], "t_end": 0.5, "snapshot_times": [0.0, 0.5]}


def test_cmd_simulate_models(tmp_path):
    out = cmd_simulate(dict(THERMO_CFG), 3, 1, None)
    assert "temperature" in out
    out = cmd_simulate(dict(MKV_CFG), 3, 1, None)
    assert out.count("\n") > 3
    vl = dict(VLASOV_CFG)
    out1 = cmd_simulate(vl, 3, 1, None)
    out2 = cmd_simulate(vl, 3, 1, None)
    assert out1 == out2  # fully deterministic model
    # Gaussian quantiles: positions at F^{-1}((j - 1/2)/n), velocities at rest
    out = tmp_path / "vl.csv"
    cmd_simulate({**vl, "quantile_law": "gaussian", "quantile_variance": 4.0,
                  "snapshot_times": [0.0], "dump_particles": True}, 3, 1, str(out))
    x0 = load_particles(str(out) + ".particles.txt")
    np.testing.assert_allclose(x0[:, 0], 2.0 * ndtri((np.arange(64) + 0.5) / 64), rtol=1e-15)
    np.testing.assert_array_equal(x0[:, 1], 0.0)
    # the d = 1 two-point kernel keeps the energy of every collision
    text = cmd_simulate(dict(TWO_POINT_CFG), 3, 1, None)
    assert read_csv_header(text)["kernel_weights"] == [0.25, 0.75]
    (_, temp0, _), (_, temp1, _) = [map(float, ln.split(",")) for ln in text.splitlines()[-2:]]
    assert temp1 == pytest.approx(temp0, rel=1e-12)
    # initial = file takes the first n particles of the file
    parts = np.random.default_rng(4).normal(size=(12, 3))
    dump_particles(tmp_path / "parts.txt", parts)
    out = tmp_path / "file.csv"
    cmd_simulate({**SIM_CFG, "n": 8, "initial": "file", "initial_file": str(tmp_path / "parts.txt"),
                  "snapshot_times": [0.0], "dump_particles": True}, 3, 1, str(out))
    np.testing.assert_array_equal(load_particles(str(out) + ".particles.txt"), parts[:8])


def test_cmd_metric(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    dump_particles(a, np.array([[0.0], [2.0]]))
    dump_particles(b, np.array([[1.0], [3.0]]))
    cfg = {"metric": "w1", "input_a": str(a), "input_b": str(b)}
    text = cmd_metric(cfg, 0, 1, None)
    assert "w1,1," in text.replace(" ", "")
    cfg["metric"] = "w2_exact"
    text = cmd_metric(cfg, 0, 1, None)
    assert "w2_exact,1," in text
    cfg["metric"] = "w2_sliced"
    t1 = cmd_metric(cfg, 5, 1, None)
    t2 = cmd_metric(cfg, 5, 8, None)
    assert t1 == t2
    cfg.update({"metric": "tv", "bin_edges": [0.0, 1.0, 2.0, 3.0, 4.0]})
    text = cmd_metric(cfg, 0, 1, None)
    assert "tv,2,0" in text  # atoms land in disjoint bins: maximal TV


@pytest.mark.parametrize("metric", ["toscani", "h_sobolev"])
def test_cmd_metric_fourier_norms_equal_the_library(tmp_path, metric):
    # the command reads the grid and the order from the config and reports
    # the library's value on the measures of its input files
    rng = np.random.default_rng(5)
    dump_particles(tmp_path / "a.txt", rng.normal(size=(16, 1)))
    dump_particles(tmp_path / "b.txt", rng.normal(0.5, 1.5, size=(12, 1)))
    cfg = {"metric": metric, "input_a": str(tmp_path / "a.txt"),
           "input_b": str(tmp_path / "b.txt"), "xi_max": 12.0, "xi_nodes": 301}
    text = cmd_metric(cfg, 0, 1, None)
    a, b = (EmpiricalMeasure(load_particles(tmp_path / f"{k}.txt")) for k in "ab")
    xi = np.linspace(-12.0, 12.0, 301)
    name, value, se = text.splitlines()[-1].split(",")
    if metric == "toscani":
        want, arg = toscani_norm(a, b, 3.0, xi)
        assert read_csv_header(text)["argmax_xi"] == arg
    else:
        want = h_neg_sobolev_norm(a, b, 1.0, xi)
    assert (name, float(value), float(se)) == (metric, want, 0.0) and want > 0.0


def test_cmd_simulate_vlasov_reads_gradient_kappa(tmp_path):
    # the linear potential gradient takes its strength from gradient_kappa
    cfg = {"model": "vlasov", "dimension": 1, "n": 16, "dt": 0.01,
           "potential_gradient": "linear", "gradient_kappa": 2.5, "initial": "quantile",
           "t_end": 0.3, "snapshot_times": [0.3], "dump_particles": True}
    out = tmp_path / "vl.csv"
    text = cmd_simulate(cfg, 3, 1, str(out))
    assert read_csv_header(text)["gradient_kappa"] == 2.5
    x0 = np.zeros((16, 2))
    x0[:, 0] = -1.0 + 2.0 * ((np.arange(16) + 0.5) / 16)  # uniform quantiles on [-1, 1]
    spec = VlasovSpec(1, gradient_catalog("linear", kappa=2.5))
    (want,) = simulate_vlasov(ParticleState(x0), spec, 0.3, 0.01, [0.3])
    np.testing.assert_array_equal(load_particles(str(out) + ".particles.txt"), want.coords)


CURVE_CFG = {
    "model": "kac_elastic",
    "dimension": 3,
    "n_list": [8, 16],
    "n_ref": 256,
    "replicas": 6,
    "replicas_ref": 4,
    "snapshot_times": [0.5, 1.0],
    "observable": "gauss_bump",
    "observable_center": [0.0, 0.0, 0.0],
    "observable_width": 1.0,
    "initial_variance": 1.0,
    "master_seed": 21,
}


def test_cmd_chaos_curve_worker_independence():
    a = cmd_chaos_curve(dict(CURVE_CFG), 21, 1, None)
    b = cmd_chaos_curve(dict(CURVE_CFG), 21, 3, None)
    assert a == b
    assert "N,error,std_error" in a
    assert "fit_refused" in a or "fitted_slope" in a


def _pool_matches_serial(monkeypatch, cfg):
    """The chaos-curve CSV of cfg at --workers 1 and 2, with the pool seen to run."""
    calls = []
    ordered_map = cli.ordered_map

    def spy(fn, tasks, workers=1):
        calls.append((workers, len(tasks)))
        return ordered_map(fn, tasks, workers)

    monkeypatch.setattr(cli, "ordered_map", spy)
    serial = cmd_chaos_curve(dict(cfg), 21, 1, None)
    assert max(n for _, n in calls) >= 2
    calls.clear()
    pooled = cmd_chaos_curve(dict(cfg), 21, 2, None)
    assert any(w >= 2 and n >= 2 for w, n in calls)
    assert pooled == serial


def test_cmd_chaos_curve_worker_pool_matches_serial(monkeypatch):
    # N = 8192 fills a 16,384-particle block with 2 replicas, so 12 replicas
    # make 6 blocks and --workers 2 hands them to the pool
    _pool_matches_serial(monkeypatch, {**CURVE_CFG, "n_list": [2048, 8192], "n_ref": 16 * 8192,
                                       "replicas": 12, "replicas_ref": 1,
                                       "snapshot_times": [0.05]})


def test_cmd_chaos_curve_thermostat_blocks_match_across_workers(monkeypatch):
    # N = 4096 fills a block with 4 replicas: 12 replicas make 3 stacked
    # thermostat blocks, each replica drawing its bath from its own stream
    _pool_matches_serial(monkeypatch, {**CURVE_CFG, "model": "inelastic_thermostat",
                                       "alpha": 0.8, "n_list": [1024, 4096],
                                       "n_ref": 16 * 4096, "replicas": 12, "replicas_ref": 1,
                                       "snapshot_times": [0.02, 0.05]})


def test_cmd_chaos_curve_mckean_blocks_match_across_workers(monkeypatch):
    # 12 McKean-Vlasov replicas make 2 stacked blocks at N = 2048 and 6 at
    # N = 8192, each replica drawing its noise from its own stream
    _pool_matches_serial(monkeypatch, {**CURVE_CFG, "model": "mckean_vlasov", "dimension": 1,
                                       "interaction": "linear", "drift_lambda": 0.5,
                                       "sigma": 1.0, "dt": 0.01, "observable_center": [0.0],
                                       "n_list": [2048, 8192], "n_ref": 16 * 8192,
                                       "replicas": 12, "replicas_ref": 1,
                                       "snapshot_times": [0.02, 0.05]})


def test_chaos_curve_block_task_pickles():
    # tasks carry the resolved run, so they run under any start method
    cfg = cli._Cfg(dict(CURVE_CFG), "chaos-curve")
    run = cli._resolve_run(cfg, 256)
    task = functools.partial(cli._curve_block, run, cli._build_observable(cfg, run.m),
                             "empirical-mean", 21)
    block = (8, [1_000_000, 1_000_001, 1_000_002])
    copy = pickle.loads(pickle.dumps(task))
    for (va, sa, da), (vb, sb, db) in zip(task(block), copy(block)):
        np.testing.assert_array_equal(va, vb)
        assert (sa, da) == (sb, db)


def test_main_simulation_error_exits_two(tmp_path, capsys):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("model = kac_elastic\ndimension = 3\nn = 1\nsnapshot_times = 1.0\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("model, field, value, message", [
    ("vlasov", "dt", 0.0, "dt must be positive"),
    ("vlasov", "dt", -0.1, "dt must be positive"),
    ("mckean_vlasov", "snapshot_times", [-0.5, 1.0], "must lie in \\[start, t_end\\]"),
    ("vlasov", "snapshot_times", [-0.5, 1.0], "must lie in \\[start, t_end\\]"),
    ("mckean_vlasov", "snapshot_times", [1.0, 0.5], "sorted ascending"),
])
def test_fixed_step_snapshot_contract_exits_two(tmp_path, capsys, model, field, value, message):
    # the fixed-step integrators refuse what kac_elastic refuses, and a
    # non-positive step, instead of dropping rows or overflowing
    cfg = {"model": model, "dimension": 1, "n": 8, "dt": 0.1,
           "snapshot_times": [0.5, 1.0], field: value}
    with pytest.raises(ValueError, match=message):
        cmd_simulate(dict(cfg), 0, 1, None)
    path = tmp_path / "bad.cfg"
    path.write_text(format_config(cfg))
    out = tmp_path / "bad.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cmd_chaos_curve_nref_guard():
    cfg = dict(CURVE_CFG)
    cfg["n_ref"] = 64
    with pytest.raises(Exception, match="16x"):
        cmd_chaos_curve(cfg, 0, 1, None)


def test_cmd_chaos_curve_rejects_unknown_estimator(tmp_path, capsys):
    cfg = dict(CURVE_CFG)
    cfg["estimator"] = "marginall"
    with pytest.raises(cli.ConfigError, match="unknown estimator 'marginall'"):
        cmd_chaos_curve(cfg, 0, 1, None)
    path = tmp_path / "typo.cfg"
    path.write_text(format_config(cfg))
    assert main(["chaos-curve", "--config", str(path)]) == 2
    assert "unknown estimator 'marginall'" in capsys.readouterr().err


@pytest.mark.parametrize("command, field", [
    ("chaos-curve", "replicas"),
    ("chaos-curve", "replicas_ref"),
    ("chaos-curve", "n_list"),
    ("omega-n", "replicas"),
    ("omega-n", "n_projections"),
    ("omega-n", "n_list"),
])
def test_counts_below_one_refused(tmp_path, capsys, command, field):
    if command == "chaos-curve":
        cfg = dict(CURVE_CFG)
    else:
        cfg = {"dimension": 2, "n_list": [8, 16], "replicas": 8}
    cfg[field] = [0, 16] if field == "n_list" else 0
    with pytest.raises(cli.ConfigError, match=f"'{field}': must be at least 1, got 0"):
        cli._COMMANDS[command](dict(cfg), 0, 1, None)
    path = tmp_path / "zero.cfg"
    path.write_text(format_config(cfg))
    assert main([command, "--config", str(path)]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err


OMEGA_D3 = {"dimension": 3, "n_list": [8, 16], "replicas": 4}
KAC_D3 = {"model": "kac_elastic", "dimension": 3, "n": 8, "snapshot_times": [0.5]}
KAC_D1 = {**KAC_D3, "dimension": 1}


@pytest.mark.parametrize("command, cfg, field", [
    # per-coordinate lists hold one value or one per coordinate
    ("omega-n", {**OMEGA_D3, "law_mean": [0.0, 0.0], "law_variance": [1.0, 1.0]}, "law_mean"),
    ("omega-n", {**OMEGA_D3, "law_variance": [1.0, 1.0]}, "law_variance"),
    ("simulate", {**KAC_D3, "initial_mean": [0.0, 0.0, 0.0], "initial_variance": [1.0, 2.0]},
     "initial_variance"),
    # quantile data fill one coordinate, so vlasov needs dimension = 1
    ("simulate", {"model": "vlasov", "dimension": 2, "n": 8, "initial": "quantile",
                  "snapshot_times": [0.5]}, "initial"),
    # the center of a product observable is a per-coordinate list too
    ("chaos-curve", {**CURVE_CFG, "observable_center": [0.0, 0.0]}, "observable_center"),
    # the law's parameters are refused before any sampling, where a NaN
    # variance would give a CSV of NaN
    ("omega-n", {**OMEGA_D3, "law_variance": np.nan}, "law_variance"),
    ("simulate", {**KAC_D3, "kernel": "two_point", "kernel_weights": [0.5, 0.5]}, "kernel"),
    # an initial_file entry is the particle array the test writes to a file
    ("simulate", {**KAC_D3, "initial": "file", "initial_file": np.zeros((8, 2))},
     "initial_file"),
    ("simulate", {**KAC_D3, "initial": "file", "initial_file": np.zeros((4, 3))},
     "initial_file"),
    # one replica gives every row a standard error of 0 and the fit a zero-width CI
    ("omega-n", {"dimension": 2, "n_list": [16, 64, 256, 1024], "replicas": 1}, "replicas"),
    ("chaos-curve", {**CURVE_CFG, "replicas": 1}, "replicas"),
    # the estimator is refused before the reference is drawn
    ("omega-n", {**OMEGA_D3, "estimator": "exact"}, "estimator"),
    ("omega-n", {**OMEGA_D3, "estimator": "exact-1d"}, "estimator"),
    ("omega-n", {**OMEGA_D3, "law_mean": np.inf}, "law_mean"),
    ("omega-n", {**OMEGA_D3, "law_mean": [0.0, np.nan, 0.0]}, "law_mean"),
    ("omega-n", {**OMEGA_D3, "law_variance": [1.0, np.inf, 1.0]}, "law_variance"),
    ("omega-n", {**OMEGA_D3, "law_variance": -1.0}, "law_variance"),
    # the initial law's parameters likewise: a NaN variance wrote NaN moments
    # and an infinite mean ended in a blow-up that named no field
    ("simulate", {**KAC_D3, "initial_variance": np.nan}, "initial_variance"),
    ("simulate", {**KAC_D3, "initial_variance": [1.0, -1.0, 1.0]}, "initial_variance"),
    ("simulate", {**KAC_D3, "initial_mean": [0.0, np.nan, 0.0]}, "initial_mean"),
    ("simulate", {"model": "mckean_vlasov", "dimension": 1, "n": 8, "dt": 0.01,
                  "snapshot_times": [0.01], "initial_mean": np.inf}, "initial_mean"),
    ("chaos-curve", {**CURVE_CFG, "initial_variance": np.inf}, "initial_variance"),
    # a projection count below 1 is refused on its field, as omega-n refuses it;
    # input_a and input_b entries are particle arrays written to files
    ("metric", {"metric": "w2_sliced", "input_a": np.zeros((4, 2)), "input_b": np.ones((4, 2)),
                "n_projections": 0}, "n_projections"),
    # counts are whole numbers: a fraction or a boolean is refused, not truncated
    ("simulate", {**KAC_D3, "n": 2.5}, "n"),
    ("simulate", {**KAC_D3, "dimension": 3.5}, "dimension"),
    ("omega-n", {**OMEGA_D3, "dimension": True}, "dimension"),
    ("omega-n", {**OMEGA_D3, "dimension": "three"}, "dimension"),
    ("chaos-curve", {**CURVE_CFG, "n_ref": 256.5}, "n_ref"),
    ("chaos-curve", {**CURVE_CFG, "n_list": [8, 16.5]}, "n_list"),
    ("omega-n", {**OMEGA_D3, "n_list": [8, True]}, "n_list"),
    ("chaos-curve", {**CURVE_CFG, "replicas": 6.5}, "replicas"),
    ("chaos-curve", {**CURVE_CFG, "replicas_ref": True}, "replicas_ref"),
    ("omega-n", {**OMEGA_D3, "n_projections": 1.5}, "n_projections"),
    ("metric", {"metric": "toscani", "input_a": np.zeros((4, 1)), "input_b": np.ones((4, 1)),
                "xi_nodes": 64.5}, "xi_nodes"),
    # an empty or non-numeric snapshot time is refused on its field
    ("simulate", {**KAC_D3, "snapshot_times": ""}, "snapshot_times"),
    ("simulate", {**KAC_D3, "snapshot_times": [0.5, "later"]}, "snapshot_times"),
    ("chaos-curve", {**CURVE_CFG, "snapshot_times": "soon"}, "snapshot_times"),
    # an observable's axis lies in the state, and its width and scale are
    # positive: -1 was taken as the last axis, 3 an IndexError, 0 a division
    # by zero, and a negative value made the certified norms negative
    ("chaos-curve", {**CURVE_CFG, "observable": "tanh_coord", "observable_axis": 3},
     "observable_axis"),
    ("chaos-curve", {**CURVE_CFG, "observable": "tanh_coord", "observable_axis": -1},
     "observable_axis"),
    ("chaos-curve", {**CURVE_CFG, "observable": "tanh_square", "observable_scale": 0.0},
     "observable_scale"),
    ("chaos-curve", {**CURVE_CFG, "observable": "tanh_coord", "observable_scale": -1.0},
     "observable_scale"),
    ("chaos-curve", {**CURVE_CFG, "observable_width": 0.0}, "observable_width"),
    ("chaos-curve", {**CURVE_CFG, "observable_width": -2.0}, "observable_width"),
    # a d = 1 kernel is two masses: one value was an IndexError, a third ignored
    ("simulate", {**KAC_D1, "kernel": "two_point", "kernel_weights": [1.0]}, "kernel_weights"),
    ("simulate", {**KAC_D1, "kernel": "two_point", "kernel_weights": [0.2, 0.3, 0.5]},
     "kernel_weights"),
    # a dimension below 1 was a division by zero
    ("simulate", {**KAC_D3, "dimension": 0}, "dimension"),
    ("omega-n", {**OMEGA_D3, "dimension": 0}, "dimension"),
    ("chaos-curve", {**CURVE_CFG, "dimension": -1}, "dimension"),
    # a negative quantile variance was a math domain error that named no field
    ("simulate", {**KAC_D1, "initial": "quantile", "quantile_law": "gaussian",
                  "quantile_variance": -1.0}, "quantile_variance"),
    # NaN fails every < test: a NaN t_end ran without collisions, a NaN bath
    # strength turned the bath off, a NaN step read every snapshot at step 0,
    # and an infinite t_end overflowed; NaN coefficients ended in a blow-up
    ("simulate", {**KAC_D3, "t_end": np.nan}, "t_end"),
    ("simulate", {**KAC_D3, "t_end": np.inf}, "t_end"),
    ("simulate", {**KAC_D3, "snapshot_times": np.nan}, "snapshot_times"),
    ("simulate", {**THERMO_CFG, "nu": np.nan}, "nu"),
    ("simulate", {**THERMO_CFG, "nu": np.inf}, "nu"),
    ("simulate", {**MKV_CFG, "dt": np.nan}, "dt"),
    ("simulate", {**MKV_CFG, "dt": np.inf}, "dt"),
    ("simulate", {**TWO_POINT_CFG, "kernel_weights": [np.nan, 0.5]}, "kernel_weights"),
    ("simulate", {**MKV_CFG, "sigma": np.nan}, "sigma"),
    ("simulate", {**VLASOV_CFG, "quantile_lo": np.nan}, "quantile_lo"),
    ("simulate", {**MKV_CFG, "drift_lambda": "abc"}, "drift_lambda"),
    ("simulate", {**KAC_D3, "n": 0}, "n"),
    ("simulate", {**KAC_D3, "n": -3}, "n"),
    # bool("no") is True: a word in a boolean field ran as true
    ("simulate", {**MKV_CFG, "n_minus_one_prefactor": "no"}, "n_minus_one_prefactor"),
    ("simulate", {**THERMO_CFG, "ordered_pair_rate": "maybe"}, "ordered_pair_rate"),
    # refusals that depend on two fields or an ordering name their field
    # too, not only the library's guards: a collision needs two particles,
    # an Euler step lands on every snapshot, and snapshots lie in [0, t_end]
    ("simulate", {**KAC_D3, "n": 1}, "n"),
    ("simulate", {**THERMO_CFG, "n": 1}, "n"),
    ("chaos-curve", {**CURVE_CFG, "n_list": [1, 8]}, "n_list"),
    ("simulate", {**MKV_CFG, "dt": 0.3, "snapshot_times": [0.5]}, "snapshot_times"),
    ("simulate", {**KAC_D3, "snapshot_times": [0.5], "t_end": 0.25}, "snapshot_times"),
    ("simulate", {**KAC_D3, "snapshot_times": [0.5], "t_end": 0.0}, "snapshot_times"),
    ("simulate", {**KAC_D3, "snapshot_times": [0.5, 0.25]}, "snapshot_times"),
    ("chaos-curve", {**CURVE_CFG, "snapshot_times": -1.0}, "snapshot_times"),
    ("metric", {"metric": "tv", "input_a": np.zeros((4, 1)), "input_b": np.ones((4, 1)),
                "bin_edges": [-1.0, 0.0, 1.0, 1.0]}, "bin_edges"),
    ("simulate", {**TWO_POINT_CFG, "kernel_weights": [0.0, 0.0]}, "kernel_weights"),
    ("metric", {"metric": "h_sobolev", "input_a": np.zeros((4, 1)), "input_b": np.ones((4, 1)),
                "s": 0.5}, "s"),
])
def test_config_field_refused(tmp_path, capsys, command, cfg, field):
    for key in ("initial_file", "input_a", "input_b"):
        if key in cfg:
            dump_particles(tmp_path / f"{key}.txt", cfg[key])
            cfg = {**cfg, key: str(tmp_path / f"{key}.txt")}
    with pytest.raises(cli.ConfigError) as err:
        cli._COMMANDS[command](dict(cfg), 0, 1, None)
    assert err.value.field == field
    path = tmp_path / "bad.cfg"
    path.write_text(format_config(cfg))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field '{field}': ") and err.count("\n") == 1


def test_config_error_pickles():
    # a refusal raised in a worker task reaches the parent as itself
    err = cli.ConfigError("n", "must be at least 1, got 0")
    copy = pickle.loads(pickle.dumps(err))
    assert type(copy) is cli.ConfigError and copy.field == "n"
    assert str(copy) == str(err) == "config field 'n': must be at least 1, got 0"


def test_config_integral_float_count_accepted():
    # a whole number written as a float is the count it names, echoed alike
    got = cli.cmd_simulate({**KAC_D3, "n": 8.0, "dimension": 3.0}, 0, 1, None)
    assert got == cli.cmd_simulate(dict(KAC_D3), 0, 1, None)


def test_main_reports_memory_error_as_one_line(monkeypatch, tmp_path, capsys):
    # an allocation too large for the machine is a refusal, exit 2, not a traceback
    def oversize(cfg, seed, workers, out):
        raise MemoryError("Unable to allocate 1.40 TiB for an array with shape "
                          "(64000000000, 3) and data type float64")

    monkeypatch.setitem(cli._COMMANDS, "simulate", oversize)
    path = tmp_path / "big.cfg"
    path.write_text(format_config({**KAC_D3, "n": 64_000_000_000}))
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate 1.40 TiB")
    assert err.count("\n") == 1

    def bare(cfg, seed, workers, out):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "simulate", bare)
    assert main(["simulate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: out of memory: an allocation failed\n"


@pytest.mark.parametrize("missing", ["config", "initial_file", "input_a", "input_b"])
def test_main_reports_missing_file_as_one_line(tmp_path, capsys, missing):
    # a config or data file that is not there is a refusal, exit 2, not a traceback
    gone = str(tmp_path / "gone.txt")
    dump_particles(tmp_path / "a.txt", np.zeros((8, 1)))
    cfg = {"metric": "w1", "input_a": str(tmp_path / "a.txt"), "input_b": str(tmp_path / "a.txt")}
    command = "metric"
    if missing == "initial_file":
        command, cfg = "simulate", {**KAC_D3, "initial": "file", "initial_file": gone}
    elif missing != "config":
        cfg[missing] = gone
    path = tmp_path / "run.cfg"
    path.write_text(format_config(cfg))
    assert main([command, "--config", gone if missing == "config" else str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "gone.txt" in err and err.count("\n") == 1


def test_cmd_omega_n_small():
    # reference_factor is not read (no reference sample is drawn), but a
    # config that sets it still runs and echoes it like any other key
    cfg = {
        "dimension": 1, "n_list": [8, 16], "replicas": 8,
        "reference_factor": 64, "law": "gaussian",
    }
    a = cmd_omega_n(dict(cfg), 7, 1, None)
    b = cmd_omega_n(dict(cfg), 7, 2, None)
    assert a == b
    assert "omega_mean" in a and "estimator_used = exact-1d" in a
    assert "# reference_factor = 64" in a


def test_main_check_exits_zero(capsys):
    assert main(["check", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 5 and "[FAIL]" not in out


def test_main_requires_config_for_simulate():
    with pytest.raises(SystemExit):
        main(["simulate"])


def test_cli_subprocess_entry():
    r = subprocess.run(
        [sys.executable, "-m", "meanfield.cli", "check", "--seed", "3"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0
    assert "[PASS]" in r.stdout


def test_cli_import_defers_optimizer_and_lapack():
    # the optimizer and LAPACK load at their one call site each, not with the CLI
    code = """
import sys
import numpy as np
import meanfield.cli
from meanfield import limits, metrics
from meanfield.core import EmpiricalMeasure
print(sorted(m for m in ("scipy.optimize", "scipy.linalg") if m in sys.modules))
plan = metrics.w2_exact_matching(EmpiricalMeasure(np.array([[0.0], [1.0]])),
                                 EmpiricalMeasure(np.array([[1.0], [0.0]])))
assert plan.cost == 0.0 and plan.assignment.tolist() == [1, 0]
x = np.linspace(-1.0, 1.0, 9)
spline = limits._QuerySpline(x, x[1:-1] + 0.01)
np.testing.assert_allclose(spline((x**2)[:, None] + 0j)[:, 0], (x[1:-1] + 0.01) ** 2)
print(sorted(m for m in ("scipy.optimize", "scipy.linalg") if m in sys.modules))
"""
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["[]", "['scipy.linalg', 'scipy.optimize']"]


VLASOV_CURVE_CFG = {
    "model": "vlasov", "dimension": 1, "n_list": [16, 32], "n_ref": 512, "dt": 0.01,
    "snapshot_times": [0.1, 0.2], "potential_gradient": "sine", "initial": "quantile",
    "observable": "gauss_bump", "observable_center": [0.5, 0.0], "observable_width": 1.0,
}
# one small run per command and model: (command, config, seed)
HEADER_RUNS = {
    "simulate kac_elastic": ("simulate", SIM_CFG, 11),
    "simulate kac_elastic two_point quantile": (
        "simulate", {**TWO_POINT_CFG, "initial": "quantile", "quantile_law": "gaussian"}, 3),
    "simulate inelastic_thermostat": ("simulate", THERMO_CFG, 3),
    "simulate mckean_vlasov": ("simulate", MKV_CFG, 3),
    "simulate vlasov quantile": ("simulate", VLASOV_CFG, 3),
    "chaos-curve kac_elastic": ("chaos-curve", CURVE_CFG, 21),
    "chaos-curve vlasov": ("chaos-curve", VLASOV_CURVE_CFG, 5),
    "omega-n": ("omega-n", OMEGA_D3, 7),
    "metric toscani": ("metric", {"metric": "toscani", "input_a": "a.txt", "input_b": "b.txt"}, 0),
    "metric h_sobolev": ("metric", {"metric": "h_sobolev", "input_a": "a.txt",
                                    "input_b": "b.txt", "xi_nodes": 301}, 0),
}
HEADER_GOLDEN = Path(__file__).with_name("cli_headers.golden")


def cli_header_blocks() -> str:
    """The header lines of every HEADER_RUNS run, one labelled block each.

    Runs in the current directory, where it writes the metric inputs.
    """
    rng = np.random.default_rng(5)
    dump_particles("a.txt", rng.normal(size=(16, 1)))
    dump_particles("b.txt", rng.normal(0.5, 1.5, size=(12, 1)))
    blocks = []
    for label, (command, cfg, seed) in HEADER_RUNS.items():
        text = cli._COMMANDS[command](dict(cfg), seed, 1, None)
        lines = itertools.takewhile(lambda ln: ln.startswith("#"), text.splitlines())
        blocks.append("\n".join([f"[{label}]", *lines]) + "\n")
    return "\n".join(blocks)


def test_cli_header_lines_are_pinned(tmp_path, monkeypatch):
    # explicit keys, the defaults each run reads, the estimator, the
    # observable tag and the draw accounting, line for line
    monkeypatch.chdir(tmp_path)
    assert cli_header_blocks() == HEADER_GOLDEN.read_text()



# the command scripts/run_experiments.sh runs each scripts/configs file with
SCRIPT_COMMANDS = {"elastic_chaos_curve": "chaos-curve", "omega_gaussian_d3": "omega-n",
                   "thermostat_plateau": "simulate", "vlasov_doubling": "chaos-curve"}
SCRIPT_CONFIGS = sorted((Path(__file__).parents[1] / "scripts" / "configs").glob("*.cfg"))


def _shrunk(cfg: dict) -> dict:
    """cfg with its counts capped, never raised, and its run cut to t <= 0.1."""
    small = dict(cfg)
    for key, cap in (("n", 16), ("n_ref", 256), ("replicas", 4), ("replicas_ref", 2)):
        if key in small:
            small[key] = min(small[key], cap)
    if "n_list" in small:
        small["n_list"] = [min(n, 8 * 2**k) for k, n in enumerate(small["n_list"][:2])]
    if "snapshot_times" in small:
        small["snapshot_times"] = [0.05, 0.1]
    if "t_end" in small:
        small["t_end"] = 0.1
    return small


MUTATED_RUNS = [
    *[(command, _shrunk(cfg)) for command, cfg, _ in HEADER_RUNS.values()],
    *[(SCRIPT_COMMANDS[path.stem], _shrunk(parse_config_text(path.read_text())))
      for path in SCRIPT_CONFIGS],
    ("metric", {"metric": "w2_sliced", "n_projections": 8, "input_a": "a.txt", "input_b": "b.txt"}),
    ("metric", {"metric": "tv", "bin_edges": [-1.0, 0.0, 1.0], "input_a": "a.txt",
                "input_b": "b.txt"}),
]


def _mutations(value) -> list[str]:
    """Config-file values for one field: non-finite, zero, negative, empty, a
    word, an empty list and a list one value longer."""
    values = value if isinstance(value, list) else [value]
    return ["nan", "inf", "-inf", "0", "-1", "", "bogus", ",", render_value(values + values[-1:])]


def test_mutated_config_field_exits_zero_or_two(tmp_path, monkeypatch):
    # one field of a working config set to a bad value: the run completes or
    # refuses with exit 2, and never escapes main as a traceback
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(5)
    dump_particles("a.txt", rng.normal(size=(16, 1)))
    dump_particles("b.txt", rng.normal(0.5, 1.5, size=(12, 1)))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def check(data):
        command, cfg = data.draw(st.sampled_from(MUTATED_RUNS))
        field = data.draw(st.sampled_from(sorted(cfg)))
        mutation = data.draw(st.sampled_from(_mutations(cfg[field])))
        path = tmp_path / "mutated.cfg"
        path.write_text(f"{format_config(cfg)}\n{field} = {mutation}\n")
        assert main([command, "--config", str(path)]) in (0, 2)

    check()
