"""The benchmark's tooling still fits `lvio`, checked without running it.

`benchmark/run.py --trace 1` replaces functions and methods under the names
their callers look them up by; a rename in `src/lvio` that drops one of
them breaks that run. One test installs every wrapper on a fresh tracer
and removes them again. The `vio_calib` workload strips the LiDAR data
from its inputs with `workloads.strip_lidar`; another test reads and runs
such a directory.
"""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np

from lvio import io
from lvio.cli import run_estimator
from lvio.estimator import EstimatorConfig
from lvio.simulate import simulate_scenario

BENCH = Path(__file__).resolve().parents[1] / "benchmark"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_tracing_wraps_and_restores_every_traced_name():
    env = dict(os.environ)
    try:
        run = _load("run")  # sets the BLAS thread variables on import
        tracer = _load("tracing").Tracer()
        run.install_tracing(tracer)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, orig in patches:
            assert _current(owner, attr) is not orig, attr
        tracer.unwrap_all()
        for owner, attr, orig in patches:
            assert _current(owner, attr) is orig, attr
    finally:
        for key in set(os.environ) - set(env):
            del os.environ[key]
        os.environ.update(env)


def test_stripped_lidar_inputs_read_without_depth_and_run_in_vio_mode(tmp_path):
    simulate_scenario({"trajectory": "wiggle", "duration": 1.0, "seed": 3,
                       "imu_rate": 100, "cam_rate": 5, "lidar_rate": 5,
                       "n_billboards": 10, "n_landmarks": 300, "points_per_patch": 4,
                       "pixel_sigma": 0.5, "range_sigma": 0.01}, tmp_path)
    frames = io.read_features_csv(tmp_path / "features.csv")
    assert any(np.isfinite(rows[:, 5]).any() for _, _, rows in frames)

    _load("workloads").strip_lidar(tmp_path)
    assert not (tmp_path / "clusters.csv").exists()
    stripped = io.read_features_csv(tmp_path / "features.csv")
    assert [(s, f, len(r)) for s, f, r in stripped] == [(s, f, len(r)) for s, f, r in frames]
    for (_, _, rows), (_, _, before) in zip(stripped, frames):
        assert np.isnan(rows[:, 5:]).all()
        np.testing.assert_array_equal(rows[:, :5], before[:, :5])

    est = run_estimator(tmp_path, mode="vio",
                        config=EstimatorConfig(window_size=4, max_tracks=10, max_iterations=2))
    assert len(est.trajectory()) == len(frames)
