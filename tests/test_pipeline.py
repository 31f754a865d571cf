"""End-to-end pipeline and CLI behavior on small synthetic scenarios."""

import numpy as np
import pytest

from lvio import cli, io
from lvio.cli import main, run_estimator
from lvio.estimator import Estimator, EstimatorConfig, IndefiniteSystemError
from lvio.factors import CheiralityError, DegenerateParallaxError, PlaneFitError
from lvio.evaluate import ate_rmse
from lvio.f2m import export_ply
from lvio.geometry import Pose
from lvio.simulate import simulate_scenario


ZERO_NOISE = {
    "trajectory": "wiggle", "duration": 4.0, "seed": 3,
    "imu_rate": 200, "cam_rate": 5, "lidar_rate": 5,
    "lidar_fov_deg": 360, "n_billboards": 12, "n_landmarks": 50,
    "points_per_patch": 5,
}


@pytest.fixture(scope="module")
def zero_noise_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("zn")
    simulate_scenario(dict(ZERO_NOISE), out)
    return out


def run_and_score(data_dir, mode, **cfg_kwargs):
    config = EstimatorConfig(mode=mode, **cfg_kwargs) if cfg_kwargs else None
    est = run_estimator(data_dir, mode=mode, config=config)
    traj = [(o.timestamp, o.pose) for o in est.trajectory()]
    truth = io.read_tum(data_dir / "gt.tum")
    return est, ate_rmse(traj, truth, align=False, tol=1e-6)


# -- consistency: zero noise, zero offsets is a fixed point ------------------------


def test_zero_noise_full_pipeline_recovers_truth(zero_noise_dir):
    est, ate = run_and_score(zero_noise_dir, "full")
    assert ate < 1e-6
    # the solver should agree quickly when the data is self-consistent
    assert np.median([s.iterations for s in est.solve_log]) <= 6


def test_zero_noise_residuals_vanish_at_estimate(zero_noise_dir):
    est, _ = run_and_score(zero_noise_dir, "no_f2m")
    problem = est.build_problem()
    frames = est.window.frames()
    for factor in problem.factors:
        r, _ = factor.evaluate(est.window, frames, False)
        assert np.max(np.abs(r)) < 1e-6, factor.kind


def test_frame_cutoff_ignores_lidar_delay_estimate(zero_noise_dir, monkeypatch):
    """Frames are cut where process_frame's IMU slice ends, at the delay the
    frames were preprocessed with, not at the current LiDAR delay estimate."""
    def config():
        return EstimatorConfig(window_size=3, max_tracks=5, max_iterations=2)

    n_frames = len(run_estimator(zero_noise_dir, mode="vio", config=config()).trajectory())
    process_frame = Estimator.process_frame

    def drifting(self, bundle):
        out = process_frame(self, bundle)
        self.window.lid_ext.dt_br += 0.5  # the estimate wanders upward
        return out

    monkeypatch.setattr(Estimator, "process_frame", drifting)
    est = run_estimator(zero_noise_dir, mode="vio", config=config())
    assert len(est.trajectory()) == n_frames


@pytest.mark.parametrize("mode,tol", [
    ("no_f2m", 1e-6),
    ("marg_f2m", 1e-5),
    ("no_calib", 1e-5),
    ("lio", 1e-4),
    ("vio", 1e-4),
])
def test_zero_noise_modes_recover_truth(zero_noise_dir, mode, tol):
    _, ate = run_and_score(zero_noise_dir, mode)
    assert ate < tol, (mode, ate)


def test_seeded_initial_perturbation_is_absorbed(zero_noise_dir):
    est = run_estimator(zero_noise_dir, mode="full", seed=12345)
    traj = [(o.timestamp, o.pose) for o in est.trajectory()]
    truth = io.read_tum(zero_noise_dir / "gt.tum")
    # the initial-state priors anchor the perturbed frame, so the offset
    # acts as a gauge shift: the shape must survive, and the global offset
    # must stay on the order of the injected centimeter/0.2 deg perturbation
    assert ate_rmse(traj, truth, align=True, tol=1e-6) < 5e-3
    assert ate_rmse(traj, truth, align=False, tol=1e-6) < 0.1


# -- CLI ---------------------------------------------------------------------------


def test_cli_simulate_and_run(tmp_path):
    scen = tmp_path / "scen.cfg"
    io.write_config(scen, dict(ZERO_NOISE, duration=2.0))
    data = tmp_path / "data"
    assert main(["simulate", str(scen), str(data)]) == 0
    for name in ("imu.csv", "features.csv", "clusters.csv", "gt.tum",
                 "init.cfg", "sensor.cfg"):
        assert (data / name).exists(), name

    traj = tmp_path / "est.tum"
    assert main(["run", str(data), "--mode", "full", "--traj", str(traj)]) == 0
    est = io.read_tum(traj)
    assert len(est) >= 9


def test_cli_eval_metrics(tmp_path, capsys):
    scen = tmp_path / "scen.cfg"
    io.write_config(scen, dict(ZERO_NOISE, duration=2.0))
    data = tmp_path / "data"
    main(["simulate", str(scen), str(data)])
    traj = tmp_path / "est.tum"
    main(["run", str(data), "--traj", str(traj)])
    capsys.readouterr()

    assert main(["eval", "ate", str(traj), str(data / "gt.tum")]) == 0
    ate = float(capsys.readouterr().out.strip())
    assert ate < 1e-4

    assert main(["eval", "e2e", str(traj)]) == 0
    float(capsys.readouterr().out.strip())  # parses as a number

    att_out = tmp_path / "att.csv"
    assert main(["eval", "att", str(traj), str(data / "gt.tum"),
                 "--out", str(att_out)]) == 0
    line = capsys.readouterr().out
    assert "yaw_rms_deg=" in line
    assert att_out.read_text().startswith("t,roll_deg,pitch_deg,yaw_deg")


def test_cli_run_reports(tmp_path, capsys):
    scen = tmp_path / "scen.cfg"
    io.write_config(scen, dict(ZERO_NOISE, duration=2.0))
    data = tmp_path / "data"
    main(["simulate", str(scen), str(data)])
    report = tmp_path / "calib.txt"
    yawcsv = tmp_path / "yaw.csv"
    assert main(["run", str(data), "--calib-report", str(report),
                 "--yaw-std", str(yawcsv)]) == 0
    text = report.read_text()
    assert "camera time delay (ms)" in text
    assert "lidar-imu rotation XYZ (deg)" in text
    assert yawcsv.read_text().startswith("t,yaw_std_deg")
    assert len(yawcsv.read_text().splitlines()) > 5


@pytest.mark.parametrize("error", [IndefiniteSystemError, CheiralityError,
                                   DegenerateParallaxError, PlaneFitError])
def test_cli_calib_report_without_stds_when_degenerate(tmp_path, capsys, monkeypatch, error):
    scen = tmp_path / "scen.cfg"
    io.write_config(scen, dict(ZERO_NOISE, duration=1.0))
    data = tmp_path / "data"
    main(["simulate", str(scen), str(data)])

    def degenerate(*args):
        raise error("degenerate information")

    monkeypatch.setattr(cli, "covariance_blocks", degenerate)
    report = tmp_path / "calib.txt"
    assert main(["run", str(data), "--mode", "vio", "--calib-report", str(report)]) == 0
    assert "calibration report without STDs: degenerate information" in capsys.readouterr().err
    text = report.read_text()
    assert "camera time delay (ms)" in text
    assert "std " not in text

    # any other failure is an error of the run, not a report without STDs
    monkeypatch.setattr(cli, "covariance_blocks", lambda *args: 1 / 0)
    assert main(["run", str(data), "--mode", "vio", "--calib-report", str(report)]) == 1
    assert "error: division by zero" in capsys.readouterr().err


def test_cli_colorize(tmp_path, capsys):
    pts = np.array([[0.0, 0.0, 2.0], [0.5, 0.5, 2.0], [0.0, 0.0, -1.0]])
    ply = tmp_path / "map.ply"
    export_ply(pts, ply)
    img = np.full((16, 16, 3), 200, dtype=np.uint8)
    ppm = tmp_path / "img.ppm"
    io.write_ppm(ppm, img)
    cfgp = tmp_path / "cam.cfg"
    io.write_config(cfgp, {"cam_p": "0,0,0", "cam_q": "1,0,0,0", "focal": 8.0})
    out = tmp_path / "colored.ply"
    assert main(["colorize", str(ply), str(ppm), str(cfgp),
                 "--out", str(out)]) == 0
    assert "colorized 2/3 points" in capsys.readouterr().out
    assert out.exists()


def test_cli_bench_f2m(tmp_path, capsys):
    scen = tmp_path / "scen.cfg"
    io.write_config(scen, dict(ZERO_NOISE, duration=3.0))
    data = tmp_path / "data"
    main(["simulate", str(scen), str(data)])
    assert main(["bench-f2m", str(data), "--points", "500",
                 "--repeats", "3"]) == 0
    assert "ms median" in capsys.readouterr().out


def test_cli_errors_exit_nonzero(tmp_path, capsys):
    assert main(["eval", "ate", str(tmp_path / "missing.tum"),
                 str(tmp_path / "missing2.tum")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "nothing")]) == 1
