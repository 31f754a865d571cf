import math
from pathlib import Path

import numpy as np
import pytest

from lvio.geometry import log_map, quat_conjugate, quat_multiply
from lvio.imu import GRAVITY_W, integrate, mechanize
from lvio.simulate import (
    Channel,
    DiscreteTruth,
    SensorConfig,
    TrajectorySpec,
    WorldModel,
    _add_imu_noise,
    make_circle_spec,
    make_wiggle_spec,
    make_world,
    sample_trajectory,
    simulate_scenario,
    synth_camera,
    synth_imu,
    synth_lidar,
)


STATIC = TrajectorySpec(duration=2.0)


def octet_landmarks(first):
    """Eight landmarks (world minimum), the first one chosen by the test."""
    pts = [first] + [[i - 3.0, 2.0 * i, 5.0 + i] for i in range(7)]
    return np.asarray(pts, dtype=float)


# -- analytic trajectory --------------------------------------------------------


def test_static_spec_is_at_rest():
    for t in (0.0, 0.7, 2.0):
        s = sample_trajectory(STATIC, t)
        assert np.allclose(s["pose"].t, 0.0)
        assert np.allclose(s["pose"].q, [1, 0, 0, 0])
        assert np.allclose(s["velocity"], 0.0)
        assert np.allclose(s["angular_rate"], 0.0)
        assert np.allclose(s["acceleration"], 0.0)


def test_circle_speed_is_radius_times_rate():
    radius, duration = 10.0, 40.0
    spec = make_circle_spec(radius, duration, laps=1.0, height_amp=0.0,
                            wobble_deg=0.0)
    w = 2.0 * math.pi / duration
    for t in (0.0, 7.3, 19.9, 40.0):
        s = sample_trajectory(spec, t)
        assert abs(np.linalg.norm(s["velocity"]) - radius * w) < 1e-9
        assert abs(np.linalg.norm(s["pose"].t[:2]) - radius) < 1e-9


def test_velocity_matches_position_derivative():
    spec = make_wiggle_spec(6.0)
    h = 1e-5
    for t in (0.5, 2.2, 4.9):
        sp = sample_trajectory(spec, t + h)
        sm = sample_trajectory(spec, t - h)
        fd_v = (sp["pose"].t - sm["pose"].t) / (2 * h)
        fd_a = (sp["velocity"] - sm["velocity"]) / (2 * h)
        s = sample_trajectory(spec, t)
        assert np.max(np.abs(s["velocity"] - fd_v)) < 1e-6
        assert np.max(np.abs(s["acceleration"] - fd_a)) < 1e-6


def test_angular_rate_matches_quaternion_derivative():
    spec = make_wiggle_spec(6.0)
    h = 1e-6
    for t in (0.5, 2.2, 4.9):
        qm = sample_trajectory(spec, t - h)["pose"].q
        qp = sample_trajectory(spec, t + h)["pose"].q
        fd_w = log_map(quat_multiply(quat_conjugate(qm), qp)) / (2 * h)
        s = sample_trajectory(spec, t)
        assert np.max(np.abs(s["angular_rate"] - fd_w)) < 1e-5


def test_sample_outside_duration_rejected():
    with pytest.raises(ValueError):
        sample_trajectory(STATIC, -0.5)
    with pytest.raises(ValueError):
        sample_trajectory(STATIC, 2.5)


def test_channel_eval_derivatives():
    ch = Channel(offset=1.0, slope=0.5, terms=[(2.0, 0.3, 0.7)])
    t = 1.234
    x, d1, d2 = ch.eval(t)
    h = 1e-4
    xp = ch.eval(t + h)[0]
    xm = ch.eval(t - h)[0]
    assert abs((xp - xm) / (2 * h) - d1) < 1e-6
    assert abs((xp - 2 * x + xm) / h**2 - d2) < 1e-5


# -- IMU synthesis --------------------------------------------------------------


def test_static_imu_reads_bias_and_gravity():
    bg = np.array([0.01, -0.02, 0.005])
    ba = np.array([0.1, 0.0, -0.05])
    cfg = SensorConfig(imu_rate=100.0, cam_rate=5.0, gyro_bias=bg, accel_bias=ba)
    samples = synth_imu(STATIC, cfg)
    assert samples.shape == (201, 7)
    assert np.allclose(samples[:, 1:4], bg)
    assert np.allclose(samples[:, 4:7], np.array([0, 0, 9.81]) + ba)


def test_imu_noise_requires_rng_and_is_reproducible():
    cfg = SensorConfig(imu_rate=100.0, cam_rate=5.0, gyro_noise=1e-3,
                       accel_noise=1e-2)
    spec = make_wiggle_spec(1.0)
    clean = synth_imu(spec, cfg)
    a = synth_imu(spec, cfg, rng=np.random.default_rng(7))
    b = synth_imu(spec, cfg, rng=np.random.default_rng(7))
    assert np.any(clean[:, 1:4] != a[:, 1:4]) and np.any(clean[:, 4:7] != a[:, 4:7])
    assert np.array_equal(clean[:, 0], a[:, 0])
    assert np.array_equal(a, b)


@pytest.mark.parametrize("gyro_noise, accel_noise",
                         [(1e-3, 1e-2), (0.0, 1e-2), (1e-3, 0.0), (0.0, 0.0)])
def test_imu_noise_equals_per_sample_draws(gyro_noise, accel_noise):
    """One draw for the whole stream gives the noise that drawing each
    sample's gyro and then accel noise gives, bit for bit, and leaves the
    generator at the same state."""
    cfg = SensorConfig(imu_rate=100.0, cam_rate=5.0, gyro_noise=gyro_noise,
                       accel_noise=accel_noise)
    clean = synth_imu(make_wiggle_spec(1.0), cfg)
    rng = np.random.default_rng(7)
    noisy = _add_imu_noise(clean, cfg, rng)

    ref_rng = np.random.default_rng(7)
    sg, sa = gyro_noise * math.sqrt(100.0), accel_noise * math.sqrt(100.0)
    ref = []
    for t, *gyro, ax, ay, az in clean.tolist():
        gyro = np.array(gyro) + ref_rng.normal(scale=sg, size=3) if sg > 0 else gyro
        accel = np.array([ax, ay, az])
        accel = accel + ref_rng.normal(scale=sa, size=3) if sa > 0 else accel
        ref.append([t, *gyro, *accel])
    assert noisy.tobytes() == np.array(ref).tobytes()
    assert rng.normal() == ref_rng.normal()


def test_imu_rate_floor_enforced():
    with pytest.raises(ValueError):
        SensorConfig(imu_rate=50.0, cam_rate=10.0)


# -- discrete ground truth -------------------------------------------------------


def test_discrete_truth_consistent_with_preintegration():
    """Preintegrating the clean IMU between grid times reproduces the truth
    relative state exactly; this is the self-consistency the estimator's
    zero-noise fixed point rests on."""
    spec = make_wiggle_spec(2.0)
    cfg = SensorConfig(imu_rate=100.0, cam_rate=5.0)
    truth = DiscreteTruth(spec, cfg)
    from lvio.imu import slice_samples
    t0, t1 = 0.5, 1.3
    seg = slice_samples(truth.samples, t0, t1)
    p0, v0 = truth.state_at(t0)
    poses, vels = mechanize(
        type("S", (), {"timestamp": t0, "p": p0.t, "q": p0.q, "v": v0,
                       "bg": np.zeros(3), "ba": np.zeros(3)})(), seg)
    p1, v1 = truth.state_at(t1)
    assert np.max(np.abs(poses[-1][1].t - p1.t)) < 1e-9
    assert np.max(np.abs(poses[-1][1].q - p1.q)) < 1e-9
    assert np.max(np.abs(vels[-1] - v1)) < 1e-9


def test_discrete_truth_tracks_analytic_trajectory():
    spec = make_wiggle_spec(4.0)
    cfg = SensorConfig(imu_rate=200.0, cam_rate=10.0)
    truth = DiscreteTruth(spec, cfg)
    worst = 0.0
    for t in np.linspace(0.0, 4.0, 9):
        ana = sample_trajectory(spec, float(t))["pose"]
        worst = max(worst, float(np.linalg.norm(truth.pose_at(float(t)).t - ana.t)))
    assert worst < 0.02  # midpoint integration drift at 200 Hz


# -- camera synthesis ------------------------------------------------------------


def test_camera_on_axis_landmark_projects_to_center():
    cfg = SensorConfig(imu_rate=100.0, cam_rate=5.0)
    world = WorldModel([], octet_landmarks([0.0, 0.0, 5.0]),
                       np.zeros(8, dtype=bool))
    frames = synth_camera(STATIC, world, cfg)
    assert frames, "static scene should produce frames"
    for stamp, _, rows in frames:
        row = next(r for r in rows if r[0] == 0)
        _, ux, uy, vx, vy, depth = row
        assert abs(ux) < 1e-12 and abs(uy) < 1e-12
        assert abs(vx) < 1e-12 and abs(vy) < 1e-12
        assert depth is None  # not flagged on-plane


def test_camera_depth_emitted_once_per_on_plane_landmark():
    cfg = SensorConfig(imu_rate=100.0, cam_rate=5.0)
    world = WorldModel([], octet_landmarks([0.0, 0.0, 5.0]),
                       np.array([True] + [False] * 7))
    frames = synth_camera(STATIC, world, cfg)
    depths = [r[5] for _, _, rows in frames for r in rows if r[0] == 0]
    assert depths[0] is not None
    assert abs(depths[0][0] - 5.0) < 1e-12
    assert all(d is None for d in depths[1:])


def test_camera_delay_shifts_exposure_time():
    spec = make_wiggle_spec(4.0)
    delay = 0.02
    cfg = SensorConfig(imu_rate=200.0, cam_rate=5.0, dt_bc0=delay)
    truth = DiscreteTruth(spec, cfg)
    world = make_world(spec, np.random.default_rng(1), n_billboards=6,
                       n_landmarks=30)
    frames = synth_camera(spec, world, cfg, truth=truth)
    stamp, _, rows = frames[3]
    cam = truth.pose_at(stamp + delay)
    for lm, ux, uy, _, _, _ in rows[:5]:
        x = cam.inverse().transform(world.landmarks[lm])
        assert abs(ux - x[0] / x[2]) < 1e-12
        assert abs(uy - x[1] / x[2]) < 1e-12


def test_camera_velocity_predicts_delay_shift():
    # slow trajectory keeps the constant-velocity model accurate over 20 ms
    spec = make_wiggle_spec(20.0)
    cfg = SensorConfig(imu_rate=200.0, cam_rate=5.0)
    truth = DiscreteTruth(spec, cfg)
    world = make_world(spec, np.random.default_rng(1), n_billboards=6,
                       n_landmarks=30)
    base = synth_camera(spec, world, cfg, truth=truth)
    delayed = synth_camera(
        spec, world, SensorConfig(imu_rate=200.0, cam_rate=5.0, dt_bc0=0.02),
        truth=truth)
    checked = 0
    for fb, fd in zip(base, delayed):
        b = {lm: (ux, uy, vx, vy) for lm, ux, uy, vx, vy, _ in fb[2]}
        d = {lm: (ux, uy) for lm, ux, uy, _, _, _ in fd[2]}
        for lm in set(b) & set(d):
            ux, uy, vx, vy = b[lm]
            # constant-velocity extrapolation carries O(dt^2) curvature error
            pred = np.array([ux + vx * 0.02, uy + vy * 0.02])
            assert np.max(np.abs(pred - np.array(d[lm]))) < 1e-3
            checked += 1
    assert checked >= 5


def test_camera_pixel_noise_scaled_by_focal_length():
    cfg = SensorConfig(imu_rate=100.0, cam_rate=10.0, pixel_sigma=2.0,
                       focal_equiv=500.0)
    world = WorldModel([], octet_landmarks([0.0, 0.0, 5.0]),
                       np.zeros(8, dtype=bool))
    frames = synth_camera(STATIC, world, cfg, rng=np.random.default_rng(3))
    devs = [r[1] for _, _, rows in frames for r in rows if r[0] == 0]
    devs = np.array(devs)
    assert np.any(devs != 0.0)
    assert np.max(np.abs(devs)) < 6 * 2.0 / 500.0


# -- lidar synthesis -------------------------------------------------------------


def lidar_world_residuals(frames, world, truth, cfg):
    """Point-to-plane distances in world coordinates, all frames."""
    res = []
    for stamp, _, rows in frames:
        lid = truth.pose_at(stamp + cfg.dt_br).compose(cfg.lid_ext.pose())
        for cid, p_r in rows:
            p_w = lid.transform(np.asarray(p_r))
            res.append(world.patches[cid].model().distance(p_w))
    return np.abs(res)


@pytest.fixture(scope="module")
def lidar_scene():
    spec = make_wiggle_spec(2.0)
    world = make_world(spec, np.random.default_rng(5), n_billboards=6,
                       n_landmarks=30)
    return spec, world


def test_lidar_points_lie_on_their_planes(lidar_scene):
    spec, world = lidar_scene
    cfg = SensorConfig(imu_rate=100.0, cam_rate=5.0, lidar_rate=5.0,
                       lidar_fov_deg=360.0)
    truth = DiscreteTruth(spec, cfg)
    frames = synth_lidar(spec, world, cfg, truth=truth)
    res = lidar_world_residuals(frames, world, truth, cfg)
    assert len(res) > 100
    assert np.max(res) < 1e-9


def test_lidar_range_noise_within_bounds(lidar_scene):
    spec, world = lidar_scene
    sigma = 0.02
    cfg = SensorConfig(imu_rate=100.0, cam_rate=5.0, lidar_rate=5.0,
                       lidar_fov_deg=360.0, range_sigma=sigma)
    truth = DiscreteTruth(spec, cfg)
    frames = synth_lidar(spec, world, cfg, rng=np.random.default_rng(9),
                         truth=truth)
    res = lidar_world_residuals(frames, world, truth, cfg)
    assert np.std(res) < 3 * sigma
    assert np.max(res) < 6 * sigma


def test_lidar_delay_requires_compensation(lidar_scene):
    spec, world = lidar_scene
    cfg = SensorConfig(imu_rate=100.0, cam_rate=5.0, lidar_rate=5.0,
                       lidar_fov_deg=360.0, dt_br=0.005)
    truth = DiscreteTruth(spec, cfg)
    frames = synth_lidar(spec, world, cfg, truth=truth)
    good = lidar_world_residuals(frames, world, truth, cfg)
    assert np.max(good) < 1e-9
    # evaluating at the nominal stamp (no delay compensation) breaks planarity
    bad_cfg = SensorConfig(imu_rate=100.0, cam_rate=5.0, lidar_rate=5.0,
                           lidar_fov_deg=360.0)
    bad = lidar_world_residuals(frames, world, truth, bad_cfg)
    assert np.max(bad) > 1e-4


def test_lidar_fov_restricts_returns(lidar_scene):
    spec, world = lidar_scene
    cfg_full = SensorConfig(imu_rate=100.0, cam_rate=5.0, lidar_rate=5.0,
                            lidar_fov_deg=360.0)
    cfg_cone = SensorConfig(imu_rate=100.0, cam_rate=5.0, lidar_rate=5.0,
                            lidar_fov_deg=70.0)
    n_full = sum(len(rows) for _, _, rows in synth_lidar(spec, world, cfg_full))
    n_cone = sum(len(rows) for _, _, rows in synth_lidar(spec, world, cfg_cone))
    assert 0 < n_cone < n_full


# -- scenario driver --------------------------------------------------------------


SCEN = {
    "trajectory": "wiggle", "duration": 2.0, "seed": 4,
    "imu_rate": 100, "cam_rate": 5, "lidar_rate": 5,
    "lidar_fov_deg": 360, "n_billboards": 6, "n_landmarks": 30,
    "points_per_patch": 4, "pixel_sigma": 0.5, "range_sigma": 0.005,
    "gyro_noise": 1e-4, "accel_noise": 1e-3,
}


def test_simulate_scenario_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    simulate_scenario(dict(SCEN), a)
    simulate_scenario(dict(SCEN), b)
    names = ["imu.csv", "features.csv", "clusters.csv", "gt.tum", "init.cfg",
             "sensor.cfg"]
    for name in names:
        assert (a / name).exists(), name
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_simulate_scenario_gt_matches_truth(tmp_path):
    from lvio.io import read_tum
    out = tmp_path / "s"
    simulate_scenario(dict(SCEN), out)
    gt = read_tum(out / "gt.tum")
    stamps = [t for t, _ in gt]
    assert stamps[0] == 0.0
    assert all(b > a for a, b in zip(stamps, stamps[1:]))
    # zero-mean start: initial pose equals init.cfg
    from lvio.io import read_config
    init = read_config(out / "init.cfg")
    p0 = np.array([float(x) for x in str(init["p"]).split(",")])
    assert np.allclose(gt[0][1].t, p0, atol=1e-9)
