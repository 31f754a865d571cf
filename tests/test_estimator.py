import copy

import numpy as np
import pytest

import lvio.factors as pa
from lvio.calibration import CameraImuExtrinsics, LidarImuExtrinsics
from lvio.estimator import (
    AssembledProblem,
    Estimator,
    EstimatorConfig,
    Factor,
    FrameBundle,
    GaussianPriorFactor,
    KeyframeState,
    MarginalPriorFactor,
    WindowState,
    boxminus,
    huber_cost,
    covariance_blocks,
    lm_solve,
    marginalize_factors,
    robust_weight,
)
from lvio.geometry import Pose, exp_map, quat_multiply, quat_rotate
from lvio.imu import ImuSample
from lvio.io import read_clusters_csv, read_tum
from lvio.simulate import simulate_scenario


IDENT_CAM = CameraImuExtrinsics(np.zeros(3), np.array([1.0, 0, 0, 0]))
IDENT_LID = LidarImuExtrinsics(np.zeros(3), np.array([1.0, 0, 0, 0]))


def fresh_window(n_keyframes=1, window_size=10, dt=0.1):
    win = WindowState(copy.deepcopy(IDENT_CAM), copy.deepcopy(IDENT_LID), window_size)
    for k in range(n_keyframes):
        win.add(k, KeyframeState(k * dt, np.zeros(3), np.array([1.0, 0, 0, 0]),
                                 np.zeros(3)))
    return win


# -- robust loss ------------------------------------------------------------


def test_robust_weight_quadratic_region():
    assert robust_weight(0.0, 1.0) == 1.0
    assert robust_weight(0.999, 1.0) == 1.0
    assert robust_weight(1.0, 1.0) == 1.0


def test_robust_weight_linear_region():
    assert robust_weight(2.0, 1.0) == pytest.approx(0.5)
    assert robust_weight(10.0, 1.0) == pytest.approx(0.1)


def test_huber_cost_continuous_at_delta():
    d = 1.3
    below = huber_cost(d - 1e-9, d)
    above = huber_cost(d + 1e-9, d)
    assert abs(below - above) < 1e-6
    assert huber_cost(0.5, d) == pytest.approx(0.25)
    # linear branch: delta * (2 n - delta)
    assert huber_cost(3.0, 1.0) == pytest.approx(5.0)


# -- lm_solve on a closed-form quadratic --------------------------------------


def test_lm_solve_matches_weighted_mean():
    win = fresh_window()
    a, sa = np.array([1.0, 2.0, 3.0]), 0.5
    b, sb = np.array([2.0, 0.0, 1.0]), 1.0
    factors = [GaussianPriorFactor(("p", 0), a, sa),
               GaussianPriorFactor(("p", 0), b, sb)]
    problem = AssembledProblem([("p", 0)], factors)
    stats = lm_solve(problem, win)
    wa, wb = 1.0 / sa**2, 1.0 / sb**2
    expect = (wa * a + wb * b) / (wa + wb)
    assert stats.converged
    assert stats.final_cost <= stats.initial_cost
    assert np.max(np.abs(win.keyframes[0].p - expect)) < 1e-10


def test_lm_solve_rotation_prior():
    win = fresh_window()
    target = exp_map(np.array([0.1, -0.2, 0.3]))
    problem = AssembledProblem([("q", 0)],
                               [GaussianPriorFactor(("q", 0), target, 0.01)])
    stats = lm_solve(problem, win)
    assert stats.converged
    assert np.max(np.abs(win.keyframes[0].q - target)) < 1e-9


# -- retract / boxminus round trip --------------------------------------------


def test_retract_boxminus_roundtrip(rng):
    win = fresh_window()
    keys = [("p", 0), ("q", 0), ("v", 0), ("bg", 0), ("ba", 0), ("dt", 0),
            ("cp", -1), ("cq", -1), ("lp", -1), ("lq", -1), ("ldt", -1)]
    for key in keys:
        dim = 1 if key[0] in ("dt", "ldt") else 3
        delta = rng.normal(scale=1e-3, size=dim)
        before = np.array(win.get_block(key), copy=True)
        win.retract(key, delta)
        got = boxminus(key[0], win.get_block(key), before)
        assert np.max(np.abs(got - delta)) < 1e-9, key


# -- marginal covariance -------------------------------------------------------


def _marginal_covariance(problem, win, key):
    H, _, _ = problem.linearize(win)
    return covariance_blocks(H, problem.index, [key])[key]


def test_marginal_covariance_prior_inverse():
    win = fresh_window()
    problem = AssembledProblem([("p", 0)],
                               [GaussianPriorFactor(("p", 0), np.zeros(3), 0.2)])
    cov = _marginal_covariance(problem, win, ("p", 0))
    assert np.allclose(cov, 0.04 * np.eye(3), atol=1e-12)


def test_marginal_covariance_shrinks_with_data():
    win = fresh_window()
    f1 = GaussianPriorFactor(("p", 0), np.zeros(3), 0.2)
    f2 = GaussianPriorFactor(("p", 0), np.zeros(3), 0.2)
    cov1 = _marginal_covariance(AssembledProblem([("p", 0)], [f1]), win, ("p", 0))
    cov2 = _marginal_covariance(AssembledProblem([("p", 0)], [f1, f2]), win, ("p", 0))
    assert np.trace(cov2) < np.trace(cov1)
    assert np.allclose(cov2, 0.02 * np.eye(3), atol=1e-12)


# -- sliding-window marginalization vs full batch (linear-Gaussian chain) ------


class RelPosFactor(Factor):
    """Linear relative-position measurement p_j - p_i = z."""

    kind = "rel"

    def __init__(self, ki, kj, z, sigma):
        self.ki, self.kj = ki, kj
        self.z = np.asarray(z, dtype=float)
        self.s = 1.0 / sigma

    def keys(self):
        return [("p", self.ki), ("p", self.kj)]

    def evaluate(self, window, frames, want_jacobian=False):
        r = self.s * (window.keyframes[self.kj].p - window.keyframes[self.ki].p - self.z)
        if not want_jacobian:
            return r, None
        eye = self.s * np.eye(3)
        return r, {("p", self.ki): -eye, ("p", self.kj): eye}


def newton_solve(problem, window, iters=3):
    """Exact Newton steps; sufficient for linear factors."""
    for _ in range(iters):
        H, g, _ = problem.linearize(window)
        dx = np.linalg.solve(H, -g)
        for key, (off, d) in problem.index.items():
            window.retract(key, dx[off:off + d])


def test_sliding_window_equals_batch_on_linear_chain(rng):
    n, span = 20, 5
    steps = rng.normal(size=(n - 1, 3))
    meas = steps + rng.normal(scale=0.05, size=(n - 1, 3))
    prior = GaussianPriorFactor(("p", 0), np.zeros(3), 0.1)
    rels = [RelPosFactor(k, k + 1, meas[k], 0.05) for k in range(n - 1)]

    batch = fresh_window(n_keyframes=n, window_size=n + 1)
    batch_problem = AssembledProblem([("p", k) for k in range(n)], [prior] + rels)
    newton_solve(batch_problem, batch)

    win = fresh_window(n_keyframes=span, window_size=n + 1)
    active = list(range(span))
    factors = [prior] + rels[:span - 1]
    newton_solve(AssembledProblem([("p", k) for k in active], factors), win)
    for k in range(span, n):
        oldest = active.pop(0)
        touching = [f for f in factors if ("p", oldest) in f.keys()]
        keep = [f for f in factors if ("p", oldest) not in f.keys()]
        info = marginalize_factors(win, touching, [("p", oldest)])
        del win.keyframes[oldest]
        factors = keep + [MarginalPriorFactor(info)]
        win.add(k, KeyframeState(k * 0.1, win.keyframes[k - 1].p + meas[k - 1],
                                 np.array([1.0, 0, 0, 0]), np.zeros(3)))
        active.append(k)
        factors.append(rels[k - 1])
        newton_solve(AssembledProblem([("p", k) for k in active], factors), win)

    for k in active:
        err = np.max(np.abs(win.keyframes[k].p - batch.keyframes[k].p))
        assert err < 1e-8, (k, err)


# -- pipeline-level checks on a small simulated scenario -----------------------


SCENARIO = {
    "trajectory": "wiggle", "duration": 4.0, "seed": 11,
    "imu_rate": 100, "cam_rate": 5, "lidar_rate": 5,
    "lidar_fov_deg": 360, "n_billboards": 10, "n_landmarks": 40,
    "points_per_patch": 4,
    "pixel_sigma": 0.3, "range_sigma": 0.002,
    "gyro_noise": 1e-4, "accel_noise": 1e-3,
}


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("estdata")
    simulate_scenario(dict(SCENARIO), out)
    return out


@pytest.fixture(scope="module")
def full_run(sim_dir):
    from lvio.cli import run_estimator
    config = EstimatorConfig(window_size=5, max_tracks=20, max_clusters=15)
    return run_estimator(sim_dir, mode="full", config=config)


def test_pipeline_produces_all_keyframes(full_run, sim_dir):
    clusters = {round(t, 6) for t, *_ in read_clusters_csv(sim_dir / "clusters.csv")}
    traj = full_run.trajectory()
    assert len(clusters) - 1 <= len(traj) <= len(clusters)
    stamps = [o.timestamp for o in traj]
    assert stamps == sorted(stamps)


def test_pipeline_tracks_truth(full_run, sim_dir):
    truth = {round(t, 6): pose for t, pose in read_tum(sim_dir / "gt.tum")}
    errs = []
    for o in full_run.trajectory():
        tp = truth.get(round(o.timestamp, 6))
        if tp is not None:
            errs.append(np.linalg.norm(o.pose.t - tp.t))
    assert len(errs) > 10
    assert np.median(errs) < 0.05


def test_full_run_uses_f2m_factors(full_run):
    problem = full_run.build_problem()
    assert problem.stats.get("f2m", 0) >= 1
    assert problem.stats.get("imu", 0) == len(full_run.window.keyframes) - 1


def test_each_pass_builds_one_keyframe_table(full_run, monkeypatch):
    """cost and linearize derive each keyframe's frames once per pass, through
    one builder, and every factor reads them from that table: no factor
    derives a keyframe pose from its state again."""
    problem = full_run.build_problem()
    assert {"visual", "lidar", "f2m"} <= set(problem.stats)
    calls = {"build": 0, "pose": 0}
    build, pose = pa.keyframe_frames, KeyframeState.pose

    def counted_build(*args):
        calls["build"] += 1
        return build(*args)

    def counted_pose(self):
        calls["pose"] += 1
        return pose(self)

    monkeypatch.setattr(pa, "keyframe_frames", counted_build)
    monkeypatch.setattr(KeyframeState, "pose", counted_pose)
    n = len(full_run.window.keyframes)
    for evaluation_pass in (problem.cost, problem.linearize):
        calls.update(build=0, pose=0)
        evaluation_pass(full_run.window)
        assert calls == {"build": n, "pose": n}


def test_gauge_invariance_without_f2m_or_priors(full_run):
    problem = full_run.build_problem()
    gauge_free = [f for f in problem.factors
                  if f.kind in ("imu", "timedelay", "visual", "depth", "lidar")]
    sub = AssembledProblem(problem.blocks, gauge_free)
    base = sub.cost(full_run.window)
    moved = full_run.window.copy()
    yaw = 0.3
    qz = exp_map(np.array([0.0, 0.0, yaw]))
    shift = np.array([5.0, -2.0, 1.0])
    for s in moved.keyframes.values():
        s.p = quat_rotate(qz, s.p) + shift
        s.q = quat_multiply(qz, s.q)
        s.v = quat_rotate(qz, s.v)
    assert abs(sub.cost(moved) - base) <= 1e-9 * max(base, 1.0)


def inject_f2m(est, kf):
    """Attach a registration measurement at the current estimate of kf."""
    from lvio.f2m import F2mPoseMeasurement
    s = est.window.keyframes[kf]
    pose = s.pose().compose(est.window.lid_ext.pose())
    est._f2m[kf] = F2mPoseMeasurement(kf, pose, 1e-4 * np.eye(6))


def test_marginalization_discards_f2m_on_oldest(full_run):
    ids = full_run.window.ordered_ids()
    with_f2m = copy.deepcopy(full_run)
    without = copy.deepcopy(full_run)
    inject_f2m(with_f2m, ids[0])
    with_f2m.marginalize_oldest()
    without.marginalize_oldest()
    a, b = with_f2m.window.prior, without.window.prior
    assert a.keys == b.keys
    assert np.allclose(a.sqrt_info, b.sqrt_info, atol=1e-12)
    assert np.allclose(a.r0, b.r0, atol=1e-12)


def test_marg_f2m_mode_keeps_f2m_information(full_run):
    ids = full_run.window.ordered_ids()
    keep = copy.deepcopy(full_run)
    keep.cfg.mode = "marg_f2m"
    drop = copy.deepcopy(full_run)
    inject_f2m(keep, ids[0])
    inject_f2m(drop, ids[0])
    keep.marginalize_oldest()
    drop.marginalize_oldest()
    assert not np.allclose(keep.window.prior.r0, drop.window.prior.r0, atol=1e-12) \
        or not np.allclose(keep.window.prior.sqrt_info, drop.window.prior.sqrt_info,
                           atol=1e-12)


# -- factor counting -----------------------------------------------------------


def static_imu(rate=100.0, duration=1.0):
    n = int(duration * rate) + 1
    return [ImuSample(k / rate, np.zeros(3), np.array([0.0, 0, 9.81]))
            for k in range(n)]


def test_two_keyframes_no_measurements_factor_counts():
    est = Estimator(IDENT_CAM, IDENT_LID, EstimatorConfig())
    est.set_imu(static_imu())
    est.initialize(FrameBundle(0.0), np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros(3))
    est.process_frame(FrameBundle(0.2))
    problem = est.build_problem()
    assert problem.stats == {"prior": 11, "imu": 1, "timedelay": 1}


def test_no_calib_mode_fixes_calibration_blocks():
    est = Estimator(IDENT_CAM, IDENT_LID, EstimatorConfig(mode="no_calib"))
    est.set_imu(static_imu())
    est.initialize(FrameBundle(0.0), np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros(3))
    est.process_frame(FrameBundle(0.2))
    problem = est.build_problem()
    assert ("cp", -1) not in problem.index
    assert ("dt", 0) not in problem.index
    assert problem.stats.get("timedelay", 0) == 0


def test_track_in_three_frames_gives_two_visual_factors():
    est = Estimator(IDENT_CAM, IDENT_LID, EstimatorConfig())
    # accelerate along +x so frames have parallax-producing baselines
    samples = [ImuSample(k / 100.0, np.zeros(3), np.array([0.5, 0, 9.81]))
               for k in range(101)]
    est.set_imu(samples)
    est.initialize(FrameBundle(0.0), np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros(3))
    est.process_frame(FrameBundle(0.3))
    est.process_frame(FrameBundle(0.6))
    X = np.array([1.0, 3.0, 0.5])
    import lvio.factors as pa
    for kf in est.window.ordered_ids():
        cam = est.window.keyframes[kf].pose()  # identity extrinsics: camera = body
        x = cam.inverse().transform(X)
        p_u = np.array([x[0] / x[2], x[1] / x[2], 1.0])
        est._observations.setdefault(77, []).append(
            (kf, pa.FeatureObservation(kf, p_u, np.zeros(2))))
    problem = est.build_problem()
    assert problem.stats.get("visual", 0) == 2
    # attach a depth to the first observation: factors become depth-typed
    est._depths[77] = (0, float(np.linalg.norm(X)), 0.05)
    problem = est.build_problem()
    assert problem.stats.get("depth", 0) == 2
    assert problem.stats.get("visual", 0) == 0


def test_vio_mode_stores_no_lidar_depth():
    est = Estimator(IDENT_CAM, IDENT_LID, EstimatorConfig(mode="vio"))
    samples = [ImuSample(k / 100.0, np.zeros(3), np.array([0.5, 0, 9.81]))
               for k in range(101)]
    est.set_imu(samples)
    X = np.array([1.0, 3.0, 0.5])
    p_u = np.array([X[0] / X[2], X[1] / X[2], 1.0])
    feature = (77, p_u, np.zeros(2), (float(np.linalg.norm(X)), 0.05))
    est.initialize(FrameBundle(0.0, features=[feature]), np.zeros(3),
                   np.array([1.0, 0, 0, 0]), np.zeros(3))
    est.process_frame(FrameBundle(0.3))
    est.process_frame(FrameBundle(0.6))
    for kf in est.window.ordered_ids()[1:]:
        cam = est.window.keyframes[kf].pose()  # identity extrinsics: camera = body
        x = cam.inverse().transform(X)
        est._observations[77].append(
            (kf, pa.FeatureObservation(kf, np.array([x[0] / x[2], x[1] / x[2], 1.0]),
                                       np.zeros(2))))
    assert est._depths == {}
    stats = est.build_problem().stats
    assert "depth" not in stats
    assert stats.get("visual", 0) == 2


def test_mode_flags():
    flags = {
        "full": (True, True, True, True),
        "no_f2m": (True, True, False, True),
        "marg_f2m": (True, True, True, True),
        "no_calib": (True, True, True, False),
        "lio": (False, True, True, True),
        "vio": (True, False, False, True),
    }
    for mode, (cam, lid, f2m, calib) in flags.items():
        est = Estimator(IDENT_CAM, IDENT_LID, EstimatorConfig(mode=mode))
        assert est.uses_camera == cam, mode
        assert est.uses_lidar_planes == lid, mode
        assert est.uses_f2m == f2m, mode
        assert est.calibrates == calib, mode


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        EstimatorConfig(mode="bogus")


def test_window_rejects_nonincreasing_timestamps():
    win = fresh_window(n_keyframes=2)
    with pytest.raises(ValueError):
        win.add(5, KeyframeState(0.05, np.zeros(3), np.array([1.0, 0, 0, 0]),
                                 np.zeros(3)))


def test_keyframe_bias_sanity_bounds():
    with pytest.raises(ValueError):
        KeyframeState(0.0, np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros(3),
                      bg=np.array([0.2, 0, 0]))
    with pytest.raises(ValueError):
        KeyframeState(0.0, np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros(3),
                      ba=np.array([2.5, 0, 0]))
