import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lvio.factors as pa
from lvio.calibration import CameraImuExtrinsics, LidarImuExtrinsics
from lvio.estimator import (
    BLOCK_DIMS,
    HUBER_DELTA,
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
from lvio.io import read_clusters_csv, read_tum
from lvio.simulate import simulate_scenario

from conftest import key_columns

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
    stats, _ = lm_solve(problem, win)
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
    stats, _ = lm_solve(problem, win)
    assert stats.converged
    assert np.max(np.abs(win.keyframes[0].q - target)) < 1e-9


class WallFactor(Factor):
    """Prior pulling p_x of keyframe 0 to 1 that has no cost past x = 0.5,
    the way a camera factor has none behind the camera."""

    kind = "wall"

    def keys(self):
        return [("p", 0)]

    def evaluate(self, window, frames, want_jacobian):
        p = window.keyframes[0].p
        if p[0] > 0.5:
            raise pa.CheiralityError("past the wall")
        r = p - np.array([1.0, 0.0, 0.0])
        return r, (np.eye(3) if want_jacobian else None)


def test_lm_solve_rejects_a_trial_step_whose_cost_raises():
    win = fresh_window()
    stats, _ = lm_solve(AssembledProblem([("p", 0)], [WallFactor()]), win)
    # the undamped step lands at x = 1: rejected, then damped steps approach the wall
    assert stats.failed_trials > 0
    assert 0.4 < win.keyframes[0].p[0] <= 0.5
    assert stats.final_cost < stats.initial_cost


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

    def evaluate(self, window, frames, want_jacobian):
        r = self.s * (window.keyframes[self.kj].p - window.keyframes[self.ki].p - self.z)
        if not want_jacobian:
            return r, None
        eye = self.s * np.eye(3)
        return r, np.hstack([-eye, eye])


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


@pytest.fixture(scope="module")
def no_calib_run(sim_dir):
    from lvio.cli import run_estimator
    config = EstimatorConfig(window_size=5, max_iterations=4, max_tracks=20, max_clusters=15)
    return run_estimator(sim_dir, mode="no_calib", config=config)


def test_run_estimator_leaves_the_callers_config_unchanged(sim_dir):
    from lvio.cli import run_estimator
    config = EstimatorConfig(window_size=5, max_iterations=0)
    before = dataclasses.asdict(config)
    est = run_estimator(sim_dir, mode="no_calib", config=config)
    assert dataclasses.asdict(config) == before
    assert est.cfg.mode == "no_calib"


def reference_linearize(problem, window):
    """The normal equations assembled as a dict of jacobian blocks per
    factor: each factor's jacobian cut into its keys' blocks, the blocks of
    free parameters stacked in key order and scattered by their offsets."""
    H = np.zeros((problem.dim, problem.dim))
    g = np.zeros(problem.dim)
    cost = 0.0
    frames = window.frames()
    for f in problem.factors:
        r, J = f.evaluate(window, frames, True)
        n = float(np.linalg.norm(r))
        if f.robust:
            cost += huber_cost(n, HUBER_DELTA)
            w = robust_weight(n, HUBER_DELTA)
        else:
            cost += n * n
            w = 1.0
        items = [(problem.index[k], Jk) for k, Jk in key_columns(J, f.keys()).items()
                 if k in problem.index]
        if not items:
            continue
        Jloc = np.hstack([Jk for _, Jk in items])
        idx = np.concatenate([np.arange(off, off + d) for (off, d), _ in items])
        JtW = w * Jloc.T
        g[idx] += JtW @ r
        H[np.ix_(idx, idx)] += JtW @ Jloc
    return H, g, cost


@pytest.mark.parametrize("run", ["full_run", "no_calib_run"])
def test_linearize_matches_block_reference(run, request):
    est = request.getfixturevalue(run)
    problem = est.build_problem()
    assert {"imu", "visual", "lidar", "f2m", "marginal"} <= set(problem.stats)
    # a camera factor whose observer is its eta anchor adds into eta's columns
    assert any(f.kfs[2] == f.kfs[1] for f in problem.factors if f.kind == "visual")
    if run == "no_calib_run":
        assert ("cp", -1) not in problem.index and ("dt", 0) not in problem.index
    H, g, cost = problem.linearize(est.window)
    H_ref, g_ref, cost_ref = reference_linearize(problem, est.window)
    assert np.array_equal(H, H_ref)
    assert np.array_equal(g, g_ref)
    assert cost == cost_ref


@pytest.mark.parametrize("run", ["full_run", "no_calib_run"])
def test_each_jacobian_has_a_column_per_key_dimension(run, request):
    est = request.getfixturevalue(run)
    frames = est.window.frames()
    for f in est.build_problem().factors:
        r, J = f.evaluate(est.window, frames, True)
        assert J.shape == (len(r), sum(BLOCK_DIMS[k[0]] for k in f.keys())), f.kind


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
    with_f2m.marginalize_oldest(with_f2m.build_problem())
    without.marginalize_oldest(without.build_problem())
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
    keep.marginalize_oldest(keep.build_problem())
    drop.marginalize_oldest(drop.build_problem())
    assert not np.allclose(keep.window.prior.r0, drop.window.prior.r0, atol=1e-12) \
        or not np.allclose(keep.window.prior.sqrt_info, drop.window.prior.sqrt_info,
                           atol=1e-12)


# -- factor counting -----------------------------------------------------------


def static_imu(rate=100.0, duration=1.0):
    n = int(duration * rate) + 1
    return np.column_stack([np.arange(n) / rate, np.zeros((n, 5)), np.full(n, 9.81)])


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


def three_frame_run(mode="full", depth=np.nan):
    """An estimator after three frames 0.3 s apart, accelerating along +x,
    that see landmark 77 at (1, 3, 0.5) in each frame; the first frame's
    feature row carries the given LiDAR depth."""
    est = Estimator(IDENT_CAM, IDENT_LID, EstimatorConfig(mode=mode))
    est.set_imu(np.column_stack([np.arange(101) / 100.0, np.zeros((101, 3)),
                                 np.full(101, 0.5), np.zeros(101), np.full(101, 9.81)]))
    X = np.array([1.0, 3.0, 0.5])

    def bundle(t, d=np.nan):
        x = X - np.array([0.25 * t * t, 0.0, 0.0])  # identity extrinsics: camera = body
        sigma = np.nan if np.isnan(d) else 0.05
        return FrameBundle(t, np.array([[77, x[0] / x[2], x[1] / x[2], 0.0, 0.0, d, sigma]]))

    est.initialize(bundle(0.0, depth), np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros(3))
    est.process_frame(bundle(0.3))
    est.process_frame(bundle(0.6))
    return est


def test_solve_log_holds_no_arrays():
    est = three_frame_run()
    assert len(est.solve_log) == 2 and est.solve_log[-1].iterations > 0
    assert not any(isinstance(v, np.ndarray) for s in est.solve_log for v in vars(s).values())


def test_set_imu_rejects_a_stream_of_fewer_than_two_samples():
    est = Estimator(IDENT_CAM, IDENT_LID, EstimatorConfig())
    for n in (0, 1):
        with pytest.raises(ValueError, match="IMU"):
            est.set_imu(static_imu()[:n])


def test_track_in_three_frames_gives_two_visual_factors():
    problem = three_frame_run().build_problem()
    assert problem.stats.get("visual", 0) == 2
    # a depth on the first observation: factors become depth-typed
    problem = three_frame_run(depth=0.5).build_problem()
    assert problem.stats.get("depth", 0) == 2
    assert problem.stats.get("visual", 0) == 0


def test_vio_mode_stores_no_lidar_depth():
    est = three_frame_run(mode="vio", depth=0.5)
    assert est._depths == {}
    stats = est.build_problem().stats
    assert "depth" not in stats
    assert stats.get("visual", 0) == 2


# -- the observation table ---------------------------------------------------------


def reference_tracks(observations, depths, frames, max_tracks):
    """_tracks_in_window over a dict of lists landmark -> [(kf, p_u)] kept in
    first-sighting order: [(landmark, kfs, zeta, eta, depth)]."""
    tracks = []
    for lm, obs in observations.items():
        if len(obs) < 2:
            continue
        depth = depths.get(lm)
        zeta = depth[0] if depth is not None and depth[0] in frames else None
        kfs = [k for k, _ in obs]
        try:
            z, e = pa.select_anchors(kfs, np.array([p for _, p in obs]), frames, zeta)
        except pa.DegenerateParallaxError:
            continue
        tracks.append((lm, kfs, z, e, None if zeta is None else depth[1:]))
    if len(tracks) > max_tracks:
        tracks.sort(key=lambda tr: -len(tr[1]))
        tracks = tracks[:max_tracks]
    return tracks


@settings(max_examples=60, deadline=None)
@given(frames=st.lists(st.lists(st.tuples(st.integers(0, 6), st.booleans()),
                                unique_by=lambda f: f[0], max_size=7),
                       min_size=2, max_size=12),
       landmarks=st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(4, 8)),
                          min_size=7, max_size=7),
       max_tracks=st.integers(1, 5))
def test_tracks_in_window_match_dict_of_lists_reference(frames, landmarks, max_tracks):
    """Landmarks leave the window and are seen again; keyframes come in
    pairs at one position, so tracks seen only by a pair have no parallax."""
    est = Estimator(IDENT_CAM, IDENT_LID, EstimatorConfig(window_size=3, max_tracks=max_tracks))
    observations, depths = {}, {}
    for kf, frame in enumerate(frames):
        body = Pose(np.array([0.4 * (kf // 2), 0.1 * (kf % 3), 0.0]),
                    exp_map(np.array([0.0, 0.02 * kf, 0.0])))
        est.window.add(kf, KeyframeState(0.1 * kf, body.t, body.q, np.zeros(3)))
        rows = []
        for lm, has_depth in frame:
            x = body.inverse().transform(np.array(landmarks[lm]))
            p_u = x / x[2]
            rows.append([lm, p_u[0], p_u[1], 0.0, 0.0] + ([x[2], 0.05] if has_depth
                                                           else [np.nan, np.nan]))
            observations.setdefault(lm, []).append((kf, p_u))
            if has_depth:
                depths.setdefault(lm, (kf, x[2], 0.05))
        est._store_measurements(kf, FrameBundle(0.1 * kf, np.array(rows).reshape(-1, 7)))

        want = reference_tracks(observations, depths, est.window.frames(), max_tracks)
        got = [(int(est._obs_lm[rows[0]]), est._obs_kf[rows].tolist(), z, e, depth)
               for rows, z, e, depth in est._tracks_in_window()]
        assert got == want

        if len(est.window.keyframes) > est.cfg.window_size:
            k0 = est.window.ordered_ids()[0]
            del est.window.keyframes[k0]
            est._cleanup(k0)
            for lm in list(observations):
                observations[lm] = [(k, p) for k, p in observations[lm] if k != k0]
                if not observations[lm]:
                    del observations[lm]
                    depths.pop(lm, None)


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
