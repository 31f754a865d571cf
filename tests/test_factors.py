import numpy as np
import pytest

from lvio.calibration import CameraImuExtrinsics, LidarImuExtrinsics, compensate_lidar_pose
from lvio.factors import (
    THETA_MIN,
    CheiralityError,
    DegenerateParallaxError,
    PlaneCluster,
    PlaneFitError,
    PlaneModel,
    camera_keys,
    fit_plane,
    lidar_depth_pa_residual,
    lidar_pa_residual,
    plane_keys,
    pose_only_depth,
    select_anchors,
    visual_pa_residual,
)
from lvio.geometry import Pose, compose_relative, exp_map, quat_multiply

from conftest import (
    fd_jacobian,
    key_columns,
    keyframe_table,
    perturb_pose,
    rand_pose,
    rand_quat,
    rel_error,
)

IDENT_EXT = CameraImuExtrinsics(np.zeros(3), np.array([1.0, 0, 0, 0]))
IDENT_LEXT = LidarImuExtrinsics(np.zeros(3), np.array([1.0, 0, 0, 0]))


def cam(pose):
    """(R, t) of a camera pose, as pose_only_depth takes it."""
    return pose.rotation_matrix(), pose.t


def obs(x, y, v=(0.0, 0.0)):
    """One observation-table row (ux, uy, 1, vx, vy)."""
    return [x, y, 1.0, *v]


def cam_table(poses, ext=IDENT_EXT, dt_bc=None, dthat_br=0.0):
    return keyframe_table(poses, ext, IDENT_LEXT, dthat_br, dt_bc=dt_bc)


def lidar_table(poses, ext=IDENT_LEXT, dt_br=0.0, dthat_br=0.0, v=None, w=None):
    lid = LidarImuExtrinsics(ext.p_br, ext.q_rb, dt_br)
    return keyframe_table(poses, IDENT_EXT, lid, dthat_br, v=v, w=w)


# ---------------------------------------------------------------- camera frame


def camera_frame(body, ext):
    """(Rc, tc) of a body pose, as `keyframe_frames` derives them."""
    f = cam_table({0: body}, ext)[0]
    return f.Rc, f.tc


def test_camera_pose_rotation_only(rng):
    ext = CameraImuExtrinsics(np.zeros(3), rand_quat(rng))
    Rc, tc = camera_frame(Pose.identity(), ext)
    np.testing.assert_allclose(tc, 0, atol=1e-15)
    np.testing.assert_allclose(Rc, Pose.identity().compose(ext.pose()).rotation_matrix(),
                               atol=1e-15)


def test_camera_pose_lever_arm():
    ext = CameraImuExtrinsics(np.array([0.1, 0, 0]), np.array([1.0, 0, 0, 0]))
    body = Pose(np.array([1.0, 2, 3]), np.array([1.0, 0, 0, 0]))
    _, tc = camera_frame(body, ext)
    np.testing.assert_allclose(tc, [1.1, 2, 3], atol=1e-15)


def test_camera_pose_is_composition(rng):
    body, ext_pose = rand_pose(rng), rand_pose(rng)
    ext = CameraImuExtrinsics(ext_pose.t, ext_pose.q)
    Rc, tc = camera_frame(body, ext)
    expected = body.compose(ext_pose)
    np.testing.assert_allclose(tc, expected.t, atol=1e-12)
    np.testing.assert_allclose(Rc, expected.rotation_matrix(), atol=1e-12)


# ---------------------------------------------------------------- depth (Eq. 3)


def test_pose_only_depth_known_geometry():
    # camera eta translated 1 m along x, landmark 5 m ahead of zeta
    pz = Pose.identity()
    pe = Pose(np.array([1.0, 0, 0]), np.array([1.0, 0, 0, 0]))
    d, theta, _, _ = pose_only_depth(np.array([0, 0, 1.0]), np.array([-0.2, 0, 1.0]),
                                     *cam(pz), *cam(pe))
    np.testing.assert_allclose(d, 5.0, atol=1e-12)


def test_pose_only_depth_zero_baseline():
    pz = Pose.identity()
    u = np.array([0, 0, 1.0])
    d, theta, _, _ = pose_only_depth(u, u, *cam(pz), *cam(pz))
    assert theta == 0.0 and d == np.inf
    # a camera residual anchored on zero parallax refuses to evaluate
    rows = np.array([obs(0.0, 0.0), obs(0.0, 0.0), obs(0.1, 0.0)])
    poses = {0: pz, 1: pz, 2: Pose(np.array([1.0, 0, 0]), np.array([1.0, 0, 0, 0]))}
    with pytest.raises(DegenerateParallaxError):
        visual_pa_residual((0, 1, 2), rows, cam_table(poses), IDENT_EXT, False)


def triangulate_two_view(u1, u2, pose1, pose2):
    """Independent linear triangulation oracle: least squares on the two
    cross-product constraints [u]x R^T (X - t) = 0."""
    rows, rhs = [], []
    for u, pose in ((u1, pose1), (u2, pose2)):
        R = pose.rotation_matrix()
        S = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
        A = S @ R.T
        rows.append(A)
        rhs.append(A @ pose.t)
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    X, *_ = np.linalg.lstsq(A, b, rcond=None)
    Rz = pose1.rotation_matrix()
    return (Rz.T @ (X - pose1.t))[2]


def test_pose_only_depth_matches_triangulation(rng):
    for _ in range(200):
        pz, pe = rand_pose(rng, 2.0), rand_pose(rng, 2.0)
        X = rng.normal(size=3) * 5
        xz = pz.rotation_matrix().T @ (X - pz.t)
        xe = pe.rotation_matrix().T @ (X - pe.t)
        if xz[2] < 0.2 or xe[2] < 0.2:
            continue
        uz = xz / xz[2]
        ue = xe / xe[2]
        d, theta, _, _ = pose_only_depth(uz, ue, *cam(pz), *cam(pe))
        if theta < THETA_MIN:
            continue
        d_oracle = triangulate_two_view(uz, ue, pz, pe)
        np.testing.assert_allclose(d, d_oracle, atol=1e-9)
        np.testing.assert_allclose(d, xz[2], atol=1e-9)


# ---------------------------------------------------------------- anchors


def test_select_anchors_two_observations():
    p_u = np.array([[0.0, 0.0, 1.0], [-0.2, 0.0, 1.0]])
    poses = {0: Pose.identity(), 1: Pose(np.array([1.0, 0, 0]), np.array([1.0, 0, 0, 0]))}
    z, e = select_anchors([0, 1], p_u, cam_table(poses), None)
    assert (z, e) == (0, 1)


def test_select_anchors_max_parallax():
    # frames on a line, growing baseline: farthest frame wins
    X = np.array([0.0, 0.0, 5.0])
    poses = {k: Pose(np.array([0.5 * k, 0, 0]), np.array([1.0, 0, 0, 0])) for k in range(4)}
    x = np.array([pose.rotation_matrix().T @ (X - pose.t) for pose in poses.values()])
    z, e = select_anchors(list(poses), x / x[:, 2:], cam_table(poses), None)
    assert z == 0 and e == 3


def test_select_anchors_prefers_depth_frame():
    p_u = np.array([[0.0, 0.0, 1.0], [-0.1, 0.0, 1.0], [-0.2, 0.0, 1.0]])
    poses = {k: Pose(np.array([0.5 * k, 0, 0]), np.array([1.0, 0, 0, 0])) for k in (1, 2, 3)}
    z, _ = select_anchors([1, 2, 3], p_u, cam_table(poses), 2)
    assert z == 2


def test_select_anchors_degenerate_parallax():
    p_u = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(DegenerateParallaxError):
        select_anchors([0, 1], p_u, cam_table({0: Pose.identity(), 1: Pose.identity()}),
                       None)


# ---------------------------------------------------------------- plane fit


def test_fit_plane_axis_aligned():
    pts = np.array([[0, 0, 2.0], [1, 0, 2.0], [0, 1, 2.0], [3, -1, 2.0]])
    plane = fit_plane(pts)
    np.testing.assert_allclose(plane.normal, [0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(plane.offset, -2.0, atol=1e-12)
    np.testing.assert_allclose(plane.distance(pts), 0, atol=1e-12)


def test_fit_plane_exact_three_points(rng):
    pts = rng.normal(size=(3, 3))
    plane = fit_plane(pts)
    np.testing.assert_allclose(plane.distance(pts), 0, atol=1e-12)


def test_fit_plane_collinear():
    pts = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3.0]])
    with pytest.raises(PlaneFitError):
        fit_plane(pts)


def test_fit_plane_noisy_monte_carlo(rng):
    n_true = np.array([0.0, 0.0, 1.0])
    for _ in range(5):
        pts = rng.uniform(-1, 1, size=(100, 3))
        pts[:, 2] = 0.7 + rng.normal(scale=1e-3, size=100)
        plane = fit_plane(pts)
        angle = np.degrees(np.arccos(abs(plane.normal @ n_true)))
        assert angle < 0.1


# ---------------------------------------------------------------- visual PA


def synthetic_visual_setup(rng, n_frames=3, ext=None, depth_frame=None):
    """One landmark seen from n_frames keyframes: (track, body poses, X),
    the track being (rows (n_frames, 5) with row k at keyframe k, zeta,
    eta, LiDAR depth at zeta or None)."""
    ext = ext or IDENT_EXT
    X = np.array([0.5, -0.3, 6.0])
    body_poses, observations = {}, []
    for k in range(n_frames):
        body = Pose(
            np.array([0.6 * k, 0.1 * k, 0.05 * k]),
            exp_map(np.array([0.02 * k, -0.03 * k, 0.05 * k])),
        )
        body_poses[k] = body
        cam = body.compose(ext.pose())
        x = cam.rotation_matrix().T @ (X - cam.t)
        observations.append(obs(x[0] / x[2], x[1] / x[2]))
    depth = None
    if depth_frame is not None:
        camz = body_poses[depth_frame].compose(ext.pose())
        xz = camz.rotation_matrix().T @ (X - camz.t)
        if xz[2] <= 0.1:
            raise CheiralityError("landmark behind synthetic depth camera")
        depth = (float(xz[2]), 0.05)
    track = (np.array(observations), 0 if depth_frame is None else depth_frame,
             n_frames - 1 if depth_frame != n_frames - 1 else 0, depth)
    return track, body_poses, X


def camera_args(track, observer):
    """The leading arguments of the camera residual of observer j on a
    synthetic track: (kfs, obs) for a visual one, plus the depth when the
    track has one."""
    rows, z, e, depth = track
    kfs = (z, e, observer)
    return (kfs, rows[list(kfs)]) + (() if depth is None else (depth,))


def test_visual_residual_zero_at_truth(rng):
    track, poses, _ = synthetic_visual_setup(rng)
    r, _ = visual_pa_residual(*camera_args(track, 1), cam_table(poses), IDENT_EXT, False)
    assert np.linalg.norm(r) < 1e-9


def test_visual_residual_nonzero_when_perturbed(rng):
    track, poses, _ = synthetic_visual_setup(rng)
    poses[1] = Pose(poses[1].t + np.array([0.05, 0, 0]), poses[1].q)
    r, _ = visual_pa_residual(*camera_args(track, 1), cam_table(poses), IDENT_EXT, False)
    assert np.linalg.norm(r) > 1e-5


def test_visual_residual_cheirality():
    # landmark behind observer
    rows = np.array([obs(0.0, 0.0), obs(0.0, 0.0), obs(0.0, 0.0)])
    poses = {
        0: Pose.identity(),
        1: Pose(np.array([1.0, 0, 0]), np.array([1.0, 0, 0, 0])),
        2: Pose(np.array([0.0, 0, 100.0]), np.array([1.0, 0, 0, 0])),
    }
    with pytest.raises((CheiralityError, DegenerateParallaxError)):
        visual_pa_residual((0, 1, 2), rows, cam_table(poses), IDENT_EXT, False)


def test_visual_residual_global_rigid_invariance(rng):
    ext_pose = rand_pose(rng, 0.1)
    ext = CameraImuExtrinsics(ext_pose.t, ext_pose.q)
    track, poses, _ = synthetic_visual_setup(rng, ext=ext)
    poses = {k: Pose(p.t + np.array([0.02, -0.01, 0.03]) * (k + 1), p.q) for k, p in poses.items()}
    r0, _ = visual_pa_residual(*camera_args(track, 1), cam_table(poses, ext), ext, False)
    T = rand_pose(rng, 5.0)
    moved = {k: T.compose(p) for k, p in poses.items()}
    r1, _ = visual_pa_residual(*camera_args(track, 1), cam_table(moved, ext), ext, False)
    np.testing.assert_allclose(r0, r1, atol=1e-10)


def _visual_fd_check(rng, with_depth, observer, tol=1e-4):
    ext_pose = rand_pose(rng, 0.1)
    ext = CameraImuExtrinsics(ext_pose.t, ext_pose.q)
    track, poses, _ = synthetic_visual_setup(rng, ext=ext,
                                             depth_frame=0 if with_depth else None)
    # perturb away from the zero-residual point and add feature velocities
    poses = {k: perturb_pose(p, rng.normal(size=3) * 0.05, rng.normal(size=3) * 0.02)
             for k, p in poses.items()}
    track[0][:, 3:] = rng.normal(size=(len(poses), 2)) * 0.3
    dt_bc = {k: rng.normal() * 0.005 for k in poses}
    dthat = rng.normal() * 0.002
    residual = lidar_depth_pa_residual if with_depth else visual_pa_residual
    args = camera_args(track, observer)

    def fn(frames, ext, want_jacobian):
        return residual(*args, frames, ext, want_jacobian)

    r, J = fn(cam_table(poses, ext, dt_bc, dthat), ext, True)
    J = key_columns(J, camera_keys(args[0]))

    for k in poses:
        def f_pose(d, k=k):
            moved = dict(poses)
            moved[k] = perturb_pose(poses[k], d[0:3], d[3:6])
            return fn(cam_table(moved, ext, dt_bc, dthat), ext, False)[0]

        Jfd = fd_jacobian(f_pose, 6)
        Ja = np.hstack([
            J.get(("p", k), np.zeros((len(r), 3))),
            J.get(("q", k), np.zeros((len(r), 3))),
        ])
        assert rel_error(Ja, Jfd) < tol, ("pose", k)

        def f_dt(d, k=k):
            moved = dict(dt_bc)
            moved[k] = dt_bc[k] + d[0]
            return fn(cam_table(poses, ext, moved, dthat), ext, False)[0]

        Jfd = fd_jacobian(f_dt, 1)
        assert rel_error(J.get(("dt", k), np.zeros((len(r), 1))), Jfd) < tol, ("dt", k)

    def f_ext(d):
        moved = CameraImuExtrinsics(ext.p_bc + d[0:3],
                                    quat_multiply(ext.q_cb, exp_map(d[3:6])))
        return fn(cam_table(poses, moved, dt_bc, dthat), moved, False)[0]

    Jfd = fd_jacobian(f_ext, 6)
    Ja = np.hstack([J[("cp", -1)], J[("cq", -1)]])
    assert rel_error(Ja, Jfd) < tol


def test_visual_jacobians_match_fd(rng):
    for trial in range(20):
        try:
            _visual_fd_check(rng, with_depth=False, observer=1)
        except (CheiralityError, DegenerateParallaxError):
            continue


def test_visual_jacobians_observer_equals_eta(rng):
    for trial in range(10):
        try:
            _visual_fd_check(rng, with_depth=False, observer=2)
        except (CheiralityError, DegenerateParallaxError):
            continue


def test_lidar_depth_residual_zero_at_truth(rng):
    track, poses, _ = synthetic_visual_setup(rng, depth_frame=0)
    r, _ = lidar_depth_pa_residual(*camera_args(track, 1), cam_table(poses), IDENT_EXT, False)
    assert np.linalg.norm(r) < 1e-9


def test_lidar_depth_residual_measures_depth_offset(rng):
    track, poses, _ = synthetic_visual_setup(rng, depth_frame=0)
    rows, z, e, (d, sigma) = track
    r, _ = lidar_depth_pa_residual(*camera_args((rows, z, e, (d + 0.1, sigma)), 1),
                                   cam_table(poses), IDENT_EXT, False)
    np.testing.assert_allclose(r[2], -0.1 / sigma, atol=1e-9)


def test_lidar_depth_jacobians_match_fd(rng):
    for trial in range(20):
        try:
            _visual_fd_check(rng, with_depth=True, observer=1)
        except (CheiralityError, DegenerateParallaxError):
            continue


# ---------------------------------------------------------------- lidar PA


def make_cluster_poses(rng, n_frames=3, noise=0.0, plane_z=0.0):
    poses, pts = {}, {}
    for k in range(n_frames):
        body = Pose(
            np.array([0.4 * k, 0.2 * k, 1.5]),
            exp_map(np.array([0.01 * k, -0.02 * k, 0.3 * k])),
        )
        poses[k] = body
        R = body.rotation_matrix()
        for _ in range(3):
            pw = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), plane_z])
            pw[2] += rng.normal() * noise
            pts.setdefault(k, []).append(R.T @ (pw - body.t))
    return PlaneCluster(0, {k: np.array(p) for k, p in pts.items()}), poses


def test_lidar_pa_zero_for_coplanar(rng):
    cluster, poses = make_cluster_poses(rng)
    r, J, var = lidar_pa_residual(cluster, lidar_table(poses), IDENT_LEXT, False)
    assert abs(r[0]) < 1e-12
    assert J is None and var > 0


def test_lidar_pa_alternating_points():
    frames = lidar_table({0: Pose.identity(), 1: Pose.identity()})
    pts = {0: np.array([[0.0, 0, 0.1], [1.0, 0, -0.1]]),
           1: np.array([[0.0, 1, 0.1], [1.0, 1, -0.1]])}
    cluster = PlaneCluster(0, pts)
    plane = PlaneModel(np.array([0.0, 0, 1.0]), 0.0)
    r, _, _ = lidar_pa_residual(cluster, frames, IDENT_LEXT, False, plane)
    np.testing.assert_allclose(r[0], 0.01, atol=1e-15)


def test_lidar_pa_global_rigid_invariance(rng):
    cluster, poses = make_cluster_poses(rng, noise=0.01)
    r0, _, _ = lidar_pa_residual(cluster, lidar_table(poses), IDENT_LEXT, False)
    T = rand_pose(rng, 3.0)
    moved = {k: T.compose(p) for k, p in poses.items()}
    r1, _, _ = lidar_pa_residual(cluster, lidar_table(moved), IDENT_LEXT, False)
    np.testing.assert_allclose(r0, r1, atol=1e-10)


def test_lidar_residuals_share_one_compensated_pose(rng):
    """The plane residual and the F2M pose residual both place a keyframe at
    the pose compensate_lidar_pose gives it."""
    from lvio.f2m import F2mPoseMeasurement, f2m_pose_residual

    for _ in range(10):
        ext_pose = rand_pose(rng, 0.2)
        ext = LidarImuExtrinsics(ext_pose.t, ext_pose.q)
        dthat_br = rng.normal() * 0.002
        dt_br = dthat_br + 0.01 + abs(rng.normal()) * 0.004
        poses = {k: rand_pose(rng, 2.0) for k in range(2)}
        v = {k: rng.normal(size=3) for k in poses}
        w = {k: rng.normal(size=3) * 0.5 for k in poses}
        frames = lidar_table(poses, ext, dt_br, dthat_br, v, w)
        lidar_poses = {}
        for k, pose in poses.items():
            c = compensate_lidar_pose(pose, dt_br - dthat_br, v[k], w[k])
            assert np.linalg.norm(c.t - pose.t) > 1e-4
            lidar_poses[k] = Pose(c.t, c.q).compose(ext.pose())
            meas = F2mPoseMeasurement(k, lidar_poses[k], np.eye(6))
            r, _ = f2m_pose_residual(frames[k], ext, meas, False)
            np.testing.assert_allclose(r, 0.0, atol=1e-12)

        world = rng.normal(size=(8, 3)) * 3.0
        cluster = PlaneCluster(0, {k: lidar_poses[k].inverse().transform(world[4 * k:4 * k + 4])
                                   for k in range(2)})
        # against a fixed plane the residual is the mean squared point-to-plane
        # distance of the projected points; over random planes that pins down
        # where the points land
        for _ in range(5):
            n = rng.normal(size=3)
            plane = PlaneModel(n / np.linalg.norm(n), rng.normal())
            r, _, _ = lidar_pa_residual(cluster, frames, ext, False, plane)
            np.testing.assert_allclose(r[0], np.mean(plane.distance(world) ** 2),
                                       rtol=1e-9)


def test_adaptive_covariance_monotone(rng):
    base = None
    for noise in (0.005, 0.02):
        cluster, poses = make_cluster_poses(rng, noise=noise)
        var = lidar_pa_residual(cluster, lidar_table(poses), IDENT_LEXT, False)[2]
        if base is None:
            base = var
        else:
            assert var > base


def test_adaptive_covariance_floor(rng):
    cluster, poses = make_cluster_poses(rng, noise=0.0)
    var = lidar_pa_residual(cluster, lidar_table(poses), IDENT_LEXT, False)[2]
    from lvio.factors import PLANE_COV_FLOOR
    np.testing.assert_allclose(var, PLANE_COV_FLOOR**2 / cluster.n_points)


def test_lidar_pa_jacobians_match_fd(rng):
    from lvio.factors import fit_plane as _fit
    for trial in range(15):
        cluster, poses = make_cluster_poses(rng, noise=0.02)
        ext_pose = rand_pose(rng, 0.1)
        ext = LidarImuExtrinsics(ext_pose.t, ext_pose.q)
        v, w = {}, {}
        for k in poses:
            v[k], w[k] = rng.normal(size=3), rng.normal(size=3) * 0.5
        dthat_br = rng.normal() * 0.002
        dt_br = rng.normal() * 0.004
        r, J, _ = lidar_pa_residual(cluster, lidar_table(poses, ext, dt_br, dthat_br, v, w),
                                    ext, True)
        J = key_columns(J, plane_keys(cluster))

        # plane fixed at linearization: tolerance 1e-4; full re-fit FD: 1e-2
        world = []
        Rrb = ext.pose().rotation_matrix()
        for kf, pts_r in cluster.points.items():
            c = compensate_lidar_pose(poses[kf], dt_br - dthat_br, v[kf], w[kf])
            world += [c.R @ (c.E @ (Rrb @ p_r + ext.p_br)) + c.t for p_r in pts_r]
        plane_lin = _fit(np.asarray(world))

        for k in poses:
            def f_pose(d, k=k, refit=False):
                moved, moved_v = dict(poses), dict(v)
                moved[k] = perturb_pose(poses[k], d[0:3], d[3:6])
                moved_v[k] = v[k] + d[6:9]
                frames = lidar_table(moved, ext, dt_br, dthat_br, moved_v, w)
                return lidar_pa_residual(cluster, frames, ext, False,
                                         None if refit else plane_lin)[0]

            Jfd = fd_jacobian(lambda d: f_pose(d, refit=False), 9)
            Ja = np.hstack([J[("p", k)], J[("q", k)], J[("v", k)]])
            assert rel_error(Ja, Jfd) < 1e-4, ("fixed-plane", trial, k)
            Jfd_refit = fd_jacobian(lambda d: f_pose(d, refit=True), 9)
            assert rel_error(Ja, Jfd_refit) < 1e-2, ("refit", trial, k)

        def f_ext(d):
            moved = LidarImuExtrinsics(ext.p_br + d[0:3],
                                       quat_multiply(ext.q_rb, exp_map(d[3:6])))
            frames = lidar_table(poses, moved, dt_br + d[6], dthat_br, v, w)
            return lidar_pa_residual(cluster, frames, moved, False, plane_lin)[0]

        Jfd = fd_jacobian(f_ext, 7)
        Ja = np.hstack([J[("lp", -1)], J[("lq", -1)], J[("ldt", -1)]])
        assert rel_error(Ja, Jfd) < 1e-4, ("ext", trial)
