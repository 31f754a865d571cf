import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvio import evaluate, io
from lvio.calibration import LidarImuExtrinsics
from lvio.f2m import (
    F2mObservabilityError,
    F2mPoseMeasurement,
    GlobalPlaneMap,
    associate,
    estimate_f2m_pose,
    export_ply,
    f2m_pose_residual,
    insert_marginalized_frame,
)
from lvio.geometry import Pose, compose_relative, exp_map, log_map, quat_multiply

from conftest import fd_jacobian, lidar_frame, perturb_pose, rand_pose, rel_error

IDENT_LEXT = LidarImuExtrinsics(np.zeros(3), np.array([1.0, 0, 0, 0]))


def box_room_points(rng, n_per_face=400, half=5.0):
    """Points on the interior faces of an axis-aligned box."""
    faces = []
    for axis in range(3):
        for sign in (-1.0, 1.0):
            pts = rng.uniform(-half, half, size=(n_per_face, 3))
            pts[:, axis] = sign * half
            faces.append(pts)
    return np.vstack(faces)


@pytest.fixture
def room_map(rng):
    pmap = GlobalPlaneMap(leaf_size=0.05)
    pmap.insert(box_room_points(rng))
    return pmap


def test_map_insert_dedup():
    pmap = GlobalPlaneMap(leaf_size=0.1)
    pts = np.array([[0.0, 0, 0], [0.001, 0, 0], [1.0, 0, 0]])
    added = pmap.insert(pts)
    assert added == 2
    assert len(pmap) == 2


def test_map_insert_rejects_nonfinite():
    pmap = GlobalPlaneMap()
    with pytest.raises(ValueError):
        pmap.insert(np.array([[np.nan, 0, 0]]))


def _reference_insert(stored, leaves, pts, leaf_size):
    """Point-by-point map insertion: keep a point when its leaf voxel is
    still free."""
    added = 0
    for p in np.asarray(pts, dtype=float):
        leaf = tuple(np.floor(p / leaf_size).astype(int))
        if leaf not in leaves:
            leaves.add(leaf)
            stored.append(p.copy())
            added += 1
    return added


_coords = st.floats(-0.35, 0.35, allow_nan=False, width=64)
_batch = st.lists(st.tuples(_coords, _coords, _coords), max_size=40)


@settings(max_examples=60, deadline=None)
@given(batches=st.lists(_batch, min_size=1, max_size=5),
       leaf_size=st.sampled_from([0.05, 0.1, 0.3]))
def test_map_insert_matches_point_by_point_reference(batches, leaf_size):
    # a cube 0.7 m wide: each leaf receives many points over the batches
    pmap = GlobalPlaneMap(leaf_size=leaf_size)
    stored, leaves = [], set()
    for batch in batches:
        pts = np.array(batch, dtype=float).reshape(-1, 3)
        assert pmap.insert(pts) == _reference_insert(stored, leaves, pts, leaf_size)
        assert len(pmap) == len(stored)
        np.testing.assert_array_equal(pmap.points, np.array(stored).reshape(-1, 3))
    # a batch holding a non-finite value is refused whole
    before = pmap.points.copy()
    with pytest.raises(ValueError):
        pmap.insert(np.array([[5.0, 5.0, 5.0], [np.nan, 0.0, 0.0]]))
    np.testing.assert_array_equal(pmap.points, before)
    assert pmap.insert(np.zeros((0, 3))) == 0
    assert len(pmap) == len(stored)


def test_map_nearest_empty():
    pmap = GlobalPlaneMap()
    d, i = pmap.nearest(np.zeros((2, 3)), k=3)
    assert np.all(np.isinf(d))


def test_associate_on_plane(room_map):
    keep, normals, offsets = associate(np.array([[0.0, 0.0, -5.0]]), room_map)
    assert list(keep) == [0]
    assert abs(abs(normals[0, 2]) - 1.0) < 0.05


def test_associate_far_point(room_map):
    keep, normals, offsets = associate(np.array([[100.0, 0, 0]]), room_map)
    assert len(keep) == 0 and normals.shape == (0, 3) and offsets.shape == (0,)


def scan_from_pose(rng, pose, n=600, half=5.0):
    """Simulate a scan of the box room from a sensor pose (points in the
    sensor frame, exact)."""
    pts_w = box_room_points(rng, n_per_face=n // 6, half=half)
    R = pose.rotation_matrix()
    return (pts_w - pose.t) @ R


def test_estimate_f2m_recovers_pose(rng, room_map):
    true_pose = Pose(np.array([0.3, -0.4, 0.2]), exp_map(np.array([0.02, 0.05, -0.3])))
    scan = scan_from_pose(rng, true_pose)
    init = perturb_pose(true_pose, np.array([0.1, -0.05, 0.08]),
                        np.array([0.02, -0.01, 0.025]))  # ~0.1 m, ~2 deg off
    meas = estimate_f2m_pose(scan, init, room_map)
    err = compose_relative(true_pose, meas.pose)
    assert np.linalg.norm(err.t) < 0.02
    assert np.linalg.norm(log_map(err.q)) < 0.01
    w = np.linalg.eigvalsh(meas.covariance)
    assert w.min() > 0


def test_estimate_f2m_empty_map(rng):
    with pytest.raises(F2mObservabilityError):
        estimate_f2m_pose(rng.normal(size=(50, 3)), Pose.identity(), GlobalPlaneMap())


def test_estimate_f2m_degenerate_single_plane(rng):
    # map and scan on one plane only: normals all parallel
    pmap = GlobalPlaneMap(leaf_size=0.05)
    pts = rng.uniform(-5, 5, size=(1500, 3))
    pts[:, 2] = 0.0
    pmap.insert(pts)
    scan = rng.uniform(-4, 4, size=(300, 3))
    scan[:, 2] = 0.0
    with pytest.raises(F2mObservabilityError):
        estimate_f2m_pose(scan, Pose.identity(), pmap)


def test_estimate_f2m_too_few_points(room_map, rng):
    with pytest.raises(F2mObservabilityError):
        estimate_f2m_pose(np.zeros((5, 3)), Pose(np.array([100.0, 0, 0]),
                          np.array([1.0, 0, 0, 0])), room_map)


def test_f2m_residual_zero_at_measurement(rng):
    ext_pose = rand_pose(rng, 0.2)
    ext = LidarImuExtrinsics(ext_pose.t, ext_pose.q)
    body = rand_pose(rng, 2.0)
    meas_pose = body.compose(ext_pose)
    meas = F2mPoseMeasurement(0, meas_pose, np.eye(6) * 1e-4)
    r, _ = f2m_pose_residual(lidar_frame(body, ext), ext, meas, False)
    assert np.linalg.norm(r) < 1e-12


def test_f2m_measurement_validates_covariance():
    with pytest.raises(ValueError):
        F2mPoseMeasurement(0, Pose.identity(), np.eye(5))
    bad = np.eye(6)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        F2mPoseMeasurement(0, Pose.identity(), bad)


def test_f2m_residual_jacobians_match_fd(rng):
    for trial in range(25):
        ext_pose = rand_pose(rng, 0.2)
        ext = LidarImuExtrinsics(ext_pose.t, ext_pose.q)
        body = rand_pose(rng, 2.0)
        meas = F2mPoseMeasurement(3, rand_pose(rng, 2.0), np.eye(6) * 1e-4)
        v = rng.normal(size=3)
        w = rng.normal(size=3) * 0.5
        dt_br = rng.normal() * 0.004
        dthat = rng.normal() * 0.002
        r, J = f2m_pose_residual(lidar_frame(body, ext, dt_br, dthat, v, w), ext, meas,
                                 True)

        def f_state(d):
            frame = lidar_frame(perturb_pose(body, d[0:3], d[3:6]), ext, dt_br, dthat,
                                v + d[6:9], w)
            return f2m_pose_residual(frame, ext, meas, False)[0]

        # columns: p, q, v of the keyframe, then lp, lq, ldt
        Jfd = fd_jacobian(f_state, 9)
        assert rel_error(J[:, :9], Jfd) < 1e-4, trial

        def f_ext(d):
            moved = LidarImuExtrinsics(ext.p_br + d[0:3],
                                       quat_multiply(ext.q_rb, exp_map(d[3:6])))
            frame = lidar_frame(body, moved, dt_br + d[6], dthat, v, w)
            return f2m_pose_residual(frame, moved, meas, False)[0]

        Jfd = fd_jacobian(f_ext, 7)
        assert rel_error(J[:, 9:], Jfd) < 1e-4, trial


def test_insert_marginalized_frame(rng):
    pmap = GlobalPlaneMap(leaf_size=0.05)
    body = rand_pose(rng)
    scan = rng.normal(size=(100, 3))
    n = insert_marginalized_frame(scan, body, IDENT_LEXT, pmap)
    assert n > 0
    # the stored points are the world-frame scan
    pw = body.transform(scan)
    d, _ = pmap.nearest(pw, k=1, max_dist=0.2)
    assert np.all(np.isfinite(d))


def test_export_ply(tmp_path, rng):
    pts = rng.normal(size=(5, 3))
    path = tmp_path / "map.ply"
    export_ply(pts, path, colors=np.full((5, 3), 128))
    text = path.read_text().splitlines()
    assert text[0] == "ply"
    assert "element vertex 5" in text
    assert len(text) == 10 + 5  # header lines + points


def _export_ply_reference(pts, path, colors=None):
    """export_ply with one f-string per point: the writer it replaced."""
    with open(path, "w") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {len(pts)}\n")
        f.write("property float x\nproperty float y\nproperty float z\n")
        if colors is not None:
            f.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        f.write("end_header\n")
        for i, p in enumerate(pts):
            line = f"{p[0]:.6f} {p[1]:.6f} {p[2]:.6f}"
            if colors is not None:
                c = colors[i]
                line += f" {int(c[0])} {int(c[1])} {int(c[2])}"
            f.write(line + "\n")


def test_export_ply_matches_reference_and_round_trips(tmp_path, rng):
    pts = np.vstack([rng.normal(size=(200, 3)) * 50.0,
                     [[0.0, -0.0, 1e-7], [-5e-7, 123456.5, -1.0000005]]])
    colors = rng.integers(0, 256, size=(len(pts), 3), dtype=np.uint8)
    for cols in (None, colors):
        path, ref = tmp_path / "map.ply", tmp_path / "ref.ply"
        export_ply(pts, path, colors=cols)
        _export_ply_reference(pts, ref, colors=cols)
        assert path.read_bytes() == ref.read_bytes()
        back = io.read_ply(path)
        assert back.shape == pts.shape
        np.testing.assert_array_equal(back, np.array([[float(f"{x:.6f}") for x in p]
                                                      for p in pts]))


def test_read_ply_rejects_missing_vertices(tmp_path):
    path = tmp_path / "short.ply"
    export_ply(np.ones((3, 3)), path)
    text = path.read_text()
    path.write_text(text.replace("element vertex 3", "element vertex 4"))
    with pytest.raises(ValueError):
        io.read_ply(path)
    path.write_text(text.replace("element vertex 3\n", ""))
    with pytest.raises(ValueError):
        io.read_ply(path)


def test_empty_map_round_trip(tmp_path):
    path = tmp_path / "empty.ply"
    export_ply(GlobalPlaneMap(), path)
    pts = io.read_ply(path)
    assert pts.shape == (0, 3)
    colors, valid = evaluate.colorize_points(
        pts, np.zeros((4, 4, 3), np.uint8),
        Pose(np.zeros(3), np.array([1.0, 0, 0, 0])), 1.0)
    assert colors.shape == (0, 3) and valid.shape == (0,)
