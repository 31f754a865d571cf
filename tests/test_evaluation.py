import math

import numpy as np
import pytest

from lvio.evaluate import (
    AssociationError,
    associate,
    ate_rmse,
    attitude_error_series,
    colorize_points,
    end_to_end_error,
    umeyama_se3,
)
from lvio.geometry import Pose, exp_map, log_map, quat_multiply
from lvio.io import (
    read_config,
    read_imu_csv,
    read_ppm,
    read_tum,
    write_config,
    write_imu_csv,
    write_ppm,
    write_tum,
)


def make_track(n=30, dt=0.1, rng=None):
    out = []
    for k in range(n):
        t = k * dt
        p = np.array([math.sin(0.3 * t), 0.5 * t, 1.0 + 0.1 * math.cos(t)])
        q = exp_map(np.array([0.05 * t, -0.02 * t, 0.4 * t]))
        out.append((t, Pose(p, q)))
    return out


# -- ATE -------------------------------------------------------------------------


def test_ate_zero_for_identical_trajectories():
    track = make_track()
    assert ate_rmse(track, track) == pytest.approx(0.0, abs=1e-12)
    assert ate_rmse(track, track, align=False) == pytest.approx(0.0, abs=1e-12)


def test_ate_unaligned_equals_constant_offset():
    track = make_track()
    shifted = [(t, Pose(p.t + np.array([1.0, 0, 0]), p.q)) for t, p in track]
    assert ate_rmse(shifted, track, align=False) == pytest.approx(1.0, abs=1e-12)


def test_ate_alignment_removes_rigid_transform():
    track = make_track()
    qz = exp_map(np.array([0.0, 0.0, 0.8]))
    T = Pose(np.array([3.0, -2.0, 0.5]), qz)
    moved = [(t, T.compose(p)) for t, p in track]
    assert ate_rmse(moved, track, align=True) < 1e-9
    assert ate_rmse(moved, track, align=False) > 1.0


def test_ate_requires_enough_pairs():
    track = make_track(n=5)
    with pytest.raises(AssociationError):
        ate_rmse(track, track)


def test_associate_respects_tolerance():
    track = make_track()
    offset = [(t + 0.004, p) for t, p in track]
    assert len(associate(offset, track)) == len(track)
    # the same 4 ms offset fails once the tolerance is tightened below it
    assert len(associate(offset, track, tol=0.001)) == 0


def test_umeyama_recovers_known_transform(rng):
    src = rng.normal(size=(40, 3))
    R_true = Pose(np.zeros(3), exp_map(rng.normal(size=3))).rotation_matrix()
    t_true = np.array([1.0, -2.0, 3.0])
    dst = src @ R_true.T + t_true
    R, t = umeyama_se3(src, dst)
    assert np.max(np.abs(R - R_true)) < 1e-10
    assert np.max(np.abs(t - t_true)) < 1e-10


# -- end-to-end and attitude ------------------------------------------------------


def test_end_to_end_error_examples():
    track = make_track()
    expect = float(np.linalg.norm(track[-1][1].t - track[0][1].t))
    assert end_to_end_error(track) == pytest.approx(expect, abs=1e-12)
    closed = track + [(track[-1][0] + 0.1, track[0][1])]
    assert end_to_end_error(closed) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        end_to_end_error(track[:1])


def test_attitude_error_series_against_log_map():
    track = make_track()
    yaw_err = 0.02  # rad
    qz = exp_map(np.array([0.0, 0.0, yaw_err]))
    est = [(t, Pose(p.t, quat_multiply(p.q, qz))) for t, p in track]
    series = attitude_error_series(est, track)
    assert len(series) == len(track)
    for t, r, pch, y in series:
        # pure yaw perturbation in the body frame decomposes to yaw only
        assert abs(y - math.degrees(yaw_err)) < 1e-9
        assert abs(r) < 1e-9 and abs(pch) < 1e-9


def test_attitude_error_zero_for_identical():
    track = make_track()
    for _, r, p, y in attitude_error_series(track, track):
        assert max(abs(r), abs(p), abs(y)) < 1e-12


# -- colorization ------------------------------------------------------------------


def checkerboard(h=8, w=8):
    img = np.zeros((h, w, 3), dtype=np.uint8)
    for y in range(h):
        for x in range(w):
            img[y, x] = 255 if (x + y) % 2 == 0 else 0
    return img


def test_colorize_exact_pixel_center():
    img = checkerboard()
    cam = Pose.identity()
    focal, cx, cy = 10.0, 3.0, 3.0
    # world point projecting exactly to pixel (5, 2): u = f x/z + cx
    z = 2.0
    pt = np.array([[(5 - cx) * z / focal, (2 - cy) * z / focal, z]])
    colors, valid = colorize_points(pt, img, cam, focal, cx, cy)
    assert valid[0]
    assert tuple(colors[0]) == ((255, 255, 255) if (5 + 2) % 2 == 0 else (0, 0, 0))


def test_colorize_midway_rounds_half_up():
    img = np.zeros((4, 4, 3), dtype=np.uint8)
    img[1, 1] = 255
    img[1, 2] = 0
    cam = Pose.identity()
    focal, cx, cy = 10.0, 1.5, 1.0
    # u = 1.5, v = 1.0: halfway between columns 1 and 2 on row 1
    pt = np.array([[0.0, 0.0, 1.0]])
    colors, valid = colorize_points(pt, img, cam, focal, cx, cy)
    assert valid[0]
    assert tuple(colors[0]) == (128, 128, 128)  # floor(127.5 + 0.5)


def test_colorize_rejects_behind_and_off_raster():
    img = checkerboard()
    cam = Pose.identity()
    pts = np.array([
        [0.0, 0.0, -1.0],   # behind
        [100.0, 0.0, 1.0],  # far off the raster
        [0.0, 0.0, 2.0],    # center, valid
    ])
    colors, valid = colorize_points(pts, img, cam, 10.0)
    assert not valid[0] and not valid[1] and valid[2]
    assert tuple(colors[0]) == (0, 0, 0)
    assert tuple(colors[1]) == (0, 0, 0)


def _colorize_reference(points, image, cam_pose, focal, cx=None, cy=None):
    """colorize_points one point at a time: the per-point loop it replaced."""
    img = np.asarray(image)
    h, w, _ = img.shape
    cx = (w - 1) / 2.0 if cx is None else cx
    cy = (h - 1) / 2.0 if cy is None else cy
    pc = (np.asarray(points, dtype=float) - cam_pose.t) @ cam_pose.rotation_matrix()
    colors = np.zeros((len(pc), 3), dtype=np.uint8)
    valid = np.zeros(len(pc), dtype=bool)
    for i, p in enumerate(pc):
        if p[2] <= 1e-9:
            continue
        u = focal * p[0] / p[2] + cx
        v = focal * p[1] / p[2] + cy
        x0, y0 = int(math.floor(u)), int(math.floor(v))
        if x0 < 0 or y0 < 0 or x0 + 1 > w - 1 or y0 + 1 > h - 1:
            continue
        fx, fy = u - x0, v - y0
        c = ((1 - fx) * (1 - fy) * img[y0, x0]
             + fx * (1 - fy) * img[y0, x0 + 1]
             + (1 - fx) * fy * img[y0 + 1, x0]
             + fx * fy * img[y0 + 1, x0 + 1])
        colors[i] = np.floor(c + 0.5).astype(np.uint8)
        valid[i] = True
    return colors, valid


def test_colorize_matches_per_point_reference(rng):
    h, w, focal = 12, 16, 10.0
    img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    # pixel coordinates on and just inside/outside the raster edges, where the
    # 2x2 bilinear footprint first or last fits
    us = np.array([0.0, 1e-9, w - 2.0, w - 2.0 + 1e-9, w - 1.0, -1e-9, 3.5])
    vs = np.array([0.0, h - 2.0, h - 2.0 + 1e-9, h - 1.0, -1e-9, 5.25, 7.0])
    uu, vv = np.meshgrid(us, vs)
    z = rng.uniform(0.5, 5.0, size=uu.size)
    edges = np.column_stack([(uu.ravel() - cx) * z / focal, (vv.ravel() - cy) * z / focal, z])
    spread = rng.normal(size=(500, 3)) * [2.0, 2.0, 3.0]  # many behind or off the raster
    special = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1e-9], [0.0, 0.0, -1.0]])
    cams = [Pose.identity(), Pose(rng.normal(size=3) * 0.2, exp_map(rng.normal(size=3) * 0.1))]
    for pts in (edges, spread, special, np.zeros((0, 3))):
        for cam in cams:
            colors, valid = colorize_points(pts, img, cam, focal)
            ref_colors, ref_valid = _colorize_reference(pts, img, cam, focal)
            np.testing.assert_array_equal(valid, ref_valid)
            np.testing.assert_array_equal(colors, ref_colors)
    # the edge grid reaches both sides of every raster bound
    _, valid = colorize_points(edges, img, cams[0], focal)
    assert 0 < valid.sum() < len(valid)


def test_colorize_respects_camera_pose():
    img = checkerboard()
    # camera displaced along +x, looking the same way
    cam = Pose(np.array([0.5, 0.0, 0.0]), np.array([1.0, 0, 0, 0]))
    pt_world = np.array([[0.5, 0.0, 2.0]])  # on the displaced optical axis
    colors, valid = colorize_points(pt_world, img, cam, 10.0)
    assert valid[0]


# -- file format round trips --------------------------------------------------------


def test_ppm_roundtrip(tmp_path, rng):
    img = rng.integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    assert back.shape == img.shape
    assert np.array_equal(back, img)


def test_tum_roundtrip(tmp_path):
    track = make_track(n=12)
    path = tmp_path / "traj.tum"
    write_tum(path, track)
    back = read_tum(path)
    assert len(back) == len(track)
    for (t0, p0), (t1, p1) in zip(track, back):
        assert abs(t0 - t1) < 1e-9
        assert np.max(np.abs(p0.t - p1.t)) < 1e-8
        assert np.max(np.abs(p0.q - p1.q)) < 1e-8


def test_tum_rejects_nonincreasing(tmp_path):
    path = tmp_path / "bad.tum"
    with open(path, "w") as f:
        f.write("0.0 0 0 0 0 0 0 1\n")
        f.write("0.0 1 0 0 0 0 0 1\n")
    with pytest.raises(ValueError):
        read_tum(path)


def test_config_roundtrip(tmp_path):
    cfg = {"mode": "full", "rate": 200, "sigma": 0.02,
           "p": "0.1,0.2,0.3"}
    path = tmp_path / "a.cfg"
    write_config(path, cfg)
    back = read_config(path)
    assert back["mode"] == "full"
    assert back["rate"] == 200
    assert back["sigma"] == pytest.approx(0.02)
    assert [float(x) for x in str(back["p"]).split(",")] == [0.1, 0.2, 0.3]


def test_imu_csv_roundtrip(tmp_path, rng):
    samples = np.column_stack([np.arange(20) * 0.01, rng.normal(size=(20, 6))])
    path = tmp_path / "imu.csv"
    write_imu_csv(path, samples)
    back = read_imu_csv(path)
    assert isinstance(back, np.ndarray) and back.shape == (20, 7)
    assert np.max(np.abs(back[:, 0] - samples[:, 0])) < 1e-12
    assert np.max(np.abs(back[:, 1:] - samples[:, 1:])) < 1e-9
