"""Correctness checks on the pipeline's outputs, computed independently of
the code under test. Each check returns a list of failure messages."""

from __future__ import annotations

import math

import numpy as np

from lvio import evaluate

# Image for the map render: every channel is linear in the pixel
# coordinates, so bilinear interpolation reproduces it exactly and the
# expected color of a point follows from its projection alone.
IMAGE_SIZE = 256


def render_image() -> np.ndarray:
    x = np.arange(IMAGE_SIZE)
    img = np.empty((IMAGE_SIZE, IMAGE_SIZE, 3), dtype=np.uint8)
    img[..., 0] = x[None, :]  # red = column
    img[..., 1] = x[:, None]  # green = row
    img[..., 2] = 255 - x[:, None]  # blue = 255 - row
    return img


def _expected_colors(u, v):
    return np.stack([u, v, 255.0 - v], axis=1)


def ate(traj, truth):
    """Translation RMSE after a least-squares SE(3) fit (Umeyama, no scale).

    traj and truth are lists of (t, Pose); every estimated stamp must have a
    truth stamp within 1 us. Returns (rmse, failures)."""
    tt = np.array([t for t, _ in truth])
    idx = np.searchsorted(tt, [t for t, _ in traj])
    idx = np.clip(idx, 1, len(tt) - 1)
    stamps = np.array([t for t, _ in traj])
    idx = np.where(np.abs(tt[idx - 1] - stamps) < np.abs(tt[idx] - stamps), idx - 1, idx)
    if np.any(np.abs(tt[idx] - stamps) > 1e-6):
        return math.nan, ["estimated stamps without a truth pose"]
    x = np.array([p.t for _, p in traj])
    y = np.array([truth[i][1].t for i in idx])
    mx, my = x.mean(axis=0), y.mean(axis=0)
    U, _, Vt = np.linalg.svd((y - my).T @ (x - mx))
    S = np.diag([1.0, 1.0, np.sign(np.linalg.det(U @ Vt))])
    R = U @ S @ Vt
    err = (x - mx) @ R.T - (y - my)
    rmse = float(np.sqrt(np.mean(np.sum(err**2, axis=1))))
    failures = []
    lib = evaluate.ate_rmse(traj, truth)
    if abs(lib - rmse) > 1e-9:
        failures.append(f"lvio.evaluate.ate_rmse {lib!r} != benchmark ATE {rmse!r}")
    return rmse, failures


def trajectory(traj, n_frames: int):
    """One pose per processed frame plus the initial one, strictly
    increasing stamps, unit quaternions, finite values."""
    failures = []
    if len(traj) != n_frames + 1:
        failures.append(f"{len(traj)} poses for {n_frames} frames + 1 initial")
    stamps = np.array([t for t, _ in traj])
    if np.any(np.diff(stamps) <= 0):
        failures.append("stamps not strictly increasing")
    vals = np.array([np.concatenate([[t], p.t, p.q]) for t, p in traj])
    if not np.all(np.isfinite(vals)):
        failures.append("non-finite pose values")
    elif np.max(np.abs(np.linalg.norm(vals[:, 4:], axis=1) - 1.0)) > 1e-9:
        failures.append("quaternions not unit length")
    return failures


def camera_delay(est, truth_calib: dict, tol: float):
    """Final camera delay against dt_bc + drift * t of the simulator."""
    kf = est.window.keyframes[est.window.ordered_ids()[-1]]
    truth = float(truth_calib["dt_bc"]) + float(truth_calib["dt_bc_drift"]) * kf.timestamp
    err = kf.dt_bc - truth
    if not abs(err) < tol:
        return [f"camera delay error {err * 1e3:+.3f} ms exceeds {tol * 1e3:.1f} ms"]
    return []


def map_voxels(points: np.ndarray, leaf: float):
    """No two map points in one leaf voxel."""
    if len(points) == 0:
        return []
    keys = np.floor(points / leaf).astype(np.int64)
    dup = len(points) - len(np.unique(keys, axis=0))
    return [f"{dup} map points share a leaf voxel"] if dup else []


def render(points, colors, valid, cam_pose, focal: float):
    """Colors and valid mask of colorize_points against a pinhole projection
    written here: a point is in the raster when it is in front of the camera
    and all four bilinear neighbours exist."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    pc = (pts - cam_pose.t) @ cam_pose.rotation_matrix()
    z = pc[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        c0 = (IMAGE_SIZE - 1) / 2.0
        u = focal * pc[:, 0] / z + c0
        v = focal * pc[:, 1] / z + c0
        inside = (z > 1e-9) & (u >= 0) & (v >= 0) & (u < IMAGE_SIZE - 1) & (v < IMAGE_SIZE - 1)
    failures = []
    if int(valid.sum()) != int(inside.sum()):
        failures.append(f"{int(valid.sum())} colorized points, {int(inside.sum())} in raster")
    both = valid & inside
    want = _expected_colors(u[both], v[both])
    got = colors[both].astype(float)
    # a rounding tie (fraction exactly .5 up to float error) may go either way
    tie = np.abs(want - np.floor(want) - 0.5) < 1e-9
    bad = (got != np.floor(want + 0.5)) & ~tie
    if np.any(bad):
        failures.append(f"{int(np.any(bad, axis=1).sum())} points with wrong colors")
    return failures
