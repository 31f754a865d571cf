"""Trajectory metrics and map colorization.

ATE follows the usual odometry convention: timestamp association (nearest
neighbor within a tolerance), an SE(3) Umeyama alignment of the estimate
onto the truth (no scale; can be disabled), then the RMSE of the translation
differences.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Pose, euler_zyx

ASSOC_TOL = 0.010  # s


class AssociationError(ValueError):
    """Too few associated pose pairs."""


def _nearest_pairs(estimate, truth, tol: float):
    """(t, estimated Pose, truth Pose) for each estimate record whose nearest
    truth stamp is within tol."""
    tt = np.array([t for t, _ in truth])
    for t, pose in estimate:
        i = int(np.clip(np.searchsorted(tt, t), 0, len(tt) - 1))
        if i > 0 and abs(tt[i - 1] - t) < abs(tt[i] - t):
            i -= 1
        if abs(tt[i] - t) <= tol:
            yield t, pose, truth[i][1]


def associate(estimate, truth, tol: float = ASSOC_TOL):
    """Pair (t, Pose) records by nearest timestamp within tol."""
    return [(pose, gt) for _, pose, gt in _nearest_pairs(estimate, truth, tol)]


def umeyama_se3(src: np.ndarray, dst: np.ndarray):
    """Rigid transform (R, t) minimizing ||R src + t - dst||^2 (no scale)."""
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    S = (dst - mu_d).T @ (src - mu_s) / len(src)
    U, _, Vt = np.linalg.svd(S)
    D = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        D[2, 2] = -1.0
    R = U @ D @ Vt
    return R, mu_d - R @ mu_s


def ate_rmse(estimate, truth, align: bool = True, tol: float = ASSOC_TOL) -> float:
    """RMSE of translation error over associated pairs."""
    pairs = associate(estimate, truth, tol)
    if len(pairs) < 10:
        raise AssociationError(f"only {len(pairs)} associated pairs")
    est = np.array([p.t for p, _ in pairs])
    ref = np.array([g.t for _, g in pairs])
    if align:
        R, t = umeyama_se3(est, ref)
        est = est @ R.T + t
    err = est - ref
    return float(np.sqrt(np.mean(np.sum(err**2, axis=1))))


def end_to_end_error(estimate) -> float:
    """Norm of final minus initial position (loop-closure drift)."""
    if len(estimate) < 2:
        raise ValueError("need at least 2 poses")
    return float(np.linalg.norm(estimate[-1][1].t - estimate[0][1].t))


def attitude_error_series(estimate, truth, tol: float = ASSOC_TOL):
    """Per-time (t, roll, pitch, yaw) attitude errors in degrees.

    The error rotation is expressed in the truth body frame (R_gt^T R_est)
    and decomposed ZYX."""
    out = []
    for t, pose, gt in _nearest_pairs(estimate, truth, tol):
        r, p, y = euler_zyx(gt.rotation_matrix().T @ pose.rotation_matrix())
        out.append((t, math.degrees(r), math.degrees(p), math.degrees(y)))
    if len(out) < 10:
        raise AssociationError(f"only {len(out)} associated pairs")
    return out


def colorize_points(points: np.ndarray, image: np.ndarray, cam_pose: Pose,
                    focal: float, cx: float | None = None, cy: float | None = None):
    """Bilinear RGB lookup for world points seen by a pinhole camera.

    Returns (colors uint8 (N,3), valid bool (N,)); invalid points (behind the
    camera or off the raster) keep color (0,0,0) with valid=False. Fractional
    colors are rounded half up.
    """
    img = np.asarray(image)
    h, w, _ = img.shape
    cx = (w - 1) / 2.0 if cx is None else cx
    cy = (h - 1) / 2.0 if cy is None else cy
    R = cam_pose.rotation_matrix()
    pc = (np.asarray(points, dtype=float) - cam_pose.t) @ R
    colors = np.zeros((len(pc), 3), dtype=np.uint8)
    valid = np.zeros(len(pc), dtype=bool)
    idx = np.flatnonzero(pc[:, 2] > 1e-9)
    p = pc[idx]
    u = focal * p[:, 0] / p[:, 2] + cx
    v = focal * p[:, 1] / p[:, 2] + cy
    x0, y0 = np.floor(u), np.floor(v)
    inside = (x0 >= 0) & (y0 >= 0) & (x0 + 1 <= w - 1) & (y0 + 1 <= h - 1)
    idx, u, v, x0, y0 = idx[inside], u[inside], v[inside], x0[inside], y0[inside]
    fx, fy = (u - x0)[:, None], (v - y0)[:, None]
    xi, yi = x0.astype(np.intp), y0.astype(np.intp)
    c = ((1 - fx) * (1 - fy) * img[yi, xi]
         + fx * (1 - fy) * img[yi, xi + 1]
         + (1 - fx) * fy * img[yi + 1, xi]
         + fx * fy * img[yi + 1, xi + 1])
    colors[idx] = np.floor(c + 0.5).astype(np.uint8)
    valid[idx] = True
    return colors, valid
