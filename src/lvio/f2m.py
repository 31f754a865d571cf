"""Global point-cloud map, point-to-plane association, and the F2M pose
factor.

The map keeps at most one point per `leaf_size` voxel: the first point to
arrive in a voxel is kept and later ones are dropped. Points are stored in
insertion order in one (N, 3) array, `points`, and a kd-tree over that
array answers neighbor queries (rebuilt lazily after inserts).
Registration estimates the LiDAR pose against the map by Gauss-Newton on
point-to-plane distances; the resulting loosely-coupled pose (not the raw
points) enters the sliding window through a 6-DoF pose residual, which
reads the keyframe's pose at the LiDAR sampling instant from the pass's
keyframe table (`factors.keyframe_frames`) and compensates nothing itself;
its jacobian is one (6, 16) matrix whose columns follow `f2m_keys`. The
registration settings (neighbor count, search radius, gates, iteration and
point limits) are the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .calibration import LidarImuExtrinsics
from .geometry import (
    Pose,
    exp_map,
    log_map,
    quat_conjugate,
    quat_multiply,
    quat_to_matrix,
    skew,
    so3_right_jacobian_inv,
)

# Planarity gates for neighbor sets (paper-silent association details).
PLANARITY_EIG_MAX = 0.05**2
PLANARITY_RATIO_MAX = 0.1
# Map downsampling leaf (m) and registration settings.
MAP_LEAF_SIZE = 0.1
NEIGHBORS = 5  # map points per plane fit
MAX_NEIGHBOR_DIST = 1.0  # m, kd-tree search radius
ASSOCIATION_GATE = 0.1  # m, point-to-plane distance at the initial pose
MAX_ITERATIONS = 20  # Gauss-Newton iterations per trim round
MIN_POINTS = 20  # associated points needed for a registration


class F2mObservabilityError(RuntimeError):
    """Too few associations or degenerate normal geometry."""


class F2mConvergenceError(RuntimeError):
    """Gauss-Newton failed to converge."""


@dataclass
class F2mPoseMeasurement:
    keyframe_id: int
    pose: Pose  # {p_wr, q_rw}: LiDAR frame in world
    covariance: np.ndarray  # 6x6 over (dp, dtheta)

    def __post_init__(self):
        self.covariance = np.asarray(self.covariance, dtype=float)
        if self.covariance.shape != (6, 6):
            raise ValueError("covariance must be 6x6")
        if not np.allclose(self.covariance, self.covariance.T, atol=1e-9):
            raise ValueError("covariance must be symmetric")


class GlobalPlaneMap:
    """World-frame point cloud, one point per occupied leaf voxel."""

    def __init__(self, leaf_size: float = MAP_LEAF_SIZE):
        self.leaf_size = leaf_size
        self.points = np.zeros((0, 3))
        self._leaves: set = set()  # occupied leaf voxels
        self._tree: cKDTree | None = None

    def __len__(self) -> int:
        return len(self.points)

    def insert(self, points: np.ndarray) -> int:
        """Insert world-frame points, keeping the first point of each leaf
        voxel not yet occupied. Returns the number of points stored."""
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            return 0
        if not np.all(np.isfinite(pts)):
            raise ValueError("non-finite map points")
        keys = np.floor(pts / self.leaf_size).astype(np.int64)
        take = []
        for i, leaf in enumerate(map(tuple, keys.tolist())):
            if leaf not in self._leaves:
                self._leaves.add(leaf)
                take.append(i)
        if take:
            self.points = np.concatenate([self.points, pts[take]])
            self._tree = None
        return len(take)

    def nearest(self, queries: np.ndarray, k: int = NEIGHBORS,
                max_dist: float = MAX_NEIGHBOR_DIST):
        """k nearest map points for each query; distances inf when missing."""
        queries = np.atleast_2d(queries)
        if not len(self.points):
            n = len(queries)
            return np.full((n, k), np.inf), np.zeros((n, k), dtype=int)
        if self._tree is None:
            self._tree = cKDTree(self.points)
        d, i = self._tree.query(queries, k=k, distance_upper_bound=max_dist)
        return np.atleast_2d(d), np.atleast_2d(i)


def associate(scan_w: np.ndarray, pmap: GlobalPlaneMap):
    """Associate world-frame scan points with local map planes.

    Returns (keep, normals, offsets): the indices of the associated points
    and the plane n^T x + d = 0 fitted to each one's neighbors."""
    d, idx = pmap.nearest(scan_w)
    keep = np.flatnonzero(np.all(np.isfinite(d), axis=1))
    if len(keep) == 0:
        return keep, np.zeros((0, 3)), np.zeros(0)
    # batched plane fit of every neighbor set
    neigh = pmap.points[idx[keep]]
    c = neigh.mean(axis=1)
    q = neigh - c[:, None, :]
    S = np.einsum("rki,rkj->rij", q, q) / NEIGHBORS
    w, V = np.linalg.eigh(S)
    planar = w[:, 0] <= PLANARITY_EIG_MAX
    ratio_bad = (w[:, 1] > 1e-12) & (w[:, 0] / np.maximum(w[:, 1], 1e-300)
                                     > PLANARITY_RATIO_MAX)
    planar &= ~ratio_bad
    n = V[:, :, 0]
    dom = np.take_along_axis(n, np.argmax(np.abs(n), axis=1)[:, None], axis=1)[:, 0]
    n = np.where(dom[:, None] < 0, -n, n)
    offsets = -np.einsum("ri,ri->r", n, c)
    # distance gate at the association pose: neighbor sets straddling
    # two surfaces can pass the planarity test with a bogus plane
    dist = np.abs(np.einsum("ri,ri->r", n, scan_w[keep]) + offsets)
    ok = planar & (dist <= ASSOCIATION_GATE)
    keep, normals, offsets = keep[ok], n[ok], offsets[ok]
    if len(keep) == 0:
        return keep, normals, offsets
    # adaptive sub-gate on the same distances: mismatches stand out from the
    # bulk residual scale (zero for exact data, ~sigma for noisy data)
    res0 = np.einsum("ij,ij->i", scan_w[keep], normals) + offsets
    scale = 1.4826 * np.median(np.abs(res0))
    ok = np.abs(res0) < max(3.0 * scale, 1e-8)
    return keep[ok], normals[ok], offsets[ok]


def _point_to_plane(pose: Pose, pts, normals, offsets):
    """Point-to-plane residuals of sensor-frame points at a pose, and their
    jacobian rows [n^T, -n^T R [p]x] = [n^T, (p x R^T n)^T]."""
    R = pose.rotation_matrix()
    res = np.einsum("ij,ij->i", pts @ R.T + pose.t, normals) + offsets
    return res, np.hstack([normals, np.cross(pts, normals @ R)])


def _check_normals(normals):
    """Observability: the plane normals must span 3 directions."""
    ev = np.linalg.eigvalsh(normals.T @ normals / len(normals))
    if ev[0] < 1e-3:
        raise F2mObservabilityError("degenerate plane-normal geometry")


def estimate_f2m_pose(scan_r: np.ndarray, initial_pose: Pose, pmap: GlobalPlaneMap,
                      keyframe_id: int = -1,
                      sigma_pt: float = 0.02) -> F2mPoseMeasurement:
    """Register a scan against the map by point-to-plane Gauss-Newton.

    Associations are made once at the initial pose; points farther than
    ASSOCIATION_GATE from their fitted plane there are treated as
    mismatches and dropped. The 6-DoF pose is then refined. Covariance =
    sigma_pt^2 (J^T J)^-1 at convergence.
    """
    scan = np.asarray(scan_r, dtype=float)
    if len(pmap) == 0:
        raise F2mObservabilityError("empty map")
    pose = initial_pose
    keep, normals, offsets = associate(pose.transform(scan), pmap)
    if len(keep) < MIN_POINTS:
        raise F2mObservabilityError(f"only {len(keep)} associated points")
    _check_normals(normals)

    pts = scan[keep]
    for trim_round in range(3):
        for it in range(MAX_ITERATIONS):
            res, J = _point_to_plane(pose, pts, normals, offsets)
            H = J.T @ J
            b = J.T @ res
            try:
                # tiny Tikhonov term keeps near-degenerate steps bounded
                dx = np.linalg.solve(H + 1e-9 * np.trace(H) * np.eye(6), -b)
            except np.linalg.LinAlgError as exc:
                raise F2mObservabilityError("singular registration system") from exc
            pose = Pose(pose.t + dx[:3], quat_multiply(pose.q, exp_map(dx[3:])))
            if np.linalg.norm(dx) < 1e-10:
                break
        else:
            if np.linalg.norm(dx) > 1e-5:
                raise F2mConvergenceError("registration did not converge")
        # trim residual mismatches that survived the association gate; the
        # threshold follows the observed residual scale so exact data keeps
        # only exact matches while noisy data keeps the 3-sigma band
        res, _ = _point_to_plane(pose, pts, normals, offsets)
        scale = 1.4826 * np.median(np.abs(res))
        inlier = np.abs(res) < np.clip(3.0 * scale, 1e-8, 3.0 * sigma_pt)
        if inlier.all():
            break
        if inlier.sum() < MIN_POINTS:
            raise F2mObservabilityError(
                f"only {int(inlier.sum())} inlier points after trimming")
        pts, normals, offsets = pts[inlier], normals[inlier], offsets[inlier]
        _check_normals(normals)
    _, J = _point_to_plane(pose, pts, normals, offsets)
    cov = sigma_pt**2 * np.linalg.inv(J.T @ J)
    return F2mPoseMeasurement(keyframe_id, pose, 0.5 * (cov + cov.T))


def f2m_keys(kf: int) -> list:
    """The blocks of the F2M pose residual's jacobian on keyframe kf, in
    column order."""
    return [("p", kf), ("q", kf), ("v", kf), ("lp", -1), ("lq", -1), ("ldt", -1)]


def f2m_pose_residual(frame, ext: LidarImuExtrinsics, meas: F2mPoseMeasurement,
                      want_jacobian: bool):
    """6-vector F2M pose residual (translation, Log rotation): (r, None), or
    with want_jacobian (r, J) where J is the (6, 16) jacobian laid out as
    `f2m_keys`. The covariance is ``meas.covariance``.

    frame is the measured keyframe's `factors.KeyframeFrames`; the residual
    reads its body pose at the LiDAR sampling instant, `frame.lidar`.
    """
    c = frame.lidar
    v, w = frame.velocity, frame.angular_rate

    Rm = meas.pose.rotation_matrix()
    r_t = c.RE @ ext.p_br + c.t - meas.pose.t
    q_err = quat_multiply(c.q, quat_multiply(ext.q_rb, quat_conjugate(meas.pose.q)))
    r_q = log_map(q_err)
    r = np.concatenate([r_t, r_q])
    if not want_jacobian:
        return r, None

    Rrb = quat_to_matrix(ext.q_rb)
    Jr_inv = so3_right_jacobian_inv(r_q)
    C = Rrb @ Rm.T
    B = c.E @ C

    # columns: p 0:3, q 3:6, v 6:9, lp 9:12, lq 12:15, ldt 15
    J = np.zeros((6, 16))
    J[0:3, 0:3] = np.eye(3)
    J[0:3, 3:6] = -c.R @ skew(c.E @ ext.p_br)
    J[3:6, 3:6] = Jr_inv @ B.T
    J[0:3, 6:9] = np.eye(3) * c.delta
    J[0:3, 9:12] = c.RE
    J[3:6, 12:15] = Jr_inv @ Rm
    J[0:3, 15] = v - c.RE @ (skew(ext.p_br) @ (c.Jr @ w))
    J[3:6, 15] = Jr_inv @ (C.T @ (c.Jr @ w))
    return r, J


def insert_marginalized_frame(scan_r: np.ndarray, final_body_pose: Pose,
                              ext: LidarImuExtrinsics, pmap: GlobalPlaneMap) -> int:
    """Append the world-frame points of a finalized keyframe to the map."""
    lidar_pose = final_body_pose.compose(ext.pose())
    return pmap.insert(lidar_pose.transform(np.asarray(scan_r, dtype=float)))


def export_ply(pmap_or_points, path, colors=None):
    """Write map points as ASCII PLY (x y z [r g b])."""
    pts = pmap_or_points.points if isinstance(pmap_or_points, GlobalPlaneMap) else np.asarray(pmap_or_points)
    with open(path, "w") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {len(pts)}\n")
        f.write("property float x\nproperty float y\nproperty float z\n")
        if colors is not None:
            f.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        f.write("end_header\n")
        if colors is None:
            f.writelines("%.6f %.6f %.6f\n" % tuple(p) for p in pts)
        else:
            f.writelines("%.6f %.6f %.6f %d %d %d\n" % (*p, *c)
                         for p, c in zip(pts, colors))
