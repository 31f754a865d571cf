import numpy as np
import pytest

from lvio.calibration import CameraImuExtrinsics, LidarImuExtrinsics
from lvio.estimator import BLOCK_DIMS, KeyframeState
from lvio.factors import keyframe_frames
from lvio.geometry import Pose, exp_map, quat_multiply, quat_normalize


def rand_quat(rng, max_angle=np.pi * 0.9):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return exp_map(axis * rng.uniform(0, max_angle))


def rand_pose(rng, scale=1.0):
    return Pose(rng.normal(scale=scale, size=3), rand_quat(rng))


def fd_jacobian(f, dim, eps=1e-6):
    """Central finite differences of f: R^dim -> R^m around zero."""
    r0 = np.atleast_1d(f(np.zeros(dim)))
    J = np.zeros((r0.size, dim))
    for i in range(dim):
        d = np.zeros(dim)
        d[i] = eps
        rp = np.atleast_1d(f(d))
        rm = np.atleast_1d(f(-d))
        J[:, i] = (rp - rm) / (2 * eps)
    return J


def rel_error(J_analytic, J_fd):
    scale = max(np.linalg.norm(J_fd), 1e-6)
    return np.linalg.norm(J_analytic - J_fd) / scale


def key_columns(J, keys):
    """key -> the columns of the jacobian J laid out by the key list keys."""
    out, col = {}, 0
    for key in keys:
        d = BLOCK_DIMS[key[0]]
        out[key] = J[:, col:col + d]
        col += d
    assert col == J.shape[1], (col, J.shape)
    return out


def perturb_pose(pose, dp, dq):
    return Pose(pose.t + dp, quat_multiply(pose.q, exp_map(dq)))


def keyframe_table(poses, cam_ext, lid_ext, dthat_br=0.0, v=None, w=None, dt_bc=None):
    """keyframe_id -> KeyframeFrames of the given body poses, built by the
    estimator's builder. v, w and dt_bc map keyframe ids to velocity,
    angular rate and camera delay (zero where absent)."""
    v, w, dt_bc = v or {}, w or {}, dt_bc or {}
    return {k: keyframe_frames(KeyframeState(0.0, pose.t, pose.q, v.get(k, np.zeros(3)),
                                             dt_bc=dt_bc.get(k, 0.0),
                                             angular_rate=w.get(k, np.zeros(3))),
                               cam_ext, lid_ext, dthat_br)
            for k, pose in poses.items()}


def lidar_frame(body, ext, dt_br=0.0, dthat_br=0.0, v=None, w=None):
    """KeyframeFrames of one body pose with the LiDAR extrinsics of ext at
    LiDAR delay dt_br (identity camera extrinsics)."""
    lid = LidarImuExtrinsics(ext.p_br, ext.q_rb, dt_br)
    cam = CameraImuExtrinsics(np.zeros(3), np.array([1.0, 0, 0, 0]))
    return keyframe_table({0: body}, cam, lid, dthat_br,
                          v=None if v is None else {0: v}, w=None if w is None else {0: w})[0]


@pytest.fixture
def rng():
    return np.random.default_rng(42)
