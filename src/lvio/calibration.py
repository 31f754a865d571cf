"""Spatial-temporal sensor models: extrinsics, time delays, compensation.

Timestamp conventions (IMU clock t_b is the reference):
    t_b = t_c + dt_bc   (camera)
    t_b = t_r + dt_br   (LiDAR)

dt_bc is modeled as a random-walk process (driving noise SIGMA_T_BC) and
carried per keyframe; dt_br is a random constant shared by the whole window.
Frames are preprocessed with one LiDAR delay, dthat_br, fixed when the
window is made; both compensations below act on the difference between an
estimated delay and that value.

The two time-delay compensations live here and nowhere else:
`compensate_feature` shifts a feature observation (used by the visual and
LiDAR-depth residuals in `factors`), and `compensate_lidar_pose` moves a
body pose to the LiDAR sampling instant. The latter is called once per
keyframe per evaluation pass, by `factors.keyframe_frames`; the LiDAR plane
and F2M pose residuals read its result from that keyframe table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Pose,
    euler_zyx,
    exp_map,
    quat_conjugate,
    quat_multiply,
    quat_normalize,
    quat_rotate,
    quat_to_matrix,
    so3_right_jacobian,
)

# Driving noise of the camera-delay random walk, s/sqrt(s).
SIGMA_T_BC = 1.0e-4


@dataclass
class CameraImuExtrinsics:
    p_bc: np.ndarray  # lever arm in body frame, m
    q_cb: np.ndarray  # camera-to-body rotation, (w,x,y,z)

    def __post_init__(self):
        self.p_bc = np.asarray(self.p_bc, dtype=float)
        self.q_cb = quat_normalize(self.q_cb)

    def pose(self) -> Pose:
        return Pose(self.p_bc, self.q_cb)


@dataclass
class LidarImuExtrinsics:
    p_br: np.ndarray  # lever arm in body frame, m
    q_rb: np.ndarray  # lidar-to-body rotation, (w,x,y,z)
    dt_br: float = 0.0  # s

    def __post_init__(self):
        self.p_br = np.asarray(self.p_br, dtype=float)
        self.q_rb = quat_normalize(self.q_rb)

    def pose(self) -> Pose:
        return Pose(self.p_br, self.q_rb)


def compensate_feature(p_u: np.ndarray, v_u: np.ndarray, delta_t: float) -> np.ndarray:
    """Shift a normalized-camera observation by the constant-velocity model.

    p_u is (x, y, 1); v_u is the 2-vector feature velocity (1/s). delta_t is
    the bias between the estimated camera delay and the delay the frame was
    preprocessed with.
    """
    out = np.asarray(p_u, dtype=float).copy()
    out[0] -= v_u[0] * delta_t
    out[1] -= v_u[1] * delta_t
    return out


def time_delay_residual(dt_bc_prev: float, dt_bc_cur: float, interval: float):
    """Random-walk residual and variance for consecutive camera delays."""
    if interval <= 0:
        raise ValueError("keyframe interval must be positive")
    return dt_bc_cur - dt_bc_prev, SIGMA_T_BC**2 * interval


@dataclass
class CompensatedLidarPose:
    """A body pose moved to the LiDAR sampling instant, with the terms the
    residual jacobians reuse."""

    t: np.ndarray  # p + v delta
    q: np.ndarray  # q (x) Exp(w delta)
    R: np.ndarray  # rotation matrix of the pose before the shift
    E: np.ndarray  # rotation matrix of Exp(w delta)
    RE: np.ndarray  # R E, the rotation matrix of q
    Jr: np.ndarray  # SO(3) right jacobian at w delta
    delta: float


def compensate_lidar_pose(pose: Pose, delta_t: float, velocity: np.ndarray,
                          angular_rate: np.ndarray) -> CompensatedLidarPose:
    """Shift a body pose to the actual LiDAR sampling instant by the
    constant-motion model: p <- p + v dt, q <- q (x) Exp(w dt).

    delta_t is the estimated LiDAR delay minus the delay the frame was
    preprocessed with.
    """
    phi = np.asarray(angular_rate, float) * delta_t
    dq = exp_map(phi)
    R = pose.rotation_matrix()
    E = quat_to_matrix(dq)
    return CompensatedLidarPose(pose.t + np.asarray(velocity, float) * delta_t,
                                quat_multiply(pose.q, dq), R, E, R @ E,
                                so3_right_jacobian(phi), delta_t)


def lidar_camera_extrinsics(cam: CameraImuExtrinsics, lid: LidarImuExtrinsics):
    """Derive the LiDAR-camera extrinsics {p_cr, q_rc} from the IMU-centric ones."""
    q_bc = quat_conjugate(cam.q_cb)
    p_cr = quat_rotate(q_bc, lid.p_br - cam.p_bc)
    q_rc = quat_multiply(q_bc, lid.q_rb)
    return p_cr, quat_normalize(q_rc)


def pixel_angle_deg(pixel_size: float, focal_length: float) -> float:
    """Angle subtended by one pixel, degrees: asin(pixel_size / focal_length)."""
    return math.degrees(math.asin(pixel_size / focal_length))


def _euler_zyx_deg(q: np.ndarray) -> np.ndarray:
    return np.degrees(euler_zyx(quat_to_matrix(q)))


def calibration_report(cam: CameraImuExtrinsics, lid: LidarImuExtrinsics,
                       dt_bc: float, stds: dict | None = None) -> str:
    """Human-readable block with estimated extrinsics and time delays."""
    stds = stds or {}
    p_cr, q_rc = lidar_camera_extrinsics(cam, lid)
    lines = ["# calibration report"]

    def vec(v):
        return " ".join(f"{x: .6f}" for x in v)

    lines.append(f"camera-imu translation (m): {vec(cam.p_bc)}")
    lines.append(f"camera-imu rotation XYZ (deg): {vec(_euler_zyx_deg(cam.q_cb))}")
    lines.append(f"lidar-imu translation (m): {vec(lid.p_br)}")
    lines.append(f"lidar-imu rotation XYZ (deg): {vec(_euler_zyx_deg(lid.q_rb))}")
    lines.append(f"lidar-camera translation (m): {vec(p_cr)}")
    lines.append(f"lidar-camera rotation XYZ (deg): {vec(_euler_zyx_deg(q_rc))}")
    lines.append(f"camera time delay (ms): {dt_bc * 1e3: .4f}")
    lines.append(f"lidar time delay (ms): {lid.dt_br * 1e3: .4f}")
    for name, val in stds.items():
        lines.append(f"std {name}: {val:.6g}")
    return "\n".join(lines) + "\n"
