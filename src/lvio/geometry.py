"""Quaternion and rigid-body pose algebra.

Conventions used throughout the package:

* Hamilton quaternions in (w, x, y, z) order, passive rotation.
* Unit quaternions are kept on the w >= 0 hemisphere after normalization.
* A pose {t, q} maps body-frame vectors into the parent frame:
  ``x_parent = R(q) @ x_body + t``.
* Rotation vectors are axis * angle in radians, principal value |phi| <= pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Below this angle (rad) exp/log switch to 4th-order Taylor series.
SMALL_ANGLE = 1e-8


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix such that skew(a) @ b = a x b."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b for two 3-vectors, written out by components: at this size
    np.cross spends most of its time on argument handling. Use np.cross
    for (N, 3) arrays."""
    ax, ay, az = a
    bx, by, bz = b
    return np.array([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Normalize to unit length and flip to the w >= 0 hemisphere."""
    q = np.asarray(q, dtype=float)
    n = math.sqrt(q @ q)
    if not math.isfinite(n):
        raise ValueError("non-finite quaternion components")
    if n == 0.0:
        raise ValueError("zero quaternion")
    q = q / n
    if q[0] < 0.0:
        q = -q
    return q


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a (x) b."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    m = np.empty((3, 3))
    m[0, 0] = 1 - 2 * (y * y + z * z)
    m[0, 1] = 2 * (x * y - w * z)
    m[0, 2] = 2 * (x * z + w * y)
    m[1, 0] = 2 * (x * y + w * z)
    m[1, 1] = 1 - 2 * (x * x + z * z)
    m[1, 2] = 2 * (y * z - w * x)
    m[2, 0] = 2 * (x * z - w * y)
    m[2, 1] = 2 * (y * z + w * x)
    m[2, 2] = 1 - 2 * (x * x + y * y)
    return m


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate a 3-vector by a unit quaternion (equivalent to R(q) @ v)."""
    qv = q[1:]
    t = 2.0 * cross3(qv, v)
    return v + q[0] * t + cross3(qv, t)


def euler_zyx(R: np.ndarray):
    """(roll, pitch, yaw) in radians of a rotation matrix R = Rz(yaw) Ry(pitch) Rx(roll)."""
    pitch = math.asin(float(np.clip(-R[2, 0], -1.0, 1.0)))
    roll = math.atan2(R[2, 1], R[2, 2])
    yaw = math.atan2(R[1, 0], R[0, 0])
    return roll, pitch, yaw


def exp_map(phi: np.ndarray) -> np.ndarray:
    """Rotation vector -> unit quaternion."""
    phi = np.asarray(phi, dtype=float)
    angle = math.sqrt(phi @ phi)
    if not math.isfinite(angle):
        raise ValueError("non-finite rotation vector")
    half = 0.5 * angle
    if angle < SMALL_ANGLE:
        # sin(a/2)/a = 1/2 - a^2/48 + a^4/3840
        k = 0.5 - angle**2 / 48.0 + angle**4 / 3840.0
        w = 1.0 - half**2 / 2.0 + half**4 / 24.0
    else:
        k = np.sin(half) / angle
        w = np.cos(half)
    return quat_normalize(np.array([w, *(k * phi)]))


def log_map(q: np.ndarray) -> np.ndarray:
    """Unit quaternion -> principal rotation vector, |result| <= pi."""
    q = np.asarray(q, dtype=float)
    n = math.sqrt(q @ q)
    if abs(n - 1.0) > 1e-6:
        raise ValueError(f"log_map requires a unit quaternion, got norm {n}")
    q = q / n
    if q[0] < 0.0:
        q = -q
    nv = math.sqrt(q[1:] @ q[1:])
    if nv < SMALL_ANGLE:
        # phi = 2 v / w * (1 - |v|^2 / (3 w^2))
        return q[1:] * (2.0 / q[0]) * (1.0 - nv**2 / (3.0 * q[0] ** 2))
    angle = 2.0 * np.arctan2(nv, q[0])
    return q[1:] * (angle / nv)


def so3_right_jacobian(phi: np.ndarray) -> np.ndarray:
    """Jr(phi): Exp(phi + d) ~ Exp(phi) Exp(Jr(phi) d)."""
    phi = np.asarray(phi, dtype=float)
    angle = math.sqrt(phi @ phi)
    S = skew(phi)
    if angle < SMALL_ANGLE:
        return np.eye(3) - 0.5 * S + S @ S / 6.0
    a2 = angle * angle
    return (
        np.eye(3)
        - (1.0 - np.cos(angle)) / a2 * S
        + (angle - np.sin(angle)) / (a2 * angle) * (S @ S)
    )


def so3_right_jacobian_inv(phi: np.ndarray) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    angle = math.sqrt(phi @ phi)
    S = skew(phi)
    if angle < SMALL_ANGLE:
        return np.eye(3) + 0.5 * S + S @ S / 12.0
    a2 = angle * angle
    cot_term = (1.0 / a2) - (1.0 + np.cos(angle)) / (2.0 * angle * np.sin(angle))
    return np.eye(3) + 0.5 * S + cot_term * (S @ S)


@dataclass(frozen=True)
class Pose:
    """Rigid transform {t, q}: x_parent = R(q) x_body + t."""

    t: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "q", quat_normalize(self.q))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.q)

    def compose(self, other: "Pose") -> "Pose":
        """self * other (other expressed in self's frame)."""
        return Pose(self.t + quat_rotate(self.q, other.t), quat_multiply(self.q, other.q))

    def inverse(self) -> "Pose":
        qi = quat_conjugate(self.q)
        return Pose(-quat_rotate(qi, self.t), qi)

    def transform(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.ndim == 1:
            return quat_rotate(self.q, v) + self.t
        return v @ self.rotation_matrix().T + self.t


def compose_relative(a: Pose, b: Pose) -> Pose:
    """Pose of b expressed in a's frame: a^-1 * b."""
    return a.inverse().compose(b)
