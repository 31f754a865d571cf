"""IMU preintegration between keyframes and high-rate INS mechanization.

An IMU stream is an (n, 7) float array of rows (t, gx, gy, gz, ax, ay,
az): the stamp, the body angular rate in rad/s and the body specific force
in m/s^2, stamps strictly increasing, as `io.read_imu_csv` gives it.

The preintegrated deltas are expressed in the body frame of the first
sample and are independent of the global pose, velocity, and gravity.
Integration uses a midpoint scheme per sample interval; the error state
is (dp, dtheta, dv, dbg, dba) with a rotation-vector attitude error and
right multiplicative perturbation.

Gravity is the fixed world-frame constant GRAVITY_W, (0, 0, -9.81) m/s^2;
it is re-added at prediction/residual time. The bias random-walk densities
are the constants GYRO_BIAS_WALK and ACCEL_BIAS_WALK.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    Pose,
    exp_map,
    log_map,
    quat_conjugate,
    quat_multiply,
    quat_rotate,
    quat_to_matrix,
    skew,
    so3_right_jacobian,
    so3_right_jacobian_inv,
)

GRAVITY_W = np.array([0.0, 0.0, -9.81])
GYRO_BIAS_WALK = 1.0e-5  # rad/s^2/sqrt(Hz)
ACCEL_BIAS_WALK = 1.0e-4  # m/s^3/sqrt(Hz)


@dataclass
class ImuNoiseConfig:
    gyro_noise: float = 2.0e-3  # rad/s/sqrt(Hz)
    accel_noise: float = 2.0e-2  # m/s^2/sqrt(Hz)


@dataclass
class PreintegratedImu:
    delta_p: np.ndarray
    delta_v: np.ndarray
    delta_q: np.ndarray
    duration: float
    bias_g: np.ndarray
    bias_a: np.ndarray
    dp_dbg: np.ndarray
    dp_dba: np.ndarray
    dv_dbg: np.ndarray
    dv_dba: np.ndarray
    dq_dbg: np.ndarray
    covariance: np.ndarray  # 15x15 over (dp, dtheta, dv, dbg, dba)

    def corrected_deltas(self, bias_g: np.ndarray, bias_a: np.ndarray):
        """First-order bias-corrected deltas at the given biases."""
        dbg = np.asarray(bias_g, float) - self.bias_g
        dba = np.asarray(bias_a, float) - self.bias_a
        dp = self.delta_p + self.dp_dbg @ dbg + self.dp_dba @ dba
        dv = self.delta_v + self.dv_dbg @ dbg + self.dv_dba @ dba
        dq = quat_multiply(self.delta_q, exp_map(self.dq_dbg @ dbg))
        return dp, dv, dq


def _intervals(samples, bias_g, bias_a):
    """The per-interval terms of the midpoint scheme: the interval lengths,
    the bias-corrected midpoint rates and the bias-corrected specific force
    of every sample, as arrays."""
    if len(samples) < 2:
        raise ValueError("need at least 2 IMU samples")
    dt = np.diff(samples[:, 0])
    if np.any(dt <= 0.0):
        raise ValueError("IMU samples must be strictly increasing in time")
    w = samples[:, 1:4]
    return dt.tolist(), 0.5 * (w[:-1] + w[1:]) - bias_g, samples[:, 4:7] - bias_a


def integrate(samples, bias_g, bias_a, noise: ImuNoiseConfig) -> PreintegratedImu:
    """Preintegrate an (n, 7) IMU stream at the given linearization biases."""
    bias_g = np.asarray(bias_g, dtype=float)
    bias_a = np.asarray(bias_a, dtype=float)
    if not (np.all(np.isfinite(bias_g)) and np.all(np.isfinite(bias_a))):
        raise ValueError("non-finite bias")
    dts, w_mids, accs = _intervals(samples, bias_g, bias_a)

    dp = np.zeros(3)
    dv = np.zeros(3)
    dq = np.array([1.0, 0.0, 0.0, 0.0])
    R = np.eye(3)

    dp_dbg = np.zeros((3, 3))
    dp_dba = np.zeros((3, 3))
    dv_dbg = np.zeros((3, 3))
    dv_dba = np.zeros((3, 3))
    A = np.zeros((3, 3))  # dtheta/dbg, right perturbation

    P = np.zeros((15, 15))
    sg2 = noise.gyro_noise**2
    sa2 = noise.accel_noise**2
    sbg2 = GYRO_BIAS_WALK**2
    sba2 = ACCEL_BIAS_WALK**2

    for dt, w_mid, a0, a1 in zip(dts, w_mids, accs[:-1], accs[1:]):
        phi = w_mid * dt
        dq_step = exp_map(phi)
        E = quat_to_matrix(dq_step)
        Jr = so3_right_jacobian(phi)

        R_new = R @ E
        f_mid = 0.5 * (R @ a0 + R_new @ a1)

        # error-state transition (dp, dtheta, dv, dbg, dba)
        A_new = E.T @ A - Jr * dt
        df_dbg = -0.5 * (R @ skew(a0) @ A + R_new @ skew(a1) @ A_new)
        df_dba = -0.5 * (R + R_new)
        df_dth = -0.5 * (R @ skew(a0) + R_new @ skew(a1) @ E.T)

        F = np.eye(15)
        F[0:3, 3:6] = 0.5 * dt * dt * df_dth
        F[0:3, 6:9] = np.eye(3) * dt
        F[0:3, 9:12] = 0.5 * dt * dt * df_dbg
        F[0:3, 12:15] = 0.5 * dt * dt * df_dba
        F[3:6, 3:6] = E.T
        F[3:6, 9:12] = -Jr * dt
        F[6:9, 3:6] = dt * df_dth
        F[6:9, 9:12] = df_dbg * dt
        F[6:9, 12:15] = df_dba * dt

        # noise input: (ng, na, nbg, nba); ng enters attitude (and the force
        # through the rotated second sample), na enters the force directly
        G = np.zeros((15, 12))
        G[3:6, 0:3] = -Jr * dt
        G[6:9, 0:3] = -0.5 * dt * dt * (R_new @ skew(a1) @ Jr)
        G[6:9, 3:6] = -0.5 * (R + R_new) * dt
        G[0:3, 0:3] = 0.5 * dt * G[6:9, 0:3]
        G[0:3, 3:6] = 0.5 * dt * G[6:9, 3:6]
        G[9:12, 6:9] = np.eye(3)
        G[12:15, 9:12] = np.eye(3)

        Q = np.zeros((12, 12))
        Q[0:3, 0:3] = np.eye(3) * sg2 / dt
        Q[3:6, 3:6] = np.eye(3) * sa2 / dt
        Q[6:9, 6:9] = np.eye(3) * sbg2 * dt
        Q[9:12, 9:12] = np.eye(3) * sba2 * dt

        P = F @ P @ F.T + G @ Q @ G.T

        # exact first-order bias jacobians of the midpoint recursion
        dp_dbg = dp_dbg + dv_dbg * dt + 0.5 * dt * dt * df_dbg
        dp_dba = dp_dba + dv_dba * dt + 0.5 * dt * dt * df_dba
        dv_dbg = dv_dbg + df_dbg * dt
        dv_dba = dv_dba + df_dba * dt
        A = A_new

        dp = dp + dv * dt + 0.5 * f_mid * dt * dt
        dv = dv + f_mid * dt
        dq = quat_multiply(dq, dq_step)
        R = quat_to_matrix(dq)

    P = 0.5 * (P + P.T)
    return PreintegratedImu(
        delta_p=dp,
        delta_v=dv,
        delta_q=dq,
        duration=float(samples[-1, 0] - samples[0, 0]),
        bias_g=bias_g.copy(),
        bias_a=bias_a.copy(),
        dp_dbg=dp_dbg,
        dp_dba=dp_dba,
        dv_dbg=dv_dbg,
        dv_dba=dv_dba,
        dq_dbg=A,
        covariance=P,
    )


def imu_keys(ki: int, kj: int) -> list:
    """The blocks of the preintegration residual's jacobian, in column order:
    (p, q, v, bg, ba) of keyframe ki, then of kj."""
    return [(name, k) for k in (ki, kj) for name in ("p", "q", "v", "bg", "ba")]


# column slices of the preintegration jacobian, laid out as `imu_keys`
_P_I, _Q_I, _V_I, _BG_I, _BA_I, _P_J, _Q_J, _V_J, _BG_J, _BA_J = (
    slice(c, c + 3) for c in range(0, 30, 3))


def preintegration_residual(state_i, state_j, pre: PreintegratedImu, want_jacobian: bool):
    """15-vector residual (rp, rtheta, rv, rbg, rba) and its jacobian.

    ``state_i``/``state_j`` need attributes timestamp, p, q, v, bg, ba
    (see estimator.KeyframeState). Returns (r, None), or with want_jacobian
    (r, J) where J is the (15, 30) jacobian laid out as `imu_keys`: the
    (p, q, v, bg, ba) columns of state i, then of state j. Attitude columns
    use a right multiplicative perturbation q <- q (x) Exp(theta). The
    covariance is ``pre.covariance``.
    """
    T = state_j.timestamp - state_i.timestamp
    if abs(T - pre.duration) > 1e-3:
        raise ValueError(
            f"preintegration duration {pre.duration} does not match keyframe interval {T}"
        )
    Ri = quat_to_matrix(state_i.q)
    dp, dv, dq = pre.corrected_deltas(state_j.bg, state_j.ba)
    dP = state_j.p - state_i.p - state_i.v * T - 0.5 * GRAVITY_W * T * T
    dV = state_j.v - state_i.v - GRAVITY_W * T

    rp = Ri.T @ dP - dp
    rv = Ri.T @ dV - dv
    rq = log_map(
        quat_multiply(quat_conjugate(dq), quat_multiply(quat_conjugate(state_i.q), state_j.q))
    )
    r = np.concatenate([rp, rq, rv, state_j.bg - state_i.bg, state_j.ba - state_i.ba])
    if not want_jacobian:
        return r, None

    Rj = quat_to_matrix(state_j.q)
    v_bg = pre.dq_dbg @ (state_j.bg - pre.bias_g)
    M = quat_to_matrix(dq).T @ Ri.T @ Rj
    Jr_inv = so3_right_jacobian_inv(rq)

    J = np.zeros((15, 30))

    # position rows
    J[0:3, _P_I] = -Ri.T
    J[0:3, _P_J] = Ri.T
    J[0:3, _V_I] = -Ri.T * T
    J[0:3, _Q_I] = skew(Ri.T @ dP)
    J[0:3, _BG_J] = -pre.dp_dbg
    J[0:3, _BA_J] = -pre.dp_dba

    # attitude rows
    J[3:6, _Q_J] = Jr_inv
    J[3:6, _Q_I] = -Jr_inv @ Rj.T @ Ri
    J[3:6, _BG_J] = -Jr_inv @ M.T @ so3_right_jacobian(v_bg) @ pre.dq_dbg

    # velocity rows
    J[6:9, _V_I] = -Ri.T
    J[6:9, _V_J] = Ri.T
    J[6:9, _Q_I] = skew(Ri.T @ dV)
    J[6:9, _BG_J] = -pre.dv_dbg
    J[6:9, _BA_J] = -pre.dv_dba

    # bias rows
    J[9:12, _BG_I] = -np.eye(3)
    J[9:12, _BG_J] = np.eye(3)
    J[12:15, _BA_I] = -np.eye(3)
    J[12:15, _BA_J] = np.eye(3)
    return r, J


def mechanize(state, samples):
    """Forward INS mechanization from a keyframe state through an (n, 7) IMU
    stream.

    Returns (poses, velocities): lists of (timestamp, Pose) and 3-vectors,
    one per sample, starting at the first sample (= state timestamp).
    Uses the same midpoint scheme as :func:`integrate` so that the final
    pose equals the state composed with the preintegrated delta.
    """
    dts, w_mids, accs = _intervals(samples, np.asarray(state.bg, dtype=float),
                                   np.asarray(state.ba, dtype=float))
    times = samples[:, 0].tolist()
    p = np.asarray(state.p, dtype=float).copy()
    v = np.asarray(state.v, dtype=float).copy()
    q = np.asarray(state.q, dtype=float).copy()

    poses = [(times[0], Pose(p.copy(), q.copy()))]
    vels = [v.copy()]
    for t1, dt, w_mid, a0, a1 in zip(times[1:], dts, w_mids, accs[:-1], accs[1:]):
        dq_step = exp_map(w_mid * dt)
        q_new = quat_multiply(q, dq_step)
        f_mid = 0.5 * (quat_rotate(q, a0) + quat_rotate(q_new, a1))
        acc = f_mid + GRAVITY_W
        p = p + v * dt + 0.5 * acc * dt * dt
        v = v + acc * dt
        q = q_new
        poses.append((t1, Pose(p.copy(), q.copy())))
        vels.append(v.copy())
    return poses, vels


def slice_samples(samples, t0: float, t1: float):
    """The rows of an (n, 7) IMU stream over [t0, t1], an (m, 7) array whose
    first and last rows are interpolated at t0 and t1 unless a sample falls
    on them.

    The slice starts exactly at t0 and ends exactly at t1 so preintegration
    durations match keyframe intervals. The bounds are found by bisection;
    a bound up to 1e-9 s outside the stream is extrapolated linearly from
    the first or last sample interval.
    """
    t = samples[:, 0]
    if t0 < t[0] - 1e-9 or t1 > t[-1] + 1e-9:
        raise ValueError("requested interval outside the IMU stream")

    def interp(s):
        i = int(np.searchsorted(t, s))
        if i < len(t) and abs(t[i] - s) < 1e-12:
            return samples[i]
        # a bound just outside the stream extends its first or last interval
        i = min(max(i, 1), len(t) - 1)
        lo, hi = samples[i - 1], samples[i]
        a = (s - lo[0]) / (hi[0] - lo[0])
        return np.concatenate([[s], (1 - a) * lo[1:] + a * hi[1:]])

    i0 = np.searchsorted(t, t0 + 1e-12, side="right")
    i1 = np.searchsorted(t, t1 - 1e-12)
    return np.vstack([interp(t0), samples[i0:i1], interp(t1)])
