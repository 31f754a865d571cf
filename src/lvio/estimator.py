"""Sliding-window factor-graph estimator.

State vector: per-keyframe {p, q, v, b_g, b_a, dt_bc} plus window-global
camera-IMU and LiDAR-IMU extrinsics and the LiDAR time delay. Parameter
blocks are keyed by (name, keyframe_id); attitude blocks live on the
rotation manifold with a right multiplicative perturbation.

The optimizer is a dense Levenberg-Marquardt over the assembled factors:
IMU preintegration and time-delay random walks between consecutive
keyframes, pose-only visual / LiDAR-depth / LiDAR-plane factors, the
loosely-coupled F2M pose factor on the oldest and newest keyframes, simple
Gaussian priors, and the marginalization prior. When the window is full the
oldest keyframe is folded into the prior by a Schur complement over the
factors of the frame's own problem, relinearized at the solution; the F2M
factor on that keyframe is removed beforehand (it carries absolute map
information whose marginalization would make the estimator inconsistent)
unless the "marg_f2m" ablation keeps it.

Each Factor wraps one pure residual function and whitens its output with
noise the factor holds itself: the pixel sigma for the camera factors, a
Cholesky factor of the preintegration or F2M covariance built once, and
the variance that the LiDAR plane and time-delay residuals return. A
factor's jacobian is one (len(r), n) matrix whose columns follow its
keys(), and `AssembledProblem` maps those columns to state columns once per
problem, so a linearize pass only evaluates, weights and scatters. Every
cost or linearize pass builds one keyframe table, `WindowState.frames()`:
each keyframe's body, camera and LiDAR-instant frames, derived once by
`factors.keyframe_frames` from its state, the window's extrinsics and its
single LiDAR preprocessing delay `WindowState.dthat_br`. Every factor of
the pass reads that table. Covariances of the solution are read from an
information matrix by `covariance_blocks`.

The window's camera measurements are one observation table fed by the
feature rows of each `FrameBundle`; a track is the group of one landmark's
rows, and a camera factor holds its anchors, observer and their three rows.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky, solve_triangular

from . import factors as pa
from .calibration import CameraImuExtrinsics, LidarImuExtrinsics, time_delay_residual
from .f2m import (
    F2mConvergenceError,
    F2mObservabilityError,
    F2mPoseMeasurement,
    GlobalPlaneMap,
    estimate_f2m_pose,
    f2m_keys,
    f2m_pose_residual,
    insert_marginalized_frame,
)
from .geometry import Pose, exp_map, log_map, quat_conjugate, quat_multiply, quat_normalize, quat_to_matrix
from .imu import (
    ImuNoiseConfig,
    PreintegratedImu,
    imu_keys,
    integrate,
    mechanize,
    preintegration_residual,
    slice_samples,
)
from .io import group_rows

log = logging.getLogger(__name__)

MODES = ("full", "no_f2m", "marg_f2m", "no_calib", "lio", "vio")

# manifold dimension of each block name
BLOCK_DIMS = {
    "p": 3, "q": 3, "v": 3, "bg": 3, "ba": 3, "dt": 1,
    "cp": 3, "cq": 3, "lp": 3, "lq": 3, "ldt": 1,
}
# where each block lives: (owner, attribute), the owner being the keyframe
# named by the block's id or one of the window's extrinsics objects
BLOCK_ATTRS = {
    "p": ("keyframe", "p"), "q": ("keyframe", "q"), "v": ("keyframe", "v"),
    "bg": ("keyframe", "bg"), "ba": ("keyframe", "ba"), "dt": ("keyframe", "dt_bc"),
    "cp": ("cam_ext", "p_bc"), "cq": ("cam_ext", "q_cb"),
    "lp": ("lid_ext", "p_br"), "lq": ("lid_ext", "q_rb"), "ldt": ("lid_ext", "dt_br"),
}
QUAT_BLOCKS = ("q", "cq", "lq")
CALIB_BLOCKS = ("dt", "cp", "cq", "lp", "lq", "ldt")

# Standard deviations of the anchor priors set at initialization, per block.
ANCHOR_PRIOR_SIGMAS = {
    "p": 1e-3, "q": 1e-3, "v": 0.05, "bg": 5e-3, "ba": 5e-2,
    "dt": 0.05, "cp": 0.05, "cq": 0.05, "lp": 0.05, "lq": 0.05, "ldt": 0.05,
}
# Raised by a factor whose geometry breaks down at a state: no cost there.
GEOMETRY_ERRORS = (pa.CheiralityError, pa.DegenerateParallaxError, pa.PlaneFitError)
HUBER_DELTA = 1.0  # whitened-residual norm where the robust cost turns linear
GRAD_TOL = 1e-10  # LM stops when the gradient's largest entry is below this
# Sanity bounds on the bias norms of a keyframe state.
MAX_GYRO_BIAS = 0.1  # rad/s
MAX_ACCEL_BIAS = 2.0  # m/s^2


@dataclass
class KeyframeState:
    timestamp: float  # IMU-clock epoch of the state
    p: np.ndarray
    q: np.ndarray
    v: np.ndarray
    bg: np.ndarray = field(default_factory=lambda: np.zeros(3))
    ba: np.ndarray = field(default_factory=lambda: np.zeros(3))
    dt_bc: float = 0.0
    angular_rate: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.q = quat_normalize(self.q)
        self.v = np.asarray(self.v, dtype=float)
        self.bg = np.asarray(self.bg, dtype=float)
        self.ba = np.asarray(self.ba, dtype=float)
        if np.linalg.norm(self.bg) >= MAX_GYRO_BIAS:
            raise ValueError("gyro bias outside sanity bound")
        if np.linalg.norm(self.ba) >= MAX_ACCEL_BIAS:
            raise ValueError("accel bias outside sanity bound")

    def pose(self) -> Pose:
        return Pose(self.p, self.q)


@dataclass
class PriorInfo:
    """Gaussian prior from marginalization: r(x) = r0 + S * boxminus(x, lin)."""

    keys: list
    lin: dict
    sqrt_info: np.ndarray
    r0: np.ndarray


class WindowState:
    """Keyframe states plus the window-global calibration states.

    dthat_br is the LiDAR delay every frame is preprocessed with: the
    estimate of dt_br when the window is made, fixed from then on."""

    def __init__(self, cam_ext: CameraImuExtrinsics, lid_ext: LidarImuExtrinsics,
                 window_size: int = 10):
        self.keyframes: dict[int, KeyframeState] = {}
        self.cam_ext = cam_ext
        self.lid_ext = lid_ext
        self.dthat_br = lid_ext.dt_br
        self.window_size = window_size
        self.prior: PriorInfo | None = None

    def ordered_ids(self):
        return sorted(self.keyframes)

    def add(self, kf_id: int, state: KeyframeState):
        ids = self.ordered_ids()
        if ids and state.timestamp <= self.keyframes[ids[-1]].timestamp:
            raise ValueError("keyframe timestamps must be strictly increasing")
        if len(self.keyframes) >= self.window_size + 1:
            raise ValueError("window overfull; marginalize first")
        self.keyframes[kf_id] = state

    def copy(self) -> "WindowState":
        return copy.deepcopy(self)

    def frames(self) -> dict:
        """keyframe_id -> factors.KeyframeFrames at the current states: the
        table every factor of one evaluation pass reads."""
        return {k: pa.keyframe_frames(s, self.cam_ext, self.lid_ext, self.dthat_br)
                for k, s in self.keyframes.items()}

    # parameter-block access -------------------------------------------------

    def _owner(self, key):
        owner, attr = BLOCK_ATTRS[key[0]]
        return (self.keyframes[key[1]] if owner == "keyframe"
                else getattr(self, owner)), attr

    def get_block(self, key):
        obj, attr = self._owner(key)
        value = getattr(obj, attr)
        return np.array([value]) if BLOCK_DIMS[key[0]] == 1 else value

    def retract(self, key, delta):
        obj, attr = self._owner(key)
        value = getattr(obj, attr)
        delta = np.asarray(delta, dtype=float)
        if key[0] in QUAT_BLOCKS:
            setattr(obj, attr, quat_multiply(value, exp_map(delta)))
        elif BLOCK_DIMS[key[0]] == 1:
            setattr(obj, attr, value + float(delta[0]))
        else:
            setattr(obj, attr, value + delta)


def boxminus(name: str, value, reference) -> np.ndarray:
    """Local-coordinate difference value (-) reference for one block."""
    if name in QUAT_BLOCKS:
        return log_map(quat_multiply(quat_conjugate(reference), value))
    return np.atleast_1d(np.asarray(value, float) - np.asarray(reference, float))


# --------------------------------------------------------------------------
# factors (whitened residual + jacobian wrappers over the pure functions)
# --------------------------------------------------------------------------


class Factor:
    kind = "generic"
    robust = False

    def keys(self):
        """The parameter blocks the factor touches, in the column order of
        its jacobian."""
        raise NotImplementedError

    def evaluate(self, window: WindowState, frames: dict, want_jacobian: bool):
        """(whitened residual r, whitened jacobian J or None): J is one
        (len(r), sum of the dimensions of keys()) array whose columns follow
        keys(). frames is the pass's `WindowState.frames()` table."""
        raise NotImplementedError


class ImuFactor(Factor):
    kind = "imu"

    def __init__(self, ki: int, kj: int, pre: PreintegratedImu):
        self.ki, self.kj, self.pre = ki, kj, pre
        cov = pre.covariance + np.eye(15) * 1e-14
        self._L = cholesky(cov, lower=True)

    def keys(self):
        return imu_keys(self.ki, self.kj)

    def evaluate(self, window, frames, want_jacobian):
        r, J = preintegration_residual(window.keyframes[self.ki], window.keyframes[self.kj],
                                       self.pre, want_jacobian)
        rw = solve_triangular(self._L, r, lower=True)
        return rw, solve_triangular(self._L, J, lower=True) if want_jacobian else None


class TimeDelayFactor(Factor):
    kind = "timedelay"

    def __init__(self, ki: int, kj: int, interval: float):
        self.ki, self.kj = ki, kj
        self.interval = interval

    def keys(self):
        return [("dt", self.ki), ("dt", self.kj)]

    def evaluate(self, window, frames, want_jacobian):
        r, var = time_delay_residual(window.keyframes[self.ki].dt_bc,
                                     window.keyframes[self.kj].dt_bc,
                                     self.interval)
        s = 1.0 / np.sqrt(var)
        return np.array([r * s]), np.array([[-s, s]]) if want_jacobian else None


class _CameraFactor(Factor):
    """kfs = (zeta, eta, j), the anchors and the observer; obs their (3, 5)
    observation-table rows; depth the LiDAR depth (d, sigma) at zeta or None."""

    robust = True

    def __init__(self, kfs: tuple, obs: np.ndarray, depth, sigma_u: float):
        self.kfs, self.obs, self.depth, self.sigma_u = kfs, obs, depth, sigma_u

    def keys(self):
        return pa.camera_keys(self.kfs)


class VisualFactor(_CameraFactor):
    kind = "visual"

    def evaluate(self, window, frames, want_jacobian):
        r, J = pa.visual_pa_residual(self.kfs, self.obs, frames, window.cam_ext,
                                     want_jacobian)
        s = 1.0 / self.sigma_u  # cov = sigma_u^2 I
        return s * r, None if J is None else s * J


class DepthFactor(_CameraFactor):
    kind = "depth"

    def evaluate(self, window, frames, want_jacobian):
        r, J = pa.lidar_depth_pa_residual(self.kfs, self.obs, self.depth, frames,
                                          window.cam_ext, want_jacobian)
        # cov = diag(sigma_u^2, sigma_u^2, 1): the depth row is already whitened
        w = np.array([1.0 / self.sigma_u, 1.0 / self.sigma_u, 1.0])
        return w * r, None if J is None else w[:, None] * J


class LidarPaFactor(Factor):
    kind = "lidar"
    robust = True

    def __init__(self, cluster: pa.PlaneCluster):
        self.cluster = cluster

    def keys(self):
        return pa.plane_keys(self.cluster)

    def evaluate(self, window, frames, want_jacobian):
        r, J, var = pa.lidar_pa_residual(self.cluster, frames, window.lid_ext, want_jacobian)
        s = 1.0 / np.sqrt(var)  # scalar residual
        return s * r, None if J is None else s * J


class F2mFactor(Factor):
    kind = "f2m"
    robust = True

    def __init__(self, meas: F2mPoseMeasurement):
        self.meas = meas
        self._L = cholesky(meas.covariance + np.eye(6) * 1e-12, lower=True)

    def keys(self):
        return f2m_keys(self.meas.keyframe_id)

    def evaluate(self, window, frames, want_jacobian):
        r, J = f2m_pose_residual(frames[self.meas.keyframe_id], window.lid_ext, self.meas,
                                 want_jacobian)
        rw = solve_triangular(self._L, r, lower=True)
        if not want_jacobian:
            return rw, None
        # the one-column ldt block is whitened alone: a one-column triangular
        # solve rounds differently from a column of a wider one
        return rw, np.hstack([solve_triangular(self._L, J[:, :15], lower=True),
                              solve_triangular(self._L, J[:, 15:], lower=True)])


class GaussianPriorFactor(Factor):
    """Independent Gaussian prior on a single block."""

    kind = "prior"

    def __init__(self, key, value, sigma):
        self.key = key
        self.value = np.atleast_1d(np.asarray(value, dtype=float))
        sigma = np.broadcast_to(np.atleast_1d(sigma), (BLOCK_DIMS[key[0]],))
        self._w = 1.0 / np.asarray(sigma, dtype=float)

    def keys(self):
        return [self.key]

    def evaluate(self, window, frames, want_jacobian):
        d = boxminus(self.key[0], window.get_block(self.key), self.value)
        rw = self._w * d
        return rw, np.diag(self._w) if want_jacobian else None


class MarginalPriorFactor(Factor):
    kind = "marginal"

    def __init__(self, info: PriorInfo):
        self.info = info

    def keys(self):
        return list(self.info.keys)

    def evaluate(self, window, frames, want_jacobian):
        dx = np.concatenate([
            boxminus(k[0], window.get_block(k), self.info.lin[k]) for k in self.info.keys
        ]) if self.info.keys else np.zeros(0)
        rw = self.info.r0 + self.info.sqrt_info @ dx
        return rw, self.info.sqrt_info if want_jacobian else None


# --------------------------------------------------------------------------
# problem assembly and solving
# --------------------------------------------------------------------------


def robust_weight(residual_norm: float, delta: float) -> float:
    """Huber IRLS weight for a whitened residual norm."""
    if residual_norm <= delta:
        return 1.0
    return delta / residual_norm


def huber_cost(residual_norm: float, delta: float) -> float:
    if residual_norm <= delta:
        return residual_norm**2
    return delta * (2.0 * residual_norm - delta)


@dataclass
class AssembledProblem:
    blocks: list  # ordered free parameter blocks
    factors: list

    def __post_init__(self):
        self.index = {}
        off = 0
        for key in self.blocks:
            d = BLOCK_DIMS[key[0]]
            self.index[key] = (off, d)
            off += d
        self.dim = off
        self._scatter = [self._columns(f) for f in self.factors]

    def _columns(self, factor):
        """(its jacobian columns to keep or None for all, their state
        columns, the H index of those) of one factor, or None when it
        touches no free block: a block that is not free (the calibration
        blocks in `no_calib`) is a column selection dropped from J."""
        kept, state, col = [], [], 0
        for key in factor.keys():
            d = BLOCK_DIMS[key[0]]
            if key in self.index:
                kept += range(col, col + d)
                state += range(self.index[key][0], self.index[key][0] + d)
            col += d
        if not state:
            return None
        idx = np.array(state)
        return (None if len(kept) == col else np.array(kept)), idx, np.ix_(idx, idx)

    @property
    def stats(self):
        counts: dict = {}
        for f in self.factors:
            counts[f.kind] = counts.get(f.kind, 0) + 1
        return counts

    def cost(self, window: WindowState) -> float:
        total = 0.0
        frames = window.frames()
        for f in self.factors:
            r, _ = f.evaluate(window, frames, False)
            n = float(np.linalg.norm(r))
            total += huber_cost(n, HUBER_DELTA) if f.robust else n * n
        return total

    def linearize(self, window: WindowState):
        """Gauss-Newton normal equations (H, g) and robustified cost."""
        H = np.zeros((self.dim, self.dim))
        g = np.zeros(self.dim)
        cost = 0.0
        frames = window.frames()
        for f, scatter in zip(self.factors, self._scatter):
            r, J = f.evaluate(window, frames, True)
            n = float(np.linalg.norm(r))
            if f.robust:
                cost += huber_cost(n, HUBER_DELTA)
                w = robust_weight(n, HUBER_DELTA)
            else:
                cost += n * n
                w = 1.0
            if scatter is None:
                continue
            kept, idx, block = scatter
            Jloc = J if kept is None else J[:, kept]
            JtW = w * Jloc.T
            g[idx] += JtW @ r
            H[block] += JtW @ Jloc
        return H, g, cost


class IndefiniteSystemError(RuntimeError):
    """Damped normal equations not positive definite."""


@dataclass
class SolveStats:
    iterations: int = 0
    initial_cost: float = 0.0
    final_cost: float = 0.0
    converged: bool = False
    failed_trials: int = 0  # trial steps rejected because their cost raised


def lm_solve(problem: AssembledProblem, window: WindowState,
             max_iterations: int = 30, rel_tol: float = 1e-8) -> tuple[SolveStats, np.ndarray]:
    """Levenberg-Marquardt on the manifold, updating window in place. A trial
    step whose cost raises a factor-geometry error is rejected like a step
    that raises the cost. Returns (SolveStats, H at the solution)."""
    lam = 1e-6
    stats = SolveStats()
    H, g, cost = problem.linearize(window)
    stats.initial_cost = cost
    for it in range(max_iterations):
        stats.iterations = it + 1
        if np.linalg.norm(g, np.inf) < GRAD_TOL:
            stats.converged = True
            break
        accepted = False
        solved_any = False
        for _ in range(12):
            damped = H + lam * np.diag(np.maximum(np.diag(H), 1e-12))
            try:
                c = cho_factor(damped, lower=True)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            solved_any = True
            dx = cho_solve(c, -g)
            trial = window.copy()
            for key, (off, d) in problem.index.items():
                trial.retract(key, dx[off:off + d])
            try:
                new_cost = problem.cost(trial)
            except GEOMETRY_ERRORS:
                stats.failed_trials += 1
                new_cost = np.inf
            if new_cost <= cost + 1e-15:
                window.keyframes = trial.keyframes
                window.cam_ext = trial.cam_ext
                window.lid_ext = trial.lid_ext
                lam = max(lam * 0.3, 1e-12)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            if not solved_any:
                raise IndefiniteSystemError("damped normal equations never factored")
            # no step decreases the cost: numerically at a local minimum
            stats.converged = True
            break
        prev = cost
        H, g, cost = problem.linearize(window)
        if prev - cost < rel_tol * max(prev, 1e-300):
            stats.converged = True
            break
    stats.final_cost = cost
    return stats, H


def _eig_sqrt_info(H, b, floor=1e-10):
    """Square-root information form of 0.5 dx' H dx + b' dx via eigendecomposition."""
    H = 0.5 * (H + H.T)
    w, V = np.linalg.eigh(H)
    keep = w > floor * max(w.max(), 1.0)
    s = w[keep]
    U = V[:, keep]
    sqrt_info = np.sqrt(s)[:, None] * U.T
    r0 = (1.0 / np.sqrt(s)) * (U.T @ b)
    return sqrt_info, r0


def marginalize_factors(window: WindowState, factors: list, marg_keys: list,
                        allowed_keys=None) -> PriorInfo:
    """Schur-complement the given blocks out of the given factors.

    Keys outside allowed_keys (when given) are held constant and excluded
    from the prior."""
    marg_keys = list(marg_keys)
    retained = []
    for f in factors:
        for k in f.keys():
            if k in marg_keys or k in retained:
                continue
            if allowed_keys is not None and k not in allowed_keys:
                continue
            retained.append(k)
    retained.sort(key=lambda k: (k[1], k[0]))
    blocks = marg_keys + retained
    prob = AssembledProblem(blocks, factors)
    H, g, _ = prob.linearize(window)
    nm = sum(BLOCK_DIMS[k[0]] for k in marg_keys)

    Hmm = H[:nm, :nm]
    Hmr = H[:nm, nm:]
    Hrr = H[nm:, nm:]
    gm, gr = g[:nm], g[nm:]
    w, V = np.linalg.eigh(0.5 * (Hmm + Hmm.T))
    inv = np.where(w > 1e-10 * max(w.max(), 1.0), 1.0 / np.maximum(w, 1e-300), 0.0)
    Hmm_inv = (V * inv) @ V.T
    Hn = Hrr - Hmr.T @ Hmm_inv @ Hmr
    bn = gr - Hmr.T @ (Hmm_inv @ gm)
    sqrt_info, r0 = _eig_sqrt_info(Hn, bn)
    lin = {k: np.array(window.get_block(k), copy=True) for k in retained}
    return PriorInfo(retained, lin, sqrt_info, r0)


def covariance_blocks(H: np.ndarray, index: dict, keys) -> dict:
    """Covariance block of each requested key that the problem index holds,
    read from the information matrix H (one inversion for all keys)."""
    try:
        cov = np.linalg.inv(H)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteSystemError("singular information matrix") from exc
    out = {}
    for k in keys:
        if k in index:
            off, d = index[k]
            out[k] = cov[off:off + d, off:off + d]
    return out


def yaw_std(window: WindowState, kf_id: int, cov_q: np.ndarray) -> float:
    """Yaw standard deviation (rad) from the body-frame attitude covariance."""
    R = window.keyframes[kf_id].pose().rotation_matrix()
    a = R.T @ np.array([0.0, 0.0, 1.0])  # world z expressed in body axes
    return float(np.sqrt(max(a @ cov_q @ a, 0.0)))


# --------------------------------------------------------------------------
# the per-frame pipeline
# --------------------------------------------------------------------------


@dataclass
class EstimatorConfig:
    window_size: int = 10
    mode: str = "full"
    sigma_u: float = 1e-3  # normalized-coordinate pixel noise
    max_iterations: int = 12
    rel_tol: float = 1e-8  # relative cost-decrease convergence threshold
    imu_noise: ImuNoiseConfig = field(default_factory=ImuNoiseConfig)
    f2m_sigma_pt: float = 0.02
    max_cluster_points: int = 24
    max_tracks: int = 40
    max_clusters: int = 30

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class FrameBundle:
    """One frame at its camera/LiDAR stamp on the sensor clock. features:
    (n, 7) rows (landmark_id, ux, uy, vx, vy, depth, depth_sigma) as
    `io.read_features_csv` gives them, depth NaN when absent; clusters:
    (cluster_ids (n,), points (n, 3) in the LiDAR frame) or None; scan: points."""

    stamp: float
    features: np.ndarray = field(default_factory=lambda: np.zeros((0, 7)))
    clusters: tuple | None = None

    @property
    def scan(self) -> np.ndarray | None:
        return None if self.clusters is None else self.clusters[1]


@dataclass
class OdometryOutput:
    timestamp: float
    pose: Pose
    velocity: np.ndarray


class Estimator:
    """Sliding-window LiDAR-visual-inertial odometry."""

    def __init__(self, cam_ext: CameraImuExtrinsics, lid_ext: LidarImuExtrinsics,
                 config: EstimatorConfig | None = None):
        self.cfg = config or EstimatorConfig()
        self.window = WindowState(copy.deepcopy(cam_ext), copy.deepcopy(lid_ext),
                                  self.cfg.window_size)
        self.map = GlobalPlaneMap()
        self._imu = np.zeros((0, 7))  # the IMU stream, see `set_imu`
        self._next_id = 0
        # the observation table, a row per stored feature: keyframe id, landmark
        # id, entry number (the landmark's place in track order, handed out when
        # it is seen with no row stored) and (ux, uy, 1, vx, vy)
        self._obs_kf = np.zeros(0, dtype=int)
        self._obs_lm = np.zeros(0, dtype=int)
        self._obs_entry = np.zeros(0, dtype=int)
        self._obs = np.zeros((0, 5))
        self._entries = 0  # entry numbers handed out
        self._depths: dict = {}  # landmark_id -> (kf, depth, sigma), its first since entry
        self._clusters: dict = {}  # cluster_id -> {kf: (n, 3) p_r}
        self._scans: dict = {}  # kf -> scan array
        self._preints: dict = {}  # (ki, kj) -> PreintegratedImu
        self._f2m: dict = {}  # kf -> F2mPoseMeasurement
        self._static_priors: list[GaussianPriorFactor] = []
        self._finalized: list[OdometryOutput] = []
        self.yaw_std_series: list = []  # (timestamp, yaw std rad)
        self.solve_log: list[SolveStats] = []

    # -- properties ----------------------------------------------------------

    @property
    def uses_camera(self) -> bool:
        return self.cfg.mode != "lio"

    @property
    def uses_lidar_planes(self) -> bool:
        return self.cfg.mode != "vio"

    @property
    def uses_f2m(self) -> bool:
        return self.cfg.mode not in ("no_f2m", "vio")

    @property
    def calibrates(self) -> bool:
        return self.cfg.mode != "no_calib"

    # -- setup ----------------------------------------------------------------

    def set_imu(self, samples):
        """The (n, 7) IMU stream, as `io.read_imu_csv` checks and gives it."""
        if len(samples) < 2:
            raise ValueError("need at least 2 IMU samples")
        self._imu = samples

    def initialize(self, bundle: FrameBundle, p, q, v, bg=None, ba=None,
                   dt_bc: float = 0.0):
        """Seed the first keyframe from an externally supplied state; dt_bc
        is the initial camera delay."""
        if self.window.keyframes:
            raise RuntimeError("already initialized")
        t0 = bundle.stamp + self.window.dthat_br
        state = KeyframeState(t0, p, q, v,
                              np.zeros(3) if bg is None else bg,
                              np.zeros(3) if ba is None else ba,
                              dt_bc,
                              angular_rate=self._gyro_at(t0, np.zeros(3) if bg is None else bg))
        kf = self._next_id
        self._next_id += 1
        self.window.add(kf, state)
        self._store_measurements(kf, bundle)
        self._make_initial_priors(kf)
        if self.uses_f2m and bundle.scan is not None:
            insert_marginalized_frame(bundle.scan, state.pose(), self.window.lid_ext,
                                      self.map)

    def _gyro_at(self, t, bg):
        if not len(self._imu):
            return np.zeros(3)
        i = min(int(np.searchsorted(self._imu[:, 0], t)), len(self._imu) - 1)
        return self._imu[i, 1:4] - np.asarray(bg, float)

    def _store_measurements(self, kf, bundle: FrameBundle):
        feats = bundle.features
        if self.uses_camera and len(feats):
            lms = feats[:, 0].astype(int)
            entry = dict(zip(self._obs_lm.tolist(), self._obs_entry.tolist()))
            for lm in lms.tolist():
                if lm not in entry:
                    entry[lm] = self._entries
                    self._entries += 1
            self._obs_kf = np.append(self._obs_kf, np.full(len(feats), kf))
            self._obs_lm = np.append(self._obs_lm, lms)
            self._obs_entry = np.append(self._obs_entry, [entry[lm] for lm in lms.tolist()])
            self._obs = np.vstack([self._obs, np.column_stack(
                [feats[:, 1:3], np.ones(len(feats)), feats[:, 3:5]])])
            if self.uses_lidar_planes:
                for lm, d, sigma in feats[~np.isnan(feats[:, 5])][:, [0, 5, 6]].tolist():
                    self._depths.setdefault(int(lm), (kf, d, sigma))
        if self.uses_lidar_planes and bundle.clusters is not None:
            cluster_ids, points = bundle.clusters
            for cluster_id, rows in group_rows(cluster_ids):
                self._clusters.setdefault(int(cluster_id), {})[kf] = points[rows]
        if bundle.scan is not None:
            self._scans[kf] = bundle.scan

    # -- per-frame pipeline -----------------------------------------------------

    def process_frame(self, bundle: FrameBundle) -> OdometryOutput:
        if not self.window.keyframes:
            raise RuntimeError("call initialize() first")
        ids = self.window.ordered_ids()
        last = self.window.keyframes[ids[-1]]
        t_k = bundle.stamp + self.window.dthat_br
        segment = slice_samples(self._imu, last.timestamp, t_k)
        pre = integrate(segment, last.bg, last.ba, self.cfg.imu_noise)
        poses, vels = mechanize(last, segment)
        _, pose_pred = poses[-1]
        state = KeyframeState(t_k, pose_pred.t, pose_pred.q, vels[-1],
                              last.bg.copy(), last.ba.copy(), last.dt_bc,
                              angular_rate=segment[-1, 1:4] - last.bg)
        kf = self._next_id
        self._next_id += 1
        self.window.add(kf, state)
        self._preints[(ids[-1], kf)] = pre
        self._store_measurements(kf, bundle)

        if self.uses_f2m and bundle.scan is not None and len(self.map):
            lidar_pred = pose_pred.compose(self.window.lid_ext.pose())
            try:
                self._f2m[kf] = estimate_f2m_pose(
                    bundle.scan, lidar_pred, self.map, keyframe_id=kf,
                    sigma_pt=self.cfg.f2m_sigma_pt)
            except (F2mObservabilityError, F2mConvergenceError) as exc:
                log.warning("F2M skipped for keyframe %d: %s", kf, exc)

        problem = self.build_problem()
        stats, H = lm_solve(problem, self.window,
                            max_iterations=self.cfg.max_iterations,
                            rel_tol=self.cfg.rel_tol)
        self.solve_log.append(stats)
        self._record_yaw_std(problem, kf, H)

        if len(self.window.keyframes) > self.cfg.window_size:
            self.marginalize_oldest(problem)
        s = self.window.keyframes[kf]
        return OdometryOutput(s.timestamp, s.pose(), s.v.copy())

    def _record_yaw_std(self, problem, kf, H):
        key = ("q", kf)
        if key not in problem.index:
            return
        try:
            cov = covariance_blocks(H, problem.index, [key])[key]
        except IndefiniteSystemError:
            return
        t = self.window.keyframes[kf].timestamp
        self.yaw_std_series.append((t, yaw_std(self.window, kf, cov)))

    # -- problem assembly ---------------------------------------------------------

    def _make_initial_priors(self, k0: int):
        """Anchor priors, created once at initialization time."""
        keys = [("p", k0), ("q", k0), ("v", k0), ("bg", k0), ("ba", k0)]
        if self.calibrates:
            keys += [("dt", k0), ("cp", -1), ("cq", -1), ("lp", -1), ("lq", -1),
                     ("ldt", -1)]
        self._static_priors = [
            GaussianPriorFactor(key, np.array(self.window.get_block(key), copy=True),
                                ANCHOR_PRIOR_SIGMAS[key[0]])
            for key in keys
        ]

    def _tracks_in_window(self):
        """[(rows, zeta, eta, depth)] per landmark with two or more rows, in
        entry order: its observation-table rows (in keyframe order), its
        anchors, and its LiDAR depth (d, sigma) when the keyframe of the
        depth is still in the window, else None."""
        frames = self.window.frames()
        order = np.argsort(self._obs_entry, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(self._obs_entry[order])) + 1)
        tracks = []
        for rows in groups:
            kfs = self._obs_kf[rows].tolist()
            if len(kfs) < 2:
                continue
            depth = self._depths.get(int(self._obs_lm[rows[0]]))
            zeta = depth[0] if depth is not None and depth[0] in frames else None
            try:
                z, e = pa.select_anchors(kfs, self._obs[rows, :3], frames, zeta)
            except pa.DegenerateParallaxError:
                continue
            tracks.append((rows, z, e, None if zeta is None else depth[1:]))
        if len(tracks) > self.cfg.max_tracks:
            tracks.sort(key=lambda tr: -len(tr[0]))
            tracks = tracks[:self.cfg.max_tracks]
        return tracks

    def _clusters_in_window(self):
        ids = set(self.window.keyframes)
        out = []
        for cluster_id, per_kf in self._clusters.items():
            budget = max(2, self.cfg.max_cluster_points // len(per_kf))
            pts = {k: p[:budget] for k, p in per_kf.items() if k in ids}
            if len(pts) < 2 or sum(map(len, pts.values())) < 4:
                continue
            out.append(pa.PlaneCluster(cluster_id, pts))
        if len(out) > self.cfg.max_clusters:
            out.sort(key=lambda c: -c.n_points)
            out = out[:self.cfg.max_clusters]
        return out

    def build_problem(self) -> AssembledProblem:
        ids = self.window.ordered_ids()
        present = set(ids)
        factors: list[Factor] = [
            f for f in self._static_priors
            if all(k[1] == -1 or k[1] in present for k in f.keys())
        ]
        if self.window.prior is not None:
            factors.append(MarginalPriorFactor(self.window.prior))

        for ki, kj in zip(ids, ids[1:]):
            pre = self._preints.get((ki, kj))
            if pre is None:
                raise ValueError(f"missing IMU preintegration {ki}->{kj}")
            factors.append(ImuFactor(ki, kj, pre))
            if self.calibrates:
                dt = (self.window.keyframes[kj].timestamp
                      - self.window.keyframes[ki].timestamp)
                factors.append(TimeDelayFactor(ki, kj, dt))

        if self.uses_camera:
            for rows, z, e, depth in self._tracks_in_window():
                cls = DepthFactor if depth is not None else VisualFactor
                row_of = dict(zip(self._obs_kf[rows].tolist(), rows.tolist()))
                for j in row_of:
                    if j != z:
                        factors.append(cls((z, e, j), self._obs[[row_of[z], row_of[e], row_of[j]]],
                                           depth, self.cfg.sigma_u))

        if self.uses_lidar_planes:
            for cluster in self._clusters_in_window():
                factors.append(LidarPaFactor(cluster))

        if self.uses_f2m:
            for k in (ids[0], ids[-1]):
                if k in self._f2m:
                    factors.append(F2mFactor(self._f2m[k]))

        blocks = []
        for k in ids:
            blocks += [("p", k), ("q", k), ("v", k), ("bg", k), ("ba", k), ("dt", k)]
        blocks += [("cp", -1), ("cq", -1), ("lp", -1), ("lq", -1), ("ldt", -1)]
        if not self.calibrates:
            blocks = [b for b in blocks if b[0] not in CALIB_BLOCKS]
        return AssembledProblem(blocks, factors)

    # -- marginalization -----------------------------------------------------------

    def marginalize_oldest(self, problem: AssembledProblem):
        """Fold the oldest keyframe into the prior, from the frame's solved problem."""
        k0 = self.window.ordered_ids()[0]
        marg_keys = [b for b in (("p", k0), ("q", k0), ("v", k0), ("bg", k0),
                                 ("ba", k0), ("dt", k0)) if b in problem.index]
        touching = []
        for f in problem.factors:
            if isinstance(f, F2mFactor) and f.meas.keyframe_id == k0 \
                    and self.cfg.mode != "marg_f2m":
                continue  # discard the absolute F2M information outright
            if any(k in marg_keys for k in f.keys()):
                touching.append(f)
        new_prior = marginalize_factors(self.window, touching, marg_keys,
                                        allowed_keys=set(problem.index))

        state0 = self.window.keyframes.pop(k0)
        self.window.prior = new_prior
        self._finalized.append(OdometryOutput(state0.timestamp, state0.pose(),
                                              state0.v.copy()))
        if self.uses_f2m and k0 in self._scans:
            insert_marginalized_frame(self._scans[k0], state0.pose(),
                                      self.window.lid_ext, self.map)
        self._cleanup(k0)

    def _cleanup(self, k0):
        self._scans.pop(k0, None)
        self._f2m.pop(k0, None)
        for key in [k for k in self._preints if k[0] == k0]:
            self._preints.pop(key)
        keep = self._obs_kf != k0
        self._obs_kf, self._obs_lm, self._obs_entry, self._obs = (
            a[keep] for a in (self._obs_kf, self._obs_lm, self._obs_entry, self._obs))
        seen = set(self._obs_lm.tolist())
        self._depths = {lm: d for lm, d in self._depths.items() if lm in seen}
        for cluster_id in list(self._clusters):
            self._clusters[cluster_id].pop(k0, None)
            if not self._clusters[cluster_id]:
                del self._clusters[cluster_id]

    # -- outputs ----------------------------------------------------------------

    def trajectory(self) -> list[OdometryOutput]:
        """Finalized poses plus the current window, oldest first."""
        tail = [OdometryOutput(s.timestamp, s.pose(), s.v.copy())
                for _, s in sorted(self.window.keyframes.items())]
        return self._finalized + tail
