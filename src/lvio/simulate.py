"""Synthetic scenario generation: world, trajectory, and sensor streams.

Trajectories are closed-form sums of sinusoids plus linear terms, so every
derivative the IMU needs is analytic. The published ground truth, however,
is the midpoint mechanization of the clean IMU stream, not the analytic
curve: camera and LiDAR observations are rendered from that discrete
trajectory, so at zero noise and zero time offsets every factor residual
vanishes exactly at the ground-truth states instead of carrying the
integrator's discretization error. Worlds are collections of planar patches
(ground plus scattered billboards along the path) with landmarks glued to
patch surfaces. All randomness flows from one seeded generator, so reruns
are bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import io
from .calibration import CameraImuExtrinsics, LidarImuExtrinsics
from .factors import PlaneModel
from .geometry import Pose, exp_map, quat_multiply, quat_to_matrix
from .imu import GRAVITY_W, mechanize, slice_samples


@dataclass
class Channel:
    """x(t) = offset + slope t + sum_i amp_i sin(2 pi f_i t + phase_i)."""

    offset: float = 0.0
    slope: float = 0.0
    terms: list = field(default_factory=list)  # (amp, freq_hz, phase)

    def eval(self, t: float):
        x = self.offset + self.slope * t
        d1 = self.slope
        d2 = 0.0
        for amp, freq, phase in self.terms:
            w = 2.0 * math.pi * freq
            a = w * t + phase
            x += amp * math.sin(a)
            d1 += amp * w * math.cos(a)
            d2 -= amp * w * w * math.sin(a)
        return x, d1, d2


@dataclass
class TrajectorySpec:
    duration: float
    px: Channel = field(default_factory=Channel)
    py: Channel = field(default_factory=Channel)
    pz: Channel = field(default_factory=Channel)
    roll: Channel = field(default_factory=Channel)
    pitch: Channel = field(default_factory=Channel)
    yaw: Channel = field(default_factory=Channel)

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")


def _euler_zyx_quat(roll, pitch, yaw):
    return quat_multiply(
        quat_multiply(exp_map([0, 0, yaw]), exp_map([0, pitch, 0])),
        exp_map([roll, 0, 0]))


def sample_trajectory(spec: TrajectorySpec, t: float) -> dict:
    """Analytic pose, velocity, body angular rate, and acceleration at t."""
    if t < -1e-12 or t > spec.duration + 1e-12:
        raise ValueError(f"t={t} outside [0, {spec.duration}]")
    p, v, a = np.zeros(3), np.zeros(3), np.zeros(3)
    for i, ch in enumerate((spec.px, spec.py, spec.pz)):
        p[i], v[i], a[i] = ch.eval(t)
    roll, droll, _ = spec.roll.eval(t)
    pitch, dpitch, _ = spec.pitch.eval(t)
    yaw, dyaw, _ = spec.yaw.eval(t)
    q = _euler_zyx_quat(roll, pitch, yaw)
    # body rate from ZYX Euler rates
    sr, cr = math.sin(roll), math.cos(roll)
    sp, cp = math.sin(pitch), math.cos(pitch)
    omega = np.array([
        droll - dyaw * sp,
        dpitch * cr + dyaw * cp * sr,
        -dpitch * sr + dyaw * cp * cr,
    ])
    return {"pose": Pose(p, q), "velocity": v, "angular_rate": omega,
            "acceleration": a}


def make_circle_spec(radius: float, duration: float, laps: float = 1.0,
                     height_amp: float = 0.3, wobble_deg: float = 3.0) -> TrajectorySpec:
    """Closed planar loop with tangent-following yaw and mild excitation."""
    f = laps / duration
    w = 2.0 * math.pi * f
    wob = math.radians(wobble_deg)
    return TrajectorySpec(
        duration=duration,
        px=Channel(terms=[(radius, f, math.pi / 2)]),  # R cos(wt)
        py=Channel(terms=[(radius, f, 0.0)]),          # R sin(wt)
        pz=Channel(offset=1.2, terms=[(height_amp, 2 * f, 0.0)]),
        roll=Channel(terms=[(wob, 3 * f, 0.5)]),
        pitch=Channel(terms=[(wob, 4 * f, 1.3)]),
        yaw=Channel(offset=math.pi / 2, slope=w,
                    terms=[(2 * wob, 5 * f, 0.0)]),
    )


def make_wiggle_spec(duration: float, scale: float = 1.0,
                     wobble_deg: float = 8.0) -> TrajectorySpec:
    """Bounded, closed, well-excited trajectory for calibration scenarios."""
    f = 1.0 / duration
    wob = math.radians(wobble_deg)
    return TrajectorySpec(
        duration=duration,
        px=Channel(terms=[(1.5 * scale, 2 * f, 0.0), (0.4 * scale, 5 * f, 1.0)]),
        py=Channel(terms=[(1.2 * scale, 3 * f, 0.7), (0.3 * scale, 7 * f, 2.1)]),
        pz=Channel(offset=1.2, terms=[(0.5 * scale, 4 * f, 0.3)]),
        roll=Channel(terms=[(wob, 6 * f, 0.2)]),
        pitch=Channel(terms=[(wob, 5 * f, 1.1)]),
        yaw=Channel(terms=[(2.5 * wob, 2 * f, 0.0), (wob, 9 * f, 0.4)]),
    )


# --------------------------------------------------------------------------
# world
# --------------------------------------------------------------------------


@dataclass
class PlanePatch:
    center: np.ndarray
    u_axis: np.ndarray
    v_axis: np.ndarray
    half_u: float
    half_v: float
    color: tuple = (128, 128, 128)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.u_axis = np.asarray(self.u_axis, dtype=float)
        self.v_axis = np.asarray(self.v_axis, dtype=float)
        if self.half_u <= 0 or self.half_v <= 0:
            raise ValueError("patch extents must be positive")

    @property
    def normal(self):
        n = np.cross(self.u_axis, self.v_axis)
        return n / np.linalg.norm(n)

    def model(self) -> PlaneModel:
        n = self.normal
        return PlaneModel(n, float(-n @ self.center))

    def sample(self, rng, n):
        a = rng.uniform(-self.half_u, self.half_u, size=n)
        b = rng.uniform(-self.half_v, self.half_v, size=n)
        return self.center + a[:, None] * self.u_axis + b[:, None] * self.v_axis


@dataclass
class WorldModel:
    patches: list
    landmarks: np.ndarray
    landmark_on_plane: np.ndarray  # bool per landmark

    def __post_init__(self):
        self.landmarks = np.asarray(self.landmarks, dtype=float)
        self.landmark_on_plane = np.asarray(self.landmark_on_plane, dtype=bool)
        if len(self.landmarks) < 8:
            raise ValueError("world needs at least 8 landmarks")


def make_world(spec: TrajectorySpec, rng, n_billboards: int = 40,
               n_landmarks: int = 150, lateral: float = 8.0) -> WorldModel:
    """Ground tiles under the path plus billboards scattered around it,
    landmarks on patch surfaces (plus a few floating ones).

    The ground is tiled locally instead of one huge patch so uniform patch
    sampling yields LiDAR returns near the sensor, and billboards are kept
    clear of the ground so no two surfaces intersect (mixed-surface LiDAR
    neighborhoods would otherwise corrupt map-plane fits)."""
    patches = []
    ts = np.linspace(0.0, spec.duration, n_billboards, endpoint=False)
    ex, ey = np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
    tile_keys = set()
    for t in ts:
        s = sample_trajectory(spec, float(t))
        kx = round(s["pose"].t[0] / 8.0)
        ky = round(s["pose"].t[1] / 8.0)
        for key in [(kx + dx, ky + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]:
            if key in tile_keys:
                continue
            tile_keys.add(key)
            center = np.array([key[0] * 8.0, key[1] * 8.0, 0.0])
            patches.append(PlanePatch(center, ex, ey, 5.0, 5.0, color=(90, 120, 90)))
    for i, t in enumerate(ts):
        s = sample_trajectory(spec, float(t))
        offset = rng.uniform(2.0, lateral)
        side = 1.0 if i % 2 == 0 else -1.0
        heading = math.atan2(s["velocity"][1], s["velocity"][0]) if \
            np.linalg.norm(s["velocity"][:2]) > 1e-6 else 0.0
        lat = np.array([-math.sin(heading), math.cos(heading), 0.0])
        center = s["pose"].t + side * offset * lat
        yaw = heading + rng.uniform(-0.6, 0.6)
        tilt = rng.uniform(-0.3, 0.3)
        R = quat_to_matrix(quat_multiply(exp_map([0, 0, yaw]), exp_map([0, tilt, 0])))
        half_u = rng.uniform(1.5, 4.0)
        half_v = rng.uniform(1.0, 2.5)
        # lift the board so its lowest corner stays above the ground
        drop = half_u * abs(R[2, 0]) + half_v * abs(R[2, 2])
        center[2] = drop + rng.uniform(0.3, 1.5)
        patches.append(PlanePatch(center, R[:, 0], R[:, 2], half_u, half_v,
                                  color=tuple(int(c) for c in rng.integers(40, 220, 3))))

    landmarks, on_plane = [], []
    n_on = int(0.8 * n_landmarks)
    for i in range(n_on):
        patch = patches[1 + int(rng.integers(0, len(patches) - 1))]
        landmarks.append(patch.sample(rng, 1)[0])
        on_plane.append(True)
    for i in range(n_landmarks - n_on):
        t = rng.uniform(0.0, spec.duration)
        s = sample_trajectory(spec, float(t))
        landmarks.append(s["pose"].t + rng.uniform(-lateral, lateral, 3)
                         + np.array([0, 0, 2.0]))
        on_plane.append(False)
    return WorldModel(patches, np.asarray(landmarks), np.asarray(on_plane))


# --------------------------------------------------------------------------
# sensors
# --------------------------------------------------------------------------


@dataclass
class SensorConfig:
    imu_rate: float = 200.0
    cam_rate: float = 10.0
    lidar_rate: float = 10.0
    gyro_noise: float = 0.0  # rad/s/sqrt(Hz)
    accel_noise: float = 0.0  # m/s^2/sqrt(Hz)
    pixel_sigma: float = 0.0  # px
    range_sigma: float = 0.0  # m
    focal_equiv: float = 500.0  # px
    cam_fov_deg: float = 70.0
    lidar_fov_deg: float = 70.0
    lidar_max_range: float = 50.0
    cam_ext: CameraImuExtrinsics = field(
        default_factory=lambda: CameraImuExtrinsics(np.zeros(3), np.array([1.0, 0, 0, 0])))
    lid_ext: LidarImuExtrinsics = field(
        default_factory=lambda: LidarImuExtrinsics(np.zeros(3), np.array([1.0, 0, 0, 0])))
    dt_bc0: float = 0.0  # true camera delay at t=0, s
    dt_bc_drift: float = 0.0  # s/s
    dt_br: float = 0.0  # true LiDAR delay, s
    gyro_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    accel_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    points_per_patch: int = 6
    depth_sigma: float = 0.05

    def __post_init__(self):
        if min(self.imu_rate, self.cam_rate, self.lidar_rate) <= 0:
            raise ValueError("rates must be positive")
        if self.imu_rate < 10.0 * self.cam_rate:
            raise ValueError("IMU rate must be at least 10x the camera rate")
        self.gyro_bias = np.asarray(self.gyro_bias, dtype=float)
        self.accel_bias = np.asarray(self.accel_bias, dtype=float)

    def dt_bc(self, t: float) -> float:
        return self.dt_bc0 + self.dt_bc_drift * t


def synth_imu(spec: TrajectorySpec, cfg: SensorConfig, rng=None):
    """(n, 7) IMU stream on the IMU clock: true rates/specific force + bias,
    plus noise when an rng is given."""
    dt = 1.0 / cfg.imu_rate
    out = np.zeros((int(round(spec.duration / dt)) + 1, 7))
    for k, row in enumerate(out):
        t = k * dt
        s = sample_trajectory(spec, min(t, spec.duration))
        R = s["pose"].rotation_matrix()
        row[0] = t
        row[1:4] = s["angular_rate"] + cfg.gyro_bias
        row[4:7] = R.T @ (s["acceleration"] - GRAVITY_W) + cfg.accel_bias
    return _add_imu_noise(out, cfg, rng)


def _add_imu_noise(samples, cfg: SensorConfig, rng):
    """White noise on an IMU stream, in one draw: each row's gyro noise,
    then its accel noise, skipping a zero density."""
    sigmas = np.repeat([cfg.gyro_noise, cfg.accel_noise], 3) * math.sqrt(cfg.imu_rate)
    cols = np.flatnonzero(sigmas > 0)
    if rng is None or not len(cols):
        return samples
    out = samples.copy()
    out[:, cols + 1] += rng.normal(scale=sigmas[cols], size=(len(out), len(cols)))
    return out


class DiscreteTruth:
    """Ground truth as the midpoint mechanization of the clean IMU stream.

    Sensor observations rendered from this trajectory are exactly consistent
    with preintegration of the (noise-free) IMU measurements, which is what
    makes the zero-noise scenario a fixed point of the whole pipeline.
    """

    def __init__(self, spec: TrajectorySpec, cfg: SensorConfig):
        self.spec = spec
        self.cfg = cfg
        self.samples = synth_imu(spec, cfg)  # bias in, noise out
        s0 = sample_trajectory(spec, 0.0)
        state = SimpleNamespace(timestamp=0.0, p=s0["pose"].t, q=s0["pose"].q,
                                v=s0["velocity"], bg=cfg.gyro_bias,
                                ba=cfg.accel_bias)
        self.poses, self.velocities = mechanize(state, self.samples)
        self.times = self.samples[:, 0].copy()

    def state_at(self, t: float):
        """(Pose, velocity) at t: exact on the sample grid, one partial
        midpoint step off it."""
        t = float(np.clip(t, self.times[0], self.times[-1]))
        i = max(int(np.searchsorted(self.times, t + 1e-12)) - 1, 0)
        if abs(self.times[i] - t) < 1e-12:
            return self.poses[i][1], self.velocities[i]
        seg = slice_samples(self.samples, self.times[i], t)
        st = SimpleNamespace(timestamp=self.times[i], p=self.poses[i][1].t,
                             q=self.poses[i][1].q, v=self.velocities[i],
                             bg=self.cfg.gyro_bias, ba=self.cfg.accel_bias)
        poses, vels = mechanize(st, seg)
        return poses[-1][1], vels[-1]

    def pose_at(self, t: float) -> Pose:
        return self.state_at(t)[0]


def _camera_pose(truth: DiscreteTruth, cfg, t_world):
    return truth.pose_at(t_world).compose(cfg.cam_ext.pose())


def _projector(cam: Pose):
    """World point -> camera coordinates, with the rotation built once."""
    Rt, t = cam.rotation_matrix().T, cam.t
    return lambda X: Rt @ (X - t)


def synth_camera(spec: TrajectorySpec, world: WorldModel, cfg: SensorConfig,
                 rng=None, vel_eps: float = 5e-3,
                 truth: DiscreteTruth | None = None):
    """Per-frame feature observations.

    Returns a list of (stamp, frame_id, rows) where rows are
    (landmark_id, ux, uy, vx, vy, depth_or_None). Exposure happens at world
    time stamp + dt_bc(stamp); feature velocities come from a central
    difference of the noise-free projection.
    """
    if truth is None:
        truth = DiscreteTruth(spec, cfg)
    n = int(math.floor(spec.duration * cfg.cam_rate)) + 1
    tan_half = math.tan(math.radians(cfg.cam_fov_deg) / 2.0)
    sig_n = cfg.pixel_sigma / cfg.focal_equiv
    frames = []
    depth_done = set()
    for frame_id in range(n):
        stamp = frame_id / cfg.cam_rate
        t_w = stamp + cfg.dt_bc(stamp)
        if t_w < 0 or t_w > spec.duration:
            continue
        project = _projector(_camera_pose(truth, cfg, t_w))
        project_m = _projector(_camera_pose(truth, cfg, max(t_w - vel_eps, 0.0)))
        project_p = _projector(_camera_pose(truth, cfg, min(t_w + vel_eps, spec.duration)))
        denom = (min(t_w + vel_eps, spec.duration) - max(t_w - vel_eps, 0.0))
        rows = []
        for lm_id, X in enumerate(world.landmarks):
            x = project(X)
            if x[2] < 0.5:
                continue
            u = x[:2] / x[2]
            if max(abs(u[0]), abs(u[1])) > tan_half:
                continue
            um = project_m(X)
            up = project_p(X)
            if um[2] < 0.1 or up[2] < 0.1:
                continue
            v_u = ((up[:2] / up[2]) - (um[:2] / um[2])) / denom
            if rng is not None and sig_n > 0:
                u = u + rng.normal(scale=sig_n, size=2)
            depth = None
            if world.landmark_on_plane[lm_id] and lm_id not in depth_done \
                    and x[2] < cfg.lidar_max_range:
                d = float(x[2])
                if rng is not None and cfg.range_sigma > 0:
                    d += float(rng.normal(scale=cfg.range_sigma))
                depth = (d, max(cfg.depth_sigma, 1e-6))
                depth_done.add(lm_id)
            rows.append((lm_id, u[0], u[1], v_u[0], v_u[1], depth))
        frames.append((stamp, frame_id, rows))
    return frames


def synth_lidar(spec: TrajectorySpec, world: WorldModel, cfg: SensorConfig,
                rng=None, truth: DiscreteTruth | None = None):
    """Per-frame plane clusters in the LiDAR frame.

    Returns a list of (stamp, frame_id, rows) where rows are
    (cluster_id, point). Sampling happens at world time stamp + dt_br; the
    raw scan of a frame is the union of its cluster points.
    """
    if truth is None:
        truth = DiscreteTruth(spec, cfg)
    n = int(math.floor(spec.duration * cfg.lidar_rate)) + 1
    cos_half = math.cos(math.radians(cfg.lidar_fov_deg) / 2.0)
    frames = []
    sample_rng = rng if rng is not None else np.random.default_rng(0)
    for frame_id in range(n):
        stamp = frame_id / cfg.lidar_rate
        t_w = stamp + cfg.dt_br
        if t_w < 0 or t_w > spec.duration:
            continue
        body = truth.pose_at(t_w)
        lid = body.compose(cfg.lid_ext.pose())
        R = lid.rotation_matrix()
        rows = []
        for cid, patch in enumerate(world.patches):
            pts_w = patch.sample(sample_rng, cfg.points_per_patch)
            pts_r = (pts_w - lid.t) @ R
            rng_norm = np.linalg.norm(pts_r, axis=1)
            ok = (rng_norm > 0.5) & (rng_norm < cfg.lidar_max_range)
            if cfg.lidar_fov_deg < 360.0:
                ok &= pts_r[:, 0] > cos_half * rng_norm  # cone about +x
            pts_r = pts_r[ok]
            rng_norm = rng_norm[ok]
            if rng is not None and cfg.range_sigma > 0 and len(pts_r):
                noise = rng.normal(scale=cfg.range_sigma, size=len(pts_r))
                pts_r = pts_r * (1.0 + noise / rng_norm)[:, None]
            for p in pts_r:
                rows.append((cid, p))
        frames.append((stamp, frame_id, rows))
    return frames


# --------------------------------------------------------------------------
# scenario driver
# --------------------------------------------------------------------------


def spec_from_config(cfg: dict) -> TrajectorySpec:
    kind = cfg.get("trajectory", "circle")
    duration = float(cfg.get("duration", 60.0))
    if kind == "circle":
        return make_circle_spec(float(cfg.get("radius", 31.83)), duration,
                                laps=float(cfg.get("laps", 1.0)),
                                height_amp=float(cfg.get("height_amp", 0.3)),
                                wobble_deg=float(cfg.get("wobble_deg", 3.0)))
    if kind == "wiggle":
        return make_wiggle_spec(duration, scale=float(cfg.get("scale", 1.0)),
                                wobble_deg=float(cfg.get("wobble_deg", 8.0)))
    if kind == "static":
        return TrajectorySpec(duration=duration,
                              pz=Channel(offset=float(cfg.get("height", 1.2))))
    raise ValueError(f"unknown trajectory kind {kind!r}")


def sensor_config_from_config(cfg: dict) -> SensorConfig:
    cam_ext = CameraImuExtrinsics(io.read_vector(cfg, "cam_t", [0.0, 0, 0]),
                                  io.read_vector(cfg, "cam_q", [1.0, 0, 0, 0]))
    lid_ext = LidarImuExtrinsics(io.read_vector(cfg, "lid_t", [0.0, 0, 0]),
                                 io.read_vector(cfg, "lid_q", [1.0, 0, 0, 0]))
    return SensorConfig(
        imu_rate=float(cfg.get("imu_rate", 200.0)),
        cam_rate=float(cfg.get("cam_rate", 10.0)),
        lidar_rate=float(cfg.get("lidar_rate", 10.0)),
        gyro_noise=float(cfg.get("gyro_noise", 0.0)),
        accel_noise=float(cfg.get("accel_noise", 0.0)),
        pixel_sigma=float(cfg.get("pixel_sigma", 0.0)),
        range_sigma=float(cfg.get("range_sigma", 0.0)),
        focal_equiv=float(cfg.get("focal_equiv", 500.0)),
        cam_fov_deg=float(cfg.get("cam_fov_deg", 70.0)),
        lidar_fov_deg=float(cfg.get("lidar_fov_deg", 70.0)),
        lidar_max_range=float(cfg.get("lidar_max_range", 50.0)),
        cam_ext=cam_ext, lid_ext=lid_ext,
        dt_bc0=float(cfg.get("dt_bc", 0.0)),
        dt_bc_drift=float(cfg.get("dt_bc_drift", 0.0)),
        dt_br=float(cfg.get("dt_br", 0.0)),
        gyro_bias=io.read_vector(cfg, "gyro_bias", [0.0, 0, 0]),
        accel_bias=io.read_vector(cfg, "accel_bias", [0.0, 0, 0]),
        points_per_patch=int(cfg.get("points_per_patch", 6)),
        depth_sigma=float(cfg.get("depth_sigma", 0.05)),
    )


def simulate_scenario(cfg: dict, out_dir):
    """Generate a full measurement set under out_dir from a scenario config."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = int(cfg.get("seed", 0))
    rng = np.random.default_rng(seed)
    spec = spec_from_config(cfg)
    sensors = sensor_config_from_config(cfg)
    world = make_world(spec, rng,
                       n_billboards=int(cfg.get("n_billboards", 40)),
                       n_landmarks=int(cfg.get("n_landmarks", 150)),
                       lateral=float(cfg.get("lateral", 8.0)))

    truth = DiscreteTruth(spec, sensors)
    noise_rng = np.random.default_rng(seed + 1)
    imu = _add_imu_noise(truth.samples, sensors, noise_rng)
    cam_frames = synth_camera(spec, world, sensors, noise_rng, truth=truth)
    lid_frames = synth_lidar(spec, world, sensors, noise_rng, truth=truth)

    io.write_imu_csv(out / "imu.csv", imu)
    io.write_features_csv(out / "features.csv", cam_frames)
    io.write_clusters_csv(out / "clusters.csv", lid_frames)

    io.write_tum(out / "gt.tum", truth.poses)

    p0, v0 = truth.poses[0][1], truth.velocities[0]
    init = {
        "p": io.format_vector(p0.t),
        "q": io.format_vector(p0.q),
        "v": io.format_vector(v0),
        "gyro_bias": io.format_vector(sensors.gyro_bias),
        "accel_bias": io.format_vector(sensors.accel_bias),
    }
    io.write_config(out / "init.cfg", init)

    truth = {
        "cam_t": io.format_vector(sensors.cam_ext.p_bc),
        "cam_q": io.format_vector(sensors.cam_ext.q_cb),
        "lid_t": io.format_vector(sensors.lid_ext.p_br),
        "lid_q": io.format_vector(sensors.lid_ext.q_rb),
        "dt_bc": sensors.dt_bc0,
        "dt_bc_drift": sensors.dt_bc_drift,
        "dt_br": sensors.dt_br,
    }
    io.write_config(out / "truth_calib.cfg", truth)

    # estimator-facing sensor config: initial calibration guesses. Scenario
    # keys guess_* override; default guess equals truth with zero delays.
    guesses = {
        "cam_t": cfg.get("guess_cam_t", truth["cam_t"]),
        "cam_q": cfg.get("guess_cam_q", truth["cam_q"]),
        "lid_t": cfg.get("guess_lid_t", truth["lid_t"]),
        "lid_q": cfg.get("guess_lid_q", truth["lid_q"]),
        "dt_bc": cfg.get("guess_dt_bc", 0.0),
        "dt_br": cfg.get("guess_dt_br", 0.0),
        "focal_equiv": sensors.focal_equiv,
        "pixel_sigma": max(sensors.pixel_sigma, 0.5),
        "range_sigma": max(sensors.range_sigma, 0.002),
        "gyro_noise": max(sensors.gyro_noise, 1e-5),
        "accel_noise": max(sensors.accel_noise, 1e-4),
    }
    io.write_config(out / "sensor.cfg", guesses)
    io.write_config(out / "scenario.cfg", cfg)
    return out
