"""Pose-only measurement factors: visual F2F, LiDAR-depth, and LiDAR plane.

All residuals are pure functions of (window states, measurement). With
want_jacobian they also return the analytic jacobian as one (m, n) array
for an m-vector residual: its columns are the parameter blocks the residual
touches, laid out in the order of the factor's key list (`camera_keys`,
`plane_keys`), each block as many columns as its dimension. Without
want_jacobian the jacobian is None. The camera residuals return (r, J) and
no covariance: their noise (the normalized pixel sigma, and sigma_d folded
into the depth row) is applied by the caller. `lidar_pa_residual` returns
(r, J, variance), because its variance depends on the data. Blocks are
keyed by (name, keyframe_id); window-global blocks (extrinsics, LiDAR time
delay) use id -1:

    ("p", k)   keyframe position            3
    ("q", k)   keyframe attitude (right multiplicative perturbation) 3
    ("v", k)   keyframe velocity            3
    ("dt", k)  camera time delay            1
    ("cp", -1) camera-IMU lever arm         3
    ("cq", -1) camera-IMU rotation          3
    ("lp", -1) LiDAR-IMU lever arm          3
    ("lq", -1) LiDAR-IMU rotation           3
    ("ldt", -1) LiDAR time delay            1

A camera residual is a closed form of three keyframes, kfs = (zeta, eta, j):
the two anchors and the observer. It reads their three rows of the
estimator's observation table, (ux, uy, 1, vx, vy) each, and no landmark
state. The visual residual follows the unit-sphere reading of the bearing
difference: both the predicted point and the observed normalized coordinate
are renormalized to unit vectors before subtraction.

Each keyframe's sensor frames are derived in one place, `keyframe_frames`,
once per evaluation pass: the body rotation, the camera frame, the shift
dt_bc[k] - dthat_br applied to its feature observations, and its pose moved
over dt_br - dthat_br to the LiDAR sampling instant by
`calibration.compensate_lidar_pose`. dthat_br is one scalar, the LiDAR
delay every frame of the window was preprocessed with. The camera, plane
and F2M residuals (the last in `f2m`) read these `KeyframeFrames` records
and derive no frame themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import (
    CameraImuExtrinsics,
    CompensatedLidarPose,
    LidarImuExtrinsics,
    compensate_feature,
    compensate_lidar_pose,
)
from .geometry import cross3, quat_to_matrix, skew

# Parallax below this is treated as degenerate and the factor is skipped.
THETA_MIN = 1e-3

# Floor on the std of the plane-thickness residual (units m^2): the square
# of a typical 2 mm LiDAR range-noise scale.
PLANE_COV_FLOOR = (2.0e-3) ** 2

_B = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


class DegenerateParallaxError(ValueError):
    """Parallax too small to anchor a pose-only depth."""


class CheiralityError(ValueError):
    """Predicted landmark behind the observing camera."""


class PlaneFitError(ValueError):
    """Points do not determine a plane."""


@dataclass
class PlaneCluster:
    """Points of one plane seen from several keyframes: points maps
    keyframe_id -> (n, 3) array of p_r in the LiDAR frame, keyframes in
    window order and each keyframe's points in scan order."""

    cluster_id: int
    points: dict

    def __post_init__(self):
        if self.n_points < 4:
            raise ValueError("cluster needs at least 4 points")
        if len(self.points) < 2:
            raise ValueError("cluster must span at least 2 keyframes")

    @property
    def n_points(self) -> int:
        return sum(len(p) for p in self.points.values())


@dataclass
class PlaneModel:
    normal: np.ndarray
    offset: float  # plane: normal . x + offset = 0

    def __post_init__(self):
        self.normal = np.asarray(self.normal, dtype=float)
        n = np.linalg.norm(self.normal)
        if abs(n - 1.0) > 1e-9:
            self.normal = self.normal / n

    def distance(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(pts) @ self.normal + self.offset


@dataclass
class KeyframeFrames:
    """One keyframe's sensor frames at the window state of one evaluation
    pass: everything the camera, plane and F2M residuals read of it."""

    R: np.ndarray  # body rotation matrix
    Rc: np.ndarray  # camera rotation in the world
    tc: np.ndarray  # camera position in the world
    dt_feature: float  # dt_bc - dthat_br, the shift of each feature
    velocity: np.ndarray
    angular_rate: np.ndarray  # bias-corrected gyro near the keyframe epoch
    lidar: CompensatedLidarPose  # the pose at the LiDAR sampling instant


def keyframe_frames(state, cam_ext: CameraImuExtrinsics, lid_ext: LidarImuExtrinsics,
                    dthat_br: float) -> KeyframeFrames:
    """The frames of a keyframe state (p, q, v, dt_bc, angular_rate) under
    the window's extrinsics, every frame preprocessed with the LiDAR delay
    dthat_br."""
    body = state.pose()
    lidar = compensate_lidar_pose(body, lid_ext.dt_br - dthat_br, state.v,
                                  state.angular_rate)
    R = lidar.R
    return KeyframeFrames(R, R @ quat_to_matrix(cam_ext.q_cb), body.t + R @ cam_ext.p_bc,
                          state.dt_bc - dthat_br, state.v, state.angular_rate, lidar)


def pose_only_depth(uz, ue, Rz, tz, Re, te):
    """Pose-only depth of the landmark along m = Rz uz from camera zeta
    (Rz, tz), anchored by camera eta (Re, te), and the parallax.

    Returns (depth, parallax, m, terms) where terms feed _depth_partials.
    The depth is only meaningful when the parallax is at least THETA_MIN;
    it is inf at zero parallax."""
    p_ez = Re.T @ (tz - te)
    a = cross3(ue, p_ez)
    na = np.linalg.norm(a)
    m = Rz @ uz
    s = Re.T @ m
    tv = cross3(ue, s)
    nt = np.linalg.norm(tv)
    d = na / nt if nt > 0.0 else np.inf
    return d, nt, m, (ue, Re, p_ez, a, na, s, tv, nt)


def select_anchors(kfs: list, p_u: np.ndarray, frames: dict, zeta: int | None):
    """(zeta, eta) for a track seen at keyframes kfs with (m, 3) bearings p_u,
    from the camera frames (Rc, tc) of the keyframe table frames.

    zeta is the given frame (the LiDAR-depth frame) or, when None, the first
    observation; eta is the observing frame maximizing the parallax with
    zeta.
    """
    if zeta is None:
        zeta = kfs[0]
    uz = p_u[kfs.index(zeta)]
    fz = frames[zeta]
    best, best_theta = None, -1.0
    for k, ue in zip(kfs, p_u):
        if k == zeta:
            continue
        fe = frames[k]
        _, theta, _, _ = pose_only_depth(uz, ue, fz.Rc, fz.tc, fe.Rc, fe.tc)
        if theta > best_theta:
            best, best_theta = k, theta
    if best is None or best_theta < THETA_MIN:
        raise DegenerateParallaxError("no anchor pair with usable parallax")
    return zeta, best


def camera_keys(kfs) -> list:
    """The blocks of a camera residual's jacobian, in column order, for kfs =
    (zeta, eta, j); when j is eta, j's partials add into eta's columns."""
    z, e, j = kfs
    keys = [("p", z), ("q", z), ("cp", -1), ("cq", -1), ("dt", z),
            ("p", e), ("q", e), ("dt", e)]
    return keys if j == e else keys + [("p", j), ("q", j), ("dt", j)]


def _depth_partials(terms, Rz, uz):
    """Partials of the pose-only depth w.r.t. camera primitives, keyed
    'tz','te','fz','fe','uz','ue' (1x3 each)."""
    ue, Re, p_ez, a, na, s, tv, nt = terms
    ra = (a / (na * nt))[None, :] if na > 0 else np.zeros((1, 3))
    rt = (-na * tv / nt**3)[None, :]
    rpez = ra @ skew(ue)
    rs = rt @ skew(ue)

    return {
        "tz": rpez @ Re.T,
        "te": -rpez @ Re.T,
        "fe": rpez @ skew(p_ez) + rs @ skew(s),
        "fz": (rs @ Re.T) @ (-Rz @ skew(uz)),
        "uz": (rs @ Re.T) @ Rz,
        "ue": -ra @ skew(p_ez) - rt @ skew(s),
    }


def _bearing(d, m, uj, Rj, tz, tj):
    """2-vector bearing residual in camera j of the landmark at depth d along
    m = Rz uz from camera zeta.

    Returns (r, terms) where terms feed _bearing_partials."""
    mh = Rj.T @ m
    h = Rj.T @ (tz - tj)
    phat = d * mh + h
    if phat[2] <= 0:
        raise CheiralityError("landmark behind observing camera")
    npn = np.linalg.norm(phat)
    f = phat / npn
    nuj = np.linalg.norm(uj)
    uhat = uj / nuj
    return _B @ (f - uhat), (d, mh, h, f, npn, uhat, nuj, Rj)


def _bearing_partials(terms, Rz, uz):
    """Partials of the bearing residual w.r.t. camera primitives.

    Returns (dr/dd, partials keyed 'tz','tj','fz','fj','uz','uj')."""
    d, mh, h, f, npn, uhat, nuj, Rj = terms
    G = _B @ (np.eye(3) - np.outer(f, f)) / npn
    dr_dm = d * (G @ Rj.T)
    return G @ mh, {
        "tz": G @ Rj.T,
        "tj": -G @ Rj.T,
        "fj": d * (G @ skew(mh)) + G @ skew(h),
        "fz": dr_dm @ (-Rz @ skew(uz)),
        "uz": dr_dm @ Rz,
        "uj": -_B @ (np.eye(3) - np.outer(uhat, uhat)) / nuj,
    }


def _camera_setup(kfs, obs, frames):
    """The part both camera residuals share: the compensated observation and
    frames of zeta, eta and the observer j, and the pose-only depth.

    Returns (cams, d, m, depth terms) with cams = [(frame_id, u, v_u,
    KeyframeFrames)] for zeta, eta and j, in that order."""
    if kfs[2] == kfs[0]:
        raise ValueError("observer must differ from anchor zeta")
    cams = []
    for k, o in zip(kfs, obs):
        f = frames[k]
        cams.append((k, compensate_feature(o[:3], o[3:], f.dt_feature), o[3:], f))
    (_, uz, _, fz), (_, ue, _, fe) = cams[:2]
    d, theta, m, terms = pose_only_depth(uz, ue, fz.Rc, fz.tc, fe.Rc, fe.tc)
    if theta < THETA_MIN:
        raise DegenerateParallaxError(f"parallax {theta} below {THETA_MIN}")
    return cams, d, m, terms


def _chain_roles(cams, ext, role_partials):
    """The jacobian, laid out as `camera_keys`, from the partials (d_t, d_f,
    d_u) of the residual with respect to the camera translation, camera
    rotation and compensated observation of zeta, eta and j."""
    observer_is_eta = cams[2][0] == cams[1][0]
    J = np.zeros((len(role_partials[0][0]), 20 if observer_is_eta else 27))
    # first columns of the p, q and dt blocks of zeta, eta and j in that
    # layout; cp and cq are columns 6:9 and 9:12
    roles = ((0, 3, 12), (13, 16, 19), (13, 16, 19) if observer_is_eta else (20, 23, 26))
    Rcb = quat_to_matrix(ext.q_cb)
    for (_, _, v_u, f), (d_t, d_f, d_u), (p, q, dt) in zip(cams, role_partials, roles):
        J[:, p:p + 3] += d_t
        J[:, q:q + 3] += d_f @ Rcb.T - d_t @ (f.R @ skew(ext.p_bc))
        J[:, 6:9] += d_t @ f.R
        J[:, 9:12] += d_f
        J[:, dt:dt + 1] += d_u @ np.array([[-v_u[0]], [-v_u[1]], [0.0]])
    return J


def visual_pa_residual(kfs, obs: np.ndarray, frames: dict, ext: CameraImuExtrinsics,
                       want_jacobian: bool):
    """Visual pose-only residual of observer j against anchors (zeta, eta).

    kfs = (zeta, eta, j); obs their (3, 5) observation rows (ux, uy, 1, vx,
    vy); frames: keyframe_id -> KeyframeFrames. Returns (residual 2-vector,
    None), or with want_jacobian (residual, jacobian laid out as
    `camera_keys(kfs)`).
    """
    cams, d, m, dterms = _camera_setup(kfs, obs, frames)
    (_, uz, _, fz), _, (_, uj, _, fj) = cams
    r, terms = _bearing(d, m, uj, fj.Rc, fz.tc, fj.tc)
    if not want_jacobian:
        return r, None

    DP = _depth_partials(dterms, fz.Rc, uz)
    dr_dd, BP = _bearing_partials(terms, fz.Rc, uz)
    dr_dd = dr_dd[:, None]  # (2,1)
    # per-role (translation, rotation, observation) partials, 2x3 each
    return r, _chain_roles(cams, ext, [
        (dr_dd @ DP["tz"] + BP["tz"], dr_dd @ DP["fz"] + BP["fz"],
         dr_dd @ DP["uz"] + BP["uz"]),
        (dr_dd @ DP["te"], dr_dd @ DP["fe"], dr_dd @ DP["ue"]),
        (BP["tj"], BP["fj"], BP["uj"]),
    ])


def lidar_depth_pa_residual(kfs, obs: np.ndarray, depth, frames: dict,
                            ext: CameraImuExtrinsics, want_jacobian: bool):
    """LiDAR-depth pose-only residual: the bearing residual evaluated at the
    measured depth, stacked with the whitened depth discrepancy
    (d_pose - d_meas) / sigma_d.

    kfs and obs as for `visual_pa_residual`; depth = (d_meas, sigma_d), the
    LiDAR depth at zeta. Returns (residual 3-vector, None), or with
    want_jacobian (residual, jacobian laid out as `camera_keys(kfs)`)."""
    d_meas, sigma_d = depth
    cams, d_pose, m, dterms = _camera_setup(kfs, obs, frames)
    (_, uz, _, fz), _, (_, uj, _, fj) = cams
    rb, terms = _bearing(d_meas, m, uj, fj.Rc, fz.tc, fj.tc)
    r = np.array([rb[0], rb[1], (d_pose - d_meas) / sigma_d])
    if not want_jacobian:
        return r, None

    DP = _depth_partials(dterms, fz.Rc, uz)
    _, BP = _bearing_partials(terms, fz.Rc, uz)

    def stack(bearing, depth_row):
        return np.vstack([bearing, depth_row / sigma_d])

    no_bearing = np.zeros((2, 3))  # the bearing at d_meas does not involve eta
    return r, _chain_roles(cams, ext, [
        (stack(BP["tz"], DP["tz"][0]), stack(BP["fz"], DP["fz"][0]),
         stack(BP["uz"], DP["uz"][0])),
        (stack(no_bearing, DP["te"][0]), stack(no_bearing, DP["fe"][0]),
         stack(no_bearing, DP["ue"][0])),
        (stack(BP["tj"], np.zeros(3)), stack(BP["fj"], np.zeros(3)),
         stack(BP["uj"], np.zeros(3))),
    ])


def fit_plane(points: np.ndarray) -> PlaneModel:
    """Least-squares plane through >= 3 non-collinear points.

    Centroid subtraction + smallest eigenvector of the 3x3 scatter matrix;
    the sign is fixed so the largest-magnitude normal component is positive.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3 or pts.shape[1] != 3:
        raise PlaneFitError("need at least 3 points of dimension 3")
    c = pts.mean(axis=0)
    q = pts - c
    S = q.T @ q
    w, V = np.linalg.eigh(S)
    if w[1] <= max(1e-12, 1e-9 * w[2]):
        raise PlaneFitError("points are (nearly) collinear")
    n = V[:, 0]
    k = int(np.argmax(np.abs(n)))
    if n[k] < 0:
        n = -n
    return PlaneModel(n, float(-n @ c))


def plane_keys(cluster: PlaneCluster) -> list:
    """The blocks of a plane residual's jacobian, in column order: p, q and
    v of each keyframe of the cluster in window order, then lp, lq, ldt."""
    return [(name, k) for k in cluster.points for name in ("p", "q", "v")] + [
        ("lp", -1), ("lq", -1), ("ldt", -1)]


def lidar_pa_residual(cluster: PlaneCluster, frames: dict, ext: LidarImuExtrinsics,
                      want_jacobian: bool, plane: PlaneModel | None = None):
    """Plane-thickness residual of a same-plane cluster.

    frames: keyframe_id -> KeyframeFrames. The plane is re-fit from the
    currently projected world points unless an explicit plane is given;
    jacobians treat the plane as fixed at the linearization point.

    The variance adapts to the data: its std is max(PLANE_COV_FLOOR, sample
    std of the per-keyframe mean-square point-to-plane distances), scaled
    by 1/N for N points.

    Returns (residual (1,), jacobian or None, variance): the jacobian, with
    want_jacobian, laid out as `plane_keys(cluster)`.
    """
    Rrb = quat_to_matrix(ext.q_rb)
    # per keyframe: (frames, pts_r, y body-frame, world at the LiDAR instant)
    groups = {}
    for kf, pts_r in cluster.points.items():
        f = frames[kf]
        y = pts_r @ Rrb.T + ext.p_br
        groups[kf] = (f, pts_r, y, y @ f.lidar.RE.T + f.lidar.t)
    world = np.vstack([g[-1] for g in groups.values()])
    if plane is None:
        plane = fit_plane(world)
    N = len(world)
    eps_by_kf = {kf: plane.distance(g[-1]) for kf, g in groups.items()}
    ms_per_kf = [float(np.mean(e**2)) for e in eps_by_kf.values()]
    r = np.array([sum(len(e) * ms for e, ms in zip(eps_by_kf.values(), ms_per_kf)) / N])
    sigma = max(PLANE_COV_FLOOR, float(np.std(ms_per_kf)))
    var = sigma**2 / N
    if not want_jacobian:
        return r, None, var

    n = plane.normal
    J = np.zeros((1, 9 * len(groups) + 7))
    Jp, Jext = J[0, :-7].reshape(-1, 9), J[0, -7:]  # (p, q, v) rows; lp, lq, ldt
    for Jk, (kf, (f, pts_r, y, pw)) in zip(Jp, groups.items()):
        c = f.lidar
        eps = eps_by_kf[kf]
        wsum = 2.0 * float(np.sum(eps)) / N  # scalar weight on linear terms
        s_y = (2.0 / N) * (eps @ y)  # eps-weighted sums for skew terms
        s_r = (2.0 / N) * (eps @ pts_r)
        nR = n @ c.R
        nRE = n @ c.RE
        Jk[0:3] = wsum * n
        Jk[3:6] = -(nR @ skew(c.E @ s_y))
        Jk[6:9] = wsum * c.delta * n
        Jext[0:3] += wsum * nRE
        Jext[3:6] += -(nRE @ (Rrb @ skew(s_r)))
        Jext[6] += wsum * (n @ f.velocity) \
            - nRE @ (skew(s_y) @ (c.Jr @ f.angular_rate))
    return r, J, var
