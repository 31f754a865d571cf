"""File formats: measurement CSVs, TUM trajectories, PPM images, configs.

The sensor streams are CSV tables: a header line naming the columns, then
one CRLF-terminated row per IMU sample, feature or LiDAR point, with `%.9f`
stamps, integer ids and `%.12e` values. A feature without LiDAR depth
leaves `depth` and `depth_sigma` blank; they read as NaN, and present
ones must be positive; every other value must be finite, and IMU stamps
strictly increasing, or the reader raises ValueError. The readers split a
table into frames by frame id, in order of each id's first row, with that
row's stamp, and keep each frame's rows in file order:

    imu.csv       t,gx,gy,gz,ax,ay,az -> (n, 7) rows, as written
    features.csv  t,frame_id,landmark_id,ux,uy,vx,vy,depth,depth_sigma
                  -> [(stamp, frame_id, rows (n, 7): landmark_id..depth_sigma)]
    clusters.csv  t,frame_id,cluster_id,x,y,z
                  -> [(stamp, frame_id, cluster_ids (n,), points (n, 3))]
    TUM           t px py pz qx qy qz qw   (fixed point, 9 decimals)
    config        flat key=value lines, '#' comments; a vector value is
                  comma-separated floats (`read_vector`, `format_vector`)
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .geometry import Pose, quat_normalize

_IMU_FMT = "%.9f,%.12e,%.12e,%.12e,%.12e,%.12e,%.12e\r\n"
_FEATURES_FMT = "%.9f,%d,%d,%.12e,%.12e,%.12e,%.12e,%s\r\n"
_CLUSTERS_FMT = "%.9f,%d,%d,%.12e,%.12e,%.12e\r\n"


def _write_table(path, header, fmt, rows):
    with open(path, "w", newline="") as f:
        f.write(header + "\r\n")
        f.writelines(fmt % row for row in rows)


def _read_table(path, ncols, converters=None):
    """The rows of a stream as an (n, ncols) float array, every value
    finite except the NaN the converters give for a blank field."""
    with warnings.catch_warnings():  # a header-only stream has no rows
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            t = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                           usecols=range(ncols), converters=converters)
        except ValueError as exc:  # a short row or a field that is no number
            raise ValueError(f"{path}: {exc}") from None
    if not all(np.isfinite(t[:, c]).all() for c in range(ncols) if c not in (converters or {})):
        raise ValueError(f"{path}: a value is not finite")
    return t


def group_rows(keys):
    """[(key, row indices)] for each distinct key, keys in order of first
    appearance and each key's rows in order."""
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rows = np.split(np.argsort(inverse, kind="stable"),
                    np.cumsum(np.bincount(inverse))[:-1])
    return [(uniq[i], rows[i]) for i in np.argsort(first)]


def write_imu_csv(path, samples):
    """samples: the (n, 7) IMU stream."""
    _write_table(path, "t,gx,gy,gz,ax,ay,az", _IMU_FMT, map(tuple, samples.tolist()))


def read_imu_csv(path):
    t = _read_table(path, 7)
    if np.any(np.diff(t[:, 0]) <= 0):
        raise ValueError(f"{path}: IMU stamps are not strictly increasing")
    return t


def write_features_csv(path, frames):
    """frames: list of (stamp, frame_id, rows); rows are
    (landmark_id, ux, uy, vx, vy, depth_or_None)."""
    _write_table(
        path, "t,frame_id,landmark_id,ux,uy,vx,vy,depth,depth_sigma", _FEATURES_FMT,
        ((stamp, frame_id, lm, ux, uy, vx, vy, "," if depth is None else "%.12e,%.12e" % depth)
         for stamp, frame_id, rows in frames for lm, ux, uy, vx, vy, depth in rows))


def _depth_field(text):
    """NaN for a blank field, else its value, which must be finite."""
    if text and not math.isfinite(value := float(text)):
        raise ValueError(f"{text!r} is not finite")
    return value if text else np.nan


def read_features_csv(path):
    t = _read_table(path, 9, converters={7: _depth_field, 8: _depth_field})
    # NaN, an absent depth, compares false
    if np.any(t[:, 7:] <= 0) or np.any(np.isnan(t[:, 7]) != np.isnan(t[:, 8])):
        raise ValueError(f"{path}: a LiDAR depth or depth_sigma is missing or not positive")
    return [(float(t[r[0], 0]), int(f), t[r, 2:]) for f, r in group_rows(t[:, 1])]


def write_clusters_csv(path, frames):
    """frames: list of (stamp, frame_id, rows); rows are (cluster_id, xyz)."""
    _write_table(path, "t,frame_id,cluster_id,x,y,z", _CLUSTERS_FMT,
                 ((stamp, frame_id, cid, *p) for stamp, frame_id, rows in frames
                  for cid, p in rows))


def read_clusters_csv(path):
    t = _read_table(path, 6)
    return [(float(t[r[0], 0]), int(f), t[r, 2].astype(int), np.ascontiguousarray(t[r, 3:]))
            for f, r in group_rows(t[:, 1])]


def write_tum(path, records):
    """records: iterable of (t, Pose). Quaternion written x y z w."""
    with open(path, "w") as f:
        for t, pose in records:
            q = pose.q
            f.write(f"{t:.9f} {pose.t[0]:.9f} {pose.t[1]:.9f} {pose.t[2]:.9f} "
                    f"{q[1]:.9f} {q[2]:.9f} {q[3]:.9f} {q[0]:.9f}\n")


def read_tum(path):
    out = []
    last = -np.inf
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            v = [float(x) for x in line.split()]
            if v[0] <= last:
                raise ValueError("TUM timestamps must be strictly increasing")
            last = v[0]
            q = quat_normalize([v[7], v[4], v[5], v[6]])
            out.append((v[0], Pose(np.array(v[1:4]), q)))
    return out


def read_ply(path):
    """Read vertex positions from an ASCII PLY file into an (N, 3) array."""
    with open(path) as f:
        line = f.readline().strip()
        if line != "ply":
            raise ValueError("not a PLY file")
        n = None
        while True:
            line = f.readline().strip()
            if line.startswith("element vertex"):
                n = int(line.split()[-1])
            if line == "end_header":
                break
            if not line and n is None:
                raise ValueError("truncated PLY header")
        if n is None:
            raise ValueError("PLY header has no vertex count")
        if n == 0:
            return np.zeros((0, 3))
        pts = np.loadtxt(f, usecols=range(3), max_rows=n, ndmin=2)
    if len(pts) != n:
        raise ValueError(f"PLY has {len(pts)} of {n} vertices")
    return pts


def read_config(path):
    """Flat key=value config; values coerced to int/float when possible."""
    cfg = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            try:
                cfg[key] = int(val)
            except ValueError:
                try:
                    cfg[key] = float(val)
                except ValueError:
                    cfg[key] = val
    return cfg


def read_vector(cfg: dict, key, default) -> np.ndarray:
    """A comma-separated vector value of a config, or default when absent."""
    if key in cfg:
        return np.array([float(x) for x in str(cfg[key]).split(",")])
    return np.asarray(default, dtype=float)


def format_vector(values) -> str:
    """A vector as a config value: the repr of each float, comma-separated."""
    return ",".join(f"{float(x)!r}" for x in values)


def write_config(path, cfg: dict):
    with open(path, "w") as f:
        for key, val in cfg.items():
            if isinstance(val, float):
                f.write(f"{key}={val!r}\n")
            else:
                f.write(f"{key}={val}\n")


def write_ppm(path, image: np.ndarray):
    """Write an (H, W, 3) uint8 array as binary PPM (P6)."""
    img = np.asarray(image, dtype=np.uint8)
    h, w, _ = img.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(img.tobytes())


def read_ppm(path):
    """Read a P6 or P3 PPM into an (H, W, 3) uint8 array."""
    with open(path, "rb") as f:
        data = f.read()
    # header: magic, width, height, maxval separated by whitespace/comments
    tokens = []
    i = 0
    while len(tokens) < 4:
        while i < len(data) and data[i:i + 1].isspace():
            i += 1
        if data[i:i + 1] == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(data) and not data[j:j + 1].isspace():
            j += 1
        tokens.append(data[i:j])
        i = j
    magic, w, h, maxval = tokens[0], int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255:
        raise ValueError("only 8-bit PPM supported")
    if magic == b"P6":
        i += 1  # single whitespace after maxval
        img = np.frombuffer(data[i:i + w * h * 3], dtype=np.uint8)
    elif magic == b"P3":
        img = np.array(data[i:].split(), dtype=np.uint8)
    else:
        raise ValueError(f"not a PPM file: {magic!r}")
    return img.reshape(h, w, 3)
