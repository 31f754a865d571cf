"""File formats: measurement CSVs, TUM trajectories, PPM images, configs.

Formats:
    IMU CSV       t,gx,gy,gz,ax,ay,az
    features CSV  t,frame_id,landmark_id,ux,uy,vx,vy[,depth,depth_sigma]
    clusters CSV  t,frame_id,cluster_id,x,y,z
    TUM           t px py pz qx qy qz qw   (fixed point, 9 decimals)
    config        flat key=value lines, '#' comments
"""

from __future__ import annotations

import csv

import numpy as np

from .geometry import Pose, quat_normalize
from .imu import ImuSample


def write_imu_csv(path, samples):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "gx", "gy", "gz", "ax", "ay", "az"])
        for s in samples:
            w.writerow([f"{s.timestamp:.9f}"]
                       + [f"{x:.12e}" for x in s.angular_rate]
                       + [f"{x:.12e}" for x in s.specific_force])


def read_imu_csv(path):
    out = []
    with open(path, newline="") as f:
        r = csv.reader(f)
        next(r)
        for row in r:
            vals = [float(x) for x in row]
            out.append(ImuSample(vals[0], np.array(vals[1:4]), np.array(vals[4:7])))
    return out


def write_features_csv(path, frames):
    """frames: list of (stamp, frame_id, rows); rows are
    (landmark_id, ux, uy, vx, vy, depth_or_None)."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "frame_id", "landmark_id", "ux", "uy", "vx", "vy",
                    "depth", "depth_sigma"])
        for stamp, frame_id, rows in frames:
            for lm, ux, uy, vx, vy, depth in rows:
                d = ["", ""] if depth is None else [f"{depth[0]:.12e}", f"{depth[1]:.12e}"]
                w.writerow([f"{stamp:.9f}", frame_id, lm,
                            f"{ux:.12e}", f"{uy:.12e}",
                            f"{vx:.12e}", f"{vy:.12e}"] + d)


def read_features_csv(path):
    """Returns list of (stamp, frame_id, rows) in frame order."""
    frames: dict = {}
    order = []
    with open(path, newline="") as f:
        r = csv.reader(f)
        next(r)
        for row in r:
            stamp, frame_id = float(row[0]), int(row[1])
            depth = None
            if len(row) > 7 and row[7] != "":
                depth = (float(row[7]), float(row[8]))
            rec = (int(row[2]), float(row[3]), float(row[4]),
                   float(row[5]), float(row[6]), depth)
            if frame_id not in frames:
                frames[frame_id] = (stamp, [])
                order.append(frame_id)
            frames[frame_id][1].append(rec)
    return [(frames[i][0], i, frames[i][1]) for i in order]


def write_clusters_csv(path, frames):
    """frames: list of (stamp, frame_id, rows); rows are (cluster_id, xyz)."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "frame_id", "cluster_id", "x", "y", "z"])
        for stamp, frame_id, rows in frames:
            for cid, p in rows:
                w.writerow([f"{stamp:.9f}", frame_id, cid]
                           + [f"{x:.12e}" for x in p])


def read_clusters_csv(path):
    frames: dict = {}
    order = []
    with open(path, newline="") as f:
        r = csv.reader(f)
        next(r)
        for row in r:
            stamp, frame_id = float(row[0]), int(row[1])
            rec = (int(row[2]), np.array([float(row[3]), float(row[4]), float(row[5])]))
            if frame_id not in frames:
                frames[frame_id] = (stamp, [])
                order.append(frame_id)
            frames[frame_id][1].append(rec)
    return [(frames[i][0], i, frames[i][1]) for i in order]


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
        pts = []
        for _ in range(n):
            pts.append([float(x) for x in f.readline().split()[:3]])
    return np.asarray(pts, dtype=float).reshape(-1, 3)


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
