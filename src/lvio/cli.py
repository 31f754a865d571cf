"""Command-line entry points: simulate, run, eval, colorize, bench-f2m."""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import evaluate, io
from .calibration import CameraImuExtrinsics, LidarImuExtrinsics, calibration_report
from .estimator import (GEOMETRY_ERRORS, MODES, Estimator, EstimatorConfig, FrameBundle,
                        IndefiniteSystemError, covariance_blocks)
from .f2m import GlobalPlaneMap, estimate_f2m_pose, export_ply
from .geometry import Pose, exp_map, quat_multiply, quat_normalize
from .imu import ImuNoiseConfig
from .simulate import simulate_scenario


def load_run_inputs(data_dir):
    d = Path(data_dir)
    imu = io.read_imu_csv(d / "imu.csv")
    features = io.read_features_csv(d / "features.csv") if (d / "features.csv").exists() else []
    clusters = io.read_clusters_csv(d / "clusters.csv") if (d / "clusters.csv").exists() else []
    init = io.read_config(d / "init.cfg")
    sensor = io.read_config(d / "sensor.cfg")
    return imu, features, clusters, init, sensor


def build_bundles(features, clusters, mode):
    """Merge the feature and cluster streams (`io.read_*_csv`) into one
    FrameBundle per LiDAR frame, with the feature rows of the camera frame of
    the same stamp, or per camera frame when there is no LiDAR stream or the
    mode is vio. In lio mode, or with no camera frame, a bundle has no
    feature rows."""
    if clusters and mode != "vio":
        feat_by_stamp = {round(s, 6): rows for s, _, rows in features}
        frames = [(stamp, feat_by_stamp.get(round(stamp, 6)), (cluster_ids, points))
                  for stamp, _, cluster_ids, points in clusters]
    else:
        frames = [(stamp, rows, None) for stamp, _, rows in features]
    no_features = np.zeros((0, 7))
    return [FrameBundle(stamp, no_features if mode == "lio" or frows is None else frows, lidar)
            for stamp, frows, lidar in frames]


def run_estimator(data_dir, mode="full", seed=None, config: EstimatorConfig | None = None):
    """Full pipeline on a simulated data directory. Returns the estimator."""
    imu, features, clusters, init, sensor = load_run_inputs(data_dir)
    cam_ext = CameraImuExtrinsics(io.read_vector(sensor, "cam_t", [0, 0, 0]),
                                  io.read_vector(sensor, "cam_q", [1, 0, 0, 0]))
    lid_ext = LidarImuExtrinsics(io.read_vector(sensor, "lid_t", [0, 0, 0]),
                                 io.read_vector(sensor, "lid_q", [1, 0, 0, 0]),
                                 dt_br=float(sensor.get("dt_br", 0.0)))
    if config is None:
        config = EstimatorConfig(
            sigma_u=float(sensor.get("pixel_sigma", 0.5)) / float(sensor.get("focal_equiv", 500.0)),
            imu_noise=ImuNoiseConfig(
                gyro_noise=float(sensor.get("gyro_noise", 1e-4)),
                accel_noise=float(sensor.get("accel_noise", 1e-3))),
            f2m_sigma_pt=max(float(sensor.get("range_sigma", 0.02)), 0.005),
        )
    config = dataclasses.replace(config, mode=mode)

    p = io.read_vector(init, "p", [0, 0, 0])
    q = quat_normalize(io.read_vector(init, "q", [1, 0, 0, 0]))
    v = io.read_vector(init, "v", [0, 0, 0])
    bg = io.read_vector(init, "gyro_bias", [0, 0, 0])
    ba = io.read_vector(init, "accel_bias", [0, 0, 0])
    if seed is not None:
        rng = np.random.default_rng(seed)
        p = p + rng.normal(scale=0.01, size=3)
        q = quat_multiply(q, exp_map(rng.normal(scale=math.radians(0.2), size=3)))
        v = v + rng.normal(scale=0.01, size=3)

    bundles = build_bundles(features, clusters, mode)
    if not bundles:
        raise ValueError("no frames in data directory")
    est = Estimator(cam_ext, lid_ext, config)
    est.set_imu(imu)
    est.initialize(bundles[0], p, q, v, bg, ba, dt_bc=float(sensor.get("dt_bc", 0.0)))
    # frames are preprocessed with the window's fixed LiDAR delay:
    # process_frame integrates the IMU up to stamp + dthat_br, whatever the
    # current delay estimate
    t_max = imu[-1, 0]
    for bundle in bundles[1:]:
        if bundle.stamp + est.window.dthat_br > t_max:
            break
        est.process_frame(bundle)
    return est


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_simulate(args):
    cfg = io.read_config(args.scenario)
    simulate_scenario(cfg, args.out_dir)
    print(f"wrote scenario to {args.out_dir}")
    return 0


def cmd_run(args):
    est = run_estimator(args.data_dir, mode=args.mode, seed=args.seed)
    traj = est.trajectory()
    if args.traj:
        io.write_tum(args.traj, [(o.timestamp, o.pose) for o in traj])
        print(f"wrote {len(traj)} poses to {args.traj}")
    if args.calib_report:
        ids = est.window.ordered_ids()
        dt_bc = est.window.keyframes[ids[-1]].dt_bc
        labels = {("lq", -1): "lidar_rot_deg", ("dt", ids[-1]): "cam_delay_ms",
                  ("ldt", -1): "lidar_delay_ms"}
        stds = {}
        try:
            problem = est.build_problem()
            H, _, _ = problem.linearize(est.window)
            for key, cov in covariance_blocks(H, problem.index, labels).items():
                s = math.sqrt(max(np.trace(cov), 0.0))
                label = labels[key]
                stds[label] = math.degrees(s) if "deg" in label else s * 1e3
        except (IndefiniteSystemError, *GEOMETRY_ERRORS) as exc:
            print(f"calibration report without STDs: {exc}", file=sys.stderr)
        with open(args.calib_report, "w") as f:
            f.write(calibration_report(est.window.cam_ext, est.window.lid_ext,
                                       dt_bc, stds))
        print(f"wrote calibration report to {args.calib_report}")
    if args.yaw_std:
        with open(args.yaw_std, "w") as f:
            f.write("t,yaw_std_deg\n")
            for t, s in est.yaw_std_series:
                f.write(f"{t:.9f},{math.degrees(s):.9e}\n")
        print(f"wrote yaw STD series to {args.yaw_std}")
    if not (args.traj or args.calib_report or args.yaw_std):
        print(f"processed {len(traj)} keyframes (mode {args.mode})")
    return 0


def cmd_eval(args):
    est = io.read_tum(args.estimate)
    if args.metric == "e2e":
        print(f"{evaluate.end_to_end_error(est):.6f}")
        return 0
    truth = io.read_tum(args.truth)
    if args.metric == "ate":
        print(f"{evaluate.ate_rmse(est, truth, align=not args.no_align):.6f}")
        return 0
    series = evaluate.attitude_error_series(est, truth)
    arr = np.array([(r, p, y) for _, r, p, y in series])
    rms = np.sqrt(np.mean(arr**2, axis=0))
    if args.out:
        with open(args.out, "w") as f:
            f.write("t,roll_deg,pitch_deg,yaw_deg\n")
            for t, r, p, y in series:
                f.write(f"{t:.9f},{r:.9e},{p:.9e},{y:.9e}\n")
    print(f"roll_rms_deg={rms[0]:.6f} pitch_rms_deg={rms[1]:.6f} yaw_rms_deg={rms[2]:.6f}")
    return 0


def cmd_colorize(args):
    pts = io.read_ply(args.map)
    img = io.read_ppm(args.image)
    cfg = io.read_config(args.config)
    pose = Pose(io.read_vector(cfg, "cam_p", [0, 0, 0]),
                quat_normalize(io.read_vector(cfg, "cam_q", [1, 0, 0, 0])))
    colors, valid = evaluate.colorize_points(
        pts, img, pose, float(cfg.get("focal", 500.0)),
        cfg.get("cx"), cfg.get("cy"))
    export_ply(pts, args.out, colors=colors)
    print(f"colorized {int(valid.sum())}/{len(pts)} points -> {args.out}")
    return 0


def cmd_bench_f2m(args):
    d = Path(args.data_dir)
    clusters = io.read_clusters_csv(d / "clusters.csv")
    truth = io.read_tum(d / "gt.tum")
    sensor = io.read_config(d / "sensor.cfg")
    lid_ext = LidarImuExtrinsics(io.read_vector(sensor, "lid_t", [0, 0, 0]),
                                 io.read_vector(sensor, "lid_q", [1, 0, 0, 0]))
    tt = np.array([t for t, _ in truth])

    def pose_at(t):
        i = int(np.clip(np.searchsorted(tt, t), 0, len(tt) - 1))
        return truth[i][1].compose(lid_ext.pose())

    pmap = GlobalPlaneMap(leaf_size=0.05)
    n_map = min(len(clusters) - 1, 10)
    for stamp, _, _, pts in clusters[:n_map]:
        pmap.insert(pose_at(stamp).transform(pts))
    stamp, _, _, scan = clusters[n_map]
    reps = int(np.ceil(args.points / len(scan)))
    scan = np.tile(scan, (reps, 1))[:args.points]
    scan = scan + np.random.default_rng(0).normal(scale=1e-4, size=scan.shape)
    init = pose_at(stamp)
    times = []
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        estimate_f2m_pose(scan, init, pmap)
        times.append((time.perf_counter() - t0) * 1e3)
    med = float(np.median(times))
    print(f"estimate_f2m_pose: {med:.3f} ms median over {args.repeats} runs "
          f"({args.points} points, map size {len(pmap)})")
    return 0


def make_parser():
    ap = argparse.ArgumentParser(prog="lvio",
                                 description="pose-only LiDAR-visual-inertial odometry")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scenario")
    p.add_argument("scenario")
    p.add_argument("out_dir")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("run", help="run the estimator on a data directory")
    p.add_argument("data_dir")
    p.add_argument("--mode", default="full", choices=MODES)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--traj")
    p.add_argument("--calib-report")
    p.add_argument("--yaw-std")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("eval", help="trajectory metrics")
    p.add_argument("metric", choices=["ate", "e2e", "att"])
    p.add_argument("estimate")
    p.add_argument("truth", nargs="?")
    p.add_argument("--no-align", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("colorize", help="colorize a PLY map from a PPM image")
    p.add_argument("map")
    p.add_argument("image")
    p.add_argument("config")
    p.add_argument("--out", default="colorized.ply")
    p.set_defaults(fn=cmd_colorize)

    p = sub.add_parser("bench-f2m", help="time the F2M registration")
    p.add_argument("data_dir")
    p.add_argument("--points", type=int, default=2000)
    p.add_argument("--repeats", type=int, default=9)
    p.set_defaults(fn=cmd_bench_f2m)
    return ap


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # CLI boundary: report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
