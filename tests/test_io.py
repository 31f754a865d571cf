"""The sensor CSV streams as tables: the writers reproduce the `csv.writer`
files byte for byte, the readers split them into frames of arrays, and
`cli.build_bundles` hands the feature rows and LiDAR arrays on to the
estimator unchanged."""

import csv
import math

import numpy as np
import pytest

from lvio import io
from lvio.calibration import CameraImuExtrinsics, LidarImuExtrinsics
from lvio.cli import build_bundles, main
from lvio.estimator import Estimator, EstimatorConfig
from lvio.simulate import (
    DiscreteTruth,
    SensorConfig,
    make_wiggle_spec,
    make_world,
    synth_camera,
    synth_imu,
    synth_lidar,
)

# -- reference writers: the csv.writer code the table writers replace ----------


def reference_imu_csv(path, samples):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "gx", "gy", "gz", "ax", "ay", "az"])
        for t, *values in samples:
            w.writerow([f"{t:.9f}"] + [f"{x:.12e}" for x in values])


def reference_features_csv(path, frames):
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


def reference_clusters_csv(path, frames):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "frame_id", "cluster_id", "x", "y", "z"])
        for stamp, frame_id, rows in frames:
            for cid, p in rows:
                w.writerow([f"{stamp:.9f}", frame_id, cid]
                           + [f"{x:.12e}" for x in p])


# -- read frames back into the writers' layout ----------------------------------


def features_as_written(frames):
    return [(stamp, frame_id,
             [(int(lm), ux, uy, vx, vy, None if math.isnan(d) else (d, s))
              for lm, ux, uy, vx, vy, d, s in rows.tolist()])
            for stamp, frame_id, rows in frames]


def clusters_as_written(frames):
    return [(stamp, frame_id, list(zip(cluster_ids.tolist(), points)))
            for stamp, frame_id, cluster_ids, points in frames]


@pytest.fixture(scope="module")
def streams():
    spec = make_wiggle_spec(1.0)
    world = make_world(spec, np.random.default_rng(3), n_billboards=5, n_landmarks=40)
    cfg = SensorConfig(imu_rate=100.0, cam_rate=5.0, lidar_rate=5.0, lidar_fov_deg=360.0,
                       pixel_sigma=0.5, range_sigma=0.01, gyro_noise=1e-4,
                       accel_noise=1e-3, points_per_patch=4)
    truth = DiscreteTruth(spec, cfg)
    rng = np.random.default_rng(4)
    return (synth_imu(spec, cfg, rng), synth_camera(spec, world, cfg, rng, truth=truth),
            synth_lidar(spec, world, cfg, rng, truth=truth))


def test_imu_csv_matches_reference_writer(tmp_path, streams):
    samples = streams[0]
    io.write_imu_csv(tmp_path / "a.csv", samples)
    reference_imu_csv(tmp_path / "ref.csv", samples)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    back = io.read_imu_csv(tmp_path / "a.csv")
    io.write_imu_csv(tmp_path / "b.csv", back)
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()


def test_features_csv_round_trips_byte_for_byte(tmp_path, streams):
    frames = streams[1]
    assert any(r[5] is None for _, _, rows in frames for r in rows)
    assert any(r[5] is not None for _, _, rows in frames for r in rows)
    io.write_features_csv(tmp_path / "a.csv", frames)
    reference_features_csv(tmp_path / "ref.csv", frames)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    back = io.read_features_csv(tmp_path / "a.csv")
    assert [(s, f) for s, f, _ in back] == [(s, f) for s, f, _ in frames]
    io.write_features_csv(tmp_path / "b.csv", features_as_written(back))
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()


def test_clusters_csv_round_trips_byte_for_byte(tmp_path, streams):
    frames = streams[2]
    io.write_clusters_csv(tmp_path / "a.csv", frames)
    reference_clusters_csv(tmp_path / "ref.csv", frames)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    back = io.read_clusters_csv(tmp_path / "a.csv")
    assert [(s, f) for s, f, _, _ in back] == [(s, f) for s, f, _ in frames]
    for (_, _, rows), (_, _, cluster_ids, points) in zip(frames, back):
        assert cluster_ids.tolist() == [cid for cid, _ in rows]
        assert points.shape == (len(rows), 3) and points.flags.c_contiguous
    io.write_clusters_csv(tmp_path / "b.csv", clusters_as_written(back))
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()


def test_header_only_streams_have_no_frames(tmp_path):
    io.write_imu_csv(tmp_path / "imu.csv", np.zeros((0, 7)))
    io.write_features_csv(tmp_path / "features.csv", [])
    io.write_clusters_csv(tmp_path / "clusters.csv", [])
    assert (tmp_path / "clusters.csv").read_bytes() == b"t,frame_id,cluster_id,x,y,z\r\n"
    assert io.read_imu_csv(tmp_path / "imu.csv").shape == (0, 7)
    assert io.read_features_csv(tmp_path / "features.csv") == []
    assert io.read_clusters_csv(tmp_path / "clusters.csv") == []


def test_one_row_streams(tmp_path):
    io.write_clusters_csv(tmp_path / "c.csv", [(0.5, 3, [(7, np.array([1.0, -2.0, 0.25]))])])
    [(stamp, frame_id, cluster_ids, points)] = io.read_clusters_csv(tmp_path / "c.csv")
    assert (stamp, frame_id, cluster_ids.tolist()) == (0.5, 3, [7])
    np.testing.assert_array_equal(points, [[1.0, -2.0, 0.25]])
    io.write_features_csv(tmp_path / "f.csv", [(0.5, 3, [(9, 0.1, 0.2, 0.3, 0.4, None)])])
    [(stamp, frame_id, rows)] = io.read_features_csv(tmp_path / "f.csv")
    assert (stamp, frame_id, rows.shape) == (0.5, 3, (1, 7))
    np.testing.assert_array_equal(rows[0, :5], [9, 0.1, 0.2, 0.3, 0.4])
    assert np.isnan(rows[0, 5:]).all()


def test_interleaved_frames_group_by_first_appearance(tmp_path):
    path = tmp_path / "c.csv"
    # frame 7 starts first; each frame keeps the stamp of its first row
    path.write_bytes(b"t,frame_id,cluster_id,x,y,z\r\n"
                     b"0.7,7,1,1,0,0\r\n"
                     b"0.3,3,2,2,0,0\r\n"
                     b"0.7,7,1,3,0,0\r\n"
                     b"0.31,3,5,4,0,0\r\n"
                     b"0.7,7,4,5,0,0\r\n")
    frames = io.read_clusters_csv(path)
    assert [(s, f, c.tolist()) for s, f, c, _ in frames] == [
        (0.7, 7, [1, 1, 4]), (0.3, 3, [2, 5])]
    assert [p[:, 0].tolist() for *_, p in frames] == [[1, 3, 5], [2, 4]]


def test_frame_without_depth(tmp_path):
    frames = [(0.0, 0, [(1, 0.1, 0.2, 0.0, 0.0, (4.5, 0.05)), (2, 0.3, 0.1, 0.0, 0.0, None)]),
              (0.2, 1, [(1, 0.1, 0.2, 0.0, 0.0, None), (2, 0.3, 0.1, 0.0, 0.0, None)])]
    io.write_features_csv(tmp_path / "f.csv", frames)
    back = io.read_features_csv(tmp_path / "f.csv")
    assert np.isnan(back[1][2][:, 5:]).all()
    bundles = build_bundles(back, [], "full")
    assert bundles[0].features is back[0][2]
    np.testing.assert_array_equal(bundles[0].features[:, 5:], [[4.5, 0.05], [np.nan, np.nan]])
    np.testing.assert_array_equal(bundles[1].features[:, 5:], np.full((2, 2), np.nan))
    # lio mode gets no feature rows
    assert [b.features.shape for b in build_bundles(back, [], "lio")] == [(0, 7), (0, 7)]


@pytest.mark.parametrize("depth", [(0.0, 0.05), (-1.0, 0.05), (4.5, 0.0), (4.5, -0.05)])
def test_features_csv_rejects_nonpositive_depth(tmp_path, depth):
    io.write_features_csv(tmp_path / "f.csv", [(0.0, 0, [(1, 0.1, 0.2, 0.0, 0.0, depth)])])
    with pytest.raises(ValueError, match="not positive"):
        io.read_features_csv(tmp_path / "f.csv")


def test_build_bundles_hands_cluster_points_to_the_estimator(tmp_path):
    pts = np.arange(15.0).reshape(5, 3)
    rows = list(zip([4, 2, 4, 9, 2], pts))
    io.write_clusters_csv(tmp_path / "c.csv", [(0.0, 0, rows)])
    io.write_features_csv(tmp_path / "f.csv", [(0.0, 0, [(6, 0.1, 0.2, 0.0, 0.0, None)])])
    clusters = io.read_clusters_csv(tmp_path / "c.csv")
    [bundle] = build_bundles(io.read_features_csv(tmp_path / "f.csv"), clusters, "full")
    assert bundle.clusters[1] is clusters[0][3]
    assert bundle.scan is bundle.clusters[1]
    np.testing.assert_array_equal(bundle.scan, pts)
    assert bundle.features[:, 0].tolist() == [6]
    # a LiDAR frame without a camera frame gets no feature rows
    assert build_bundles([], clusters, "full")[0].features.shape == (0, 7)

    est = Estimator(CameraImuExtrinsics(np.zeros(3), np.array([1.0, 0, 0, 0])),
                    LidarImuExtrinsics(np.zeros(3), np.array([1.0, 0, 0, 0])),
                    EstimatorConfig(mode="no_f2m"))
    est.initialize(bundle, np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros(3))
    groups = est._clusters
    assert list(groups) == [4, 2, 9]
    for cid, idx in ((4, [0, 2]), (2, [1, 4]), (9, [3])):
        assert list(groups[cid]) == [0]
        np.testing.assert_array_equal(groups[cid][0], pts[idx])


# -- malformed streams: a reader raises, `lvio run` reports it -------------------


@pytest.mark.parametrize("fault", ["nan value", "repeated stamp", "six fields"])
def test_run_reports_a_malformed_imu_csv(tmp_path, capsys, fault):
    samples = np.column_stack([np.arange(5) * 0.01, np.ones((5, 6))])
    if fault == "nan value":
        samples[2, 4] = np.nan
    if fault == "repeated stamp":
        samples[3, 0] = samples[2, 0]
    io.write_imu_csv(tmp_path / "imu.csv", samples)
    if fault == "six fields":
        lines = (tmp_path / "imu.csv").read_bytes().split(b"\r\n")
        lines[3] = lines[3].rsplit(b",", 1)[0]
        (tmp_path / "imu.csv").write_bytes(b"\r\n".join(lines))
    with pytest.raises(ValueError, match="imu.csv"):
        io.read_imu_csv(tmp_path / "imu.csv")
    assert main(["run", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "imu.csv" in err


@pytest.mark.parametrize("row", [
    b"0.0,0,1,nan,0.2,0.0,0.0,,\r\n",  # a bearing
    b"0.0,0,1,0.1,0.2,inf,0.0,,\r\n",  # a feature velocity
    b"0.0,0,1,0.1,0.2,0.0,0.0,nan,0.05\r\n",  # a depth
    b"0.0,0,1,0.1,0.2,0.0,0.0,4.5,inf\r\n",  # a depth sigma
    b"0.0,0,1,0.1,0.2,0.0,0.0,4.5,\r\n",  # a depth without its sigma
])
def test_features_csv_rejects_a_non_finite_value(tmp_path, row):
    header = b"t,frame_id,landmark_id,ux,uy,vx,vy,depth,depth_sigma\r\n"
    (tmp_path / "f.csv").write_bytes(header + b"0.0,0,2,0.1,0.2,0.0,0.0,,\r\n" + row)
    with pytest.raises(ValueError, match="f.csv"):
        io.read_features_csv(tmp_path / "f.csv")
    # the same file without the bad row reads, its blank depth fields as NaN
    (tmp_path / "f.csv").write_bytes(header + b"0.0,0,2,0.1,0.2,0.0,0.0,,\r\n")
    [(_, _, rows)] = io.read_features_csv(tmp_path / "f.csv")
    assert np.isnan(rows[0, 5:]).all() and np.isfinite(rows[0, :5]).all()


@pytest.mark.parametrize("value", [b"nan", b"inf", b"-inf"])
def test_clusters_csv_rejects_a_non_finite_value(tmp_path, value):
    path = tmp_path / "c.csv"
    path.write_bytes(b"t,frame_id,cluster_id,x,y,z\r\n0.0,0,1,1,2,3\r\n0.0,0,1,1," + value
                     + b",3\r\n")
    with pytest.raises(ValueError, match="not finite"):
        io.read_clusters_csv(path)
