"""The benchmark's workloads: scenario, run mode, estimator settings, checks.

Each scenario is a `lvio.simulate` config without its seed; the benchmark
adds `--seed`, so the world layout and every noise draw follow the seed
while the make-up (rates, durations, densities, noise levels) stays fixed.
Durations end half a frame after the last sensor frame, so rounding in
the sensor clocks cannot drop the last frame.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from lvio.estimator import EstimatorConfig

# Sensor noise shared by all workloads: 0.5 px on a 500 px focal length,
# 1 cm LiDAR range noise, and a tactical-grade IMU.
NOISE = {
    "pixel_sigma": 0.5,
    "range_sigma": 0.01,
    "gyro_noise": 5e-5,
    "accel_noise": 5e-4,
}


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # `lvio run --mode`
    scenario: dict
    # fresh estimator settings per round: run_estimator writes the mode into them
    config: Callable[[], EstimatorConfig]
    ate_tol_m: float  # accuracy gate, justified in README.md
    simulate_repeats: int  # simulate_s is the median of this many runs
    delay_tol_s: float | None = None  # gate on the final camera delay

    def scenario_for(self, seed: int) -> dict:
        return dict(self.scenario, seed=seed)


def strip_lidar(data_dir: Path) -> None:
    """Delete clusters.csv and blank the LiDAR depth columns of features.csv."""
    (data_dir / "clusters.csv").unlink()
    path = data_dir / "features.csv"
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(rows[0])
        for row in rows[1:]:
            w.writerow(row[:7] + ["", ""])


WORKLOADS = {
    w.name: w
    for w in (
        # Full camera + LiDAR + IMU stream with the default estimator, as
        # `lvio run` would: the dense 10-keyframe solve dominates.
        Workload(
            name="lvio_default",
            mode="full",
            scenario={
                "trajectory": "circle", "radius": 20.0, "duration": 2.05,
                "laps": 2.05 / 80.0,  # an 80 s lap: 1.6 m/s
                "imu_rate": 200, "cam_rate": 10, "lidar_rate": 10,
                "lidar_fov_deg": 360, "lidar_max_range": 60,
                "n_billboards": 40, "n_landmarks": 800, "points_per_patch": 20,
                **NOISE,
            },
            config=lambda: EstimatorConfig(window_size=6, max_tracks=20,
                                           max_clusters=15, max_iterations=4),
            ate_tol_m=0.03,
            simulate_repeats=5,
        ),
        # LiDAR + IMU over one full loop with dense scans and a small
        # window: F2M registration and map insertion dominate, and their
        # cost grows with the map.
        Workload(
            name="lio_map",
            mode="lio",
            scenario={
                "trajectory": "circle", "radius": 15.0, "duration": 10.35,
                "laps": 1.0,
                "imu_rate": 200, "cam_rate": 10, "lidar_rate": 10,
                "lidar_fov_deg": 360, "lidar_max_range": 60,
                "n_billboards": 40, "n_landmarks": 20, "points_per_patch": 12,
                **NOISE,
            },
            config=lambda: EstimatorConfig(window_size=4, max_tracks=8,
                                           max_clusters=10, max_iterations=4),
            ate_tol_m=0.05,
            simulate_repeats=3,
        ),
        # Camera + IMU on a well-excited wiggle with a drifting 20 ms camera
        # delay, recovered online; no LiDAR data reaches the estimator.
        Workload(
            name="vio_calib",
            mode="vio",
            scenario={
                "trajectory": "wiggle", "duration": 6.05,
                "imu_rate": 200, "cam_rate": 10, "lidar_rate": 10,
                "n_billboards": 20, "n_landmarks": 800,
                "dt_bc": 0.02, "dt_bc_drift": 1e-4,
                **NOISE,
            },
            config=lambda: EstimatorConfig(window_size=5, max_tracks=15,
                                           max_iterations=4),
            ate_tol_m=0.05,
            simulate_repeats=3,
            delay_tol_s=2e-3,
        ),
    )
}
