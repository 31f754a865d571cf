import numpy as np
import pytest

from lvio.calibration import (
    CameraImuExtrinsics,
    LidarImuExtrinsics,
    calibration_report,
    compensate_feature,
    compensate_lidar_pose,
    lidar_camera_extrinsics,
    pixel_angle_deg,
    time_delay_residual,
)
from lvio.geometry import Pose, exp_map, quat_multiply, quat_rotate

from conftest import rand_pose, rand_quat


def test_compensate_feature_shift():
    p = compensate_feature(np.array([0.1, -0.2, 1.0]), np.array([2.0, 1.0]), 0.01)
    np.testing.assert_allclose(p, [0.08, -0.21, 1.0], atol=1e-15)


def test_compensate_feature_zero_delta():
    p0 = np.array([0.3, 0.4, 1.0])
    np.testing.assert_allclose(compensate_feature(p0, np.array([5.0, -3.0]), 0.0), p0)


def test_time_delay_residual():
    r, var = time_delay_residual(0.002, 0.0025, 0.1)
    np.testing.assert_allclose(r, 0.0005, atol=1e-15)
    np.testing.assert_allclose(var, 1e-8 * 0.1)
    with pytest.raises(ValueError):
        time_delay_residual(0.0, 0.0, -0.1)


def test_compensate_lidar_pose_translation_only():
    pose = Pose(np.zeros(3), np.array([1.0, 0, 0, 0]))
    out = compensate_lidar_pose(pose, 0.01, np.array([1.0, 2.0, 0.0]), np.zeros(3))
    np.testing.assert_allclose(out.t, [0.01, 0.02, 0.0], atol=1e-15)
    np.testing.assert_allclose(out.q, [1, 0, 0, 0], atol=1e-15)


def test_compensate_lidar_pose_rotation(rng):
    pose = rand_pose(rng)
    w = np.array([0.0, 0.0, 0.5])
    out = compensate_lidar_pose(pose, 0.1, np.zeros(3), w)
    np.testing.assert_allclose(out.q, quat_multiply(pose.q, exp_map(w * 0.1)), atol=1e-12)


def test_lidar_camera_extrinsics_identity_camera(rng):
    cam = CameraImuExtrinsics(np.zeros(3), np.array([1.0, 0, 0, 0]))
    lid = LidarImuExtrinsics(np.array([0.1, 0.2, 0.3]), rand_quat(rng))
    p_cr, q_rc = lidar_camera_extrinsics(cam, lid)
    np.testing.assert_allclose(p_cr, lid.p_br, atol=1e-12)
    np.testing.assert_allclose(q_rc, lid.q_rb, atol=1e-12)


def test_lidar_camera_extrinsics_composition(rng):
    cam_pose, lid_pose = rand_pose(rng), rand_pose(rng)
    cam = CameraImuExtrinsics(cam_pose.t, cam_pose.q)
    lid = LidarImuExtrinsics(lid_pose.t, lid_pose.q)
    p_cr, q_rc = lidar_camera_extrinsics(cam, lid)
    # oracle: a lidar-frame point mapped lidar -> body -> camera must agree
    # with the direct lidar -> camera map
    x_r = rng.normal(size=3)
    x_b = quat_rotate(lid.q_rb, x_r) + lid.p_br
    Rcb = cam_pose.rotation_matrix()
    x_c = Rcb.T @ (x_b - cam.p_bc)
    np.testing.assert_allclose(quat_rotate(q_rc, x_r) + p_cr, x_c, atol=1e-12)


def test_pixel_angle_matches_published_setup():
    # 5.86 um pixels behind a 6 mm lens subtend about 0.056 deg
    a = pixel_angle_deg(5.86e-6, 6.0e-3)
    np.testing.assert_allclose(a, np.degrees(np.arcsin(5.86e-6 / 6.0e-3)))
    assert 0.05 < a < 0.06


def test_calibration_report_contents():
    cam = CameraImuExtrinsics(np.array([0.1, 0.0, 0.0]), np.array([1.0, 0, 0, 0]))
    lid = LidarImuExtrinsics(np.array([0.0, 0.2, 0.0]), np.array([1.0, 0, 0, 0]), dt_br=0.004)
    text = calibration_report(cam, lid, dt_bc=0.0025, stds={"yaw_deg": 0.12})
    assert "camera-imu translation" in text
    assert "lidar-camera translation" in text
    assert "2.5000" in text  # camera delay in ms
    assert "4.0000" in text  # lidar delay in ms
    assert "std yaw_deg" in text
