import bisect
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvio.geometry import Pose, exp_map, log_map, quat_conjugate, quat_multiply, quat_rotate
from lvio.imu import (
    GRAVITY_W,
    ImuNoiseConfig,
    integrate,
    mechanize,
    preintegration_residual,
    slice_samples,
)

from conftest import fd_jacobian, rand_quat, rel_error


@dataclass
class State:
    timestamp: float
    p: np.ndarray
    q: np.ndarray
    v: np.ndarray
    bg: np.ndarray = field(default_factory=lambda: np.zeros(3))
    ba: np.ndarray = field(default_factory=lambda: np.zeros(3))


def make_samples(duration, rate, gyro_fn, accel_fn):
    ts = np.arange(0.0, duration + 1e-12, 1.0 / rate)
    return np.array([[t, *gyro_fn(t), *accel_fn(t)] for t in ts])


NOISE = ImuNoiseConfig()


def test_integrate_zero_rate_identity_rotation():
    samples = make_samples(1.0, 100, lambda t: np.zeros(3), lambda t: np.zeros(3))
    pre = integrate(samples, np.zeros(3), np.zeros(3), NOISE)
    np.testing.assert_allclose(pre.delta_q, [1, 0, 0, 0], atol=1e-15)


def test_integrate_constant_rotation_rate():
    w = np.array([0.0, 0.0, 0.1])
    samples = make_samples(1.0, 1000, lambda t: w, lambda t: np.zeros(3))
    pre = integrate(samples, np.zeros(3), np.zeros(3), NOISE)
    np.testing.assert_allclose(pre.delta_q, exp_map(w), atol=1e-6)


def test_integrate_constant_force():
    a = np.array([0.3, -0.2, 0.5])
    samples = make_samples(2.0, 1000, lambda t: np.zeros(3), lambda t: a)
    pre = integrate(samples, np.zeros(3), np.zeros(3), NOISE)
    np.testing.assert_allclose(pre.delta_p, 0.5 * a * 4.0, atol=1e-6)
    np.testing.assert_allclose(pre.delta_v, a * 2.0, atol=1e-6)


def test_integrate_rejects_bad_input():
    with pytest.raises(ValueError):
        integrate(np.zeros((1, 7)), np.zeros(3), np.zeros(3), NOISE)
    s = np.zeros((2, 7))
    s[0, 0] = 0.1
    with pytest.raises(ValueError):
        integrate(s, np.zeros(3), np.zeros(3), NOISE)
    with pytest.raises(ValueError):
        mechanize(State(0.0, np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros(3)), s)


def _wavy_samples(rng=None, duration=0.5, rate=400):
    def gyro(t):
        return np.array([0.3 * np.sin(3 * t), -0.2 * np.cos(2 * t), 0.4 * np.sin(t + 0.5)])

    def accel(t):
        return np.array([1.0 * np.sin(2 * t), 0.5 * np.cos(3 * t), 9.81 + 0.3 * np.sin(t)])

    return make_samples(duration, rate, gyro, accel)


def test_deltas_invariant_to_world_pose(rng):
    samples = _wavy_samples()
    pre = integrate(samples, np.zeros(3), np.zeros(3), NOISE)
    pre2 = integrate(samples, np.zeros(3), np.zeros(3), NOISE)
    np.testing.assert_allclose(pre.delta_p, pre2.delta_p, atol=1e-10)
    # deltas never reference any world state by construction; re-running after
    # mechanizing from a rotated start must still agree
    np.testing.assert_allclose(pre.delta_q, pre2.delta_q, atol=1e-10)


def test_covariance_psd_and_monotone():
    samples = _wavy_samples(duration=1.0)
    pre_half = integrate(samples[:200], np.zeros(3), np.zeros(3), NOISE)
    pre_full = integrate(samples, np.zeros(3), np.zeros(3), NOISE)
    for pre in (pre_half, pre_full):
        w = np.linalg.eigvalsh(pre.covariance)
        assert w.min() > -1e-18
    assert np.trace(pre_full.covariance) > np.trace(pre_half.covariance)


def _states_from_mechanization(samples, state0):
    poses, vels = mechanize(state0, samples)
    t, last = poses[-1]
    return State(t, last.t, last.q, vels[-1], state0.bg.copy(), state0.ba.copy())


def test_residual_self_consistency(rng):
    samples = _wavy_samples()
    s0 = State(0.0, np.array([1.0, 2, 3]), rand_quat(rng), np.array([0.5, -0.1, 0.2]))
    s1 = _states_from_mechanization(samples, s0)
    pre = integrate(samples, np.zeros(3), np.zeros(3), NOISE)
    r, _ = preintegration_residual(s0, s1, pre, False)
    assert np.linalg.norm(r) < 1e-8


def test_residual_position_perturbation(rng):
    samples = _wavy_samples()
    s0 = State(0.0, np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros(3))
    s1 = _states_from_mechanization(samples, s0)
    pre = integrate(samples, np.zeros(3), np.zeros(3), NOISE)
    s1p = State(s1.timestamp, s1.p + np.array([0.1, 0, 0]), s1.q, s1.v)
    r, _ = preintegration_residual(s0, s1p, pre, False)
    Ri = np.eye(3)
    np.testing.assert_allclose(r[0:3], Ri.T @ np.array([0.1, 0, 0]), atol=1e-8)


def test_residual_duration_mismatch():
    samples = _wavy_samples()
    s0 = State(0.0, np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros(3))
    s1 = State(0.6, np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros(3))
    pre = integrate(samples, np.zeros(3), np.zeros(3), NOISE)
    with pytest.raises(ValueError):
        preintegration_residual(s0, s1, pre, False)


def test_bias_jacobian_matches_finite_difference(rng):
    samples = _wavy_samples()
    bg0, ba0 = np.zeros(3), np.zeros(3)
    pre = integrate(samples, bg0, ba0, NOISE)
    dbg = rng.normal(size=3) * 1e-5
    dba = rng.normal(size=3) * 1e-5
    pre_new = integrate(samples, bg0 + dbg, ba0 + dba, NOISE)
    dp_pred, dv_pred, dq_pred = pre.corrected_deltas(bg0 + dbg, ba0 + dba)
    assert rel_error(dp_pred, pre_new.delta_p) < 1e-6
    assert rel_error(dv_pred, pre_new.delta_v) < 1e-6
    dq_err = log_map(quat_multiply(quat_conjugate(dq_pred), pre_new.delta_q))
    assert np.linalg.norm(dq_err) < 1e-9


def _perturbed_state(s, d):
    return State(
        s.timestamp,
        s.p + d[0:3],
        quat_multiply(s.q, exp_map(d[3:6])),
        s.v + d[6:9],
        s.bg + d[9:12],
        s.ba + d[12:15],
    )


def test_residual_jacobians_match_fd(rng):
    samples = _wavy_samples()
    for trial in range(50):
        s0 = State(
            0.0,
            rng.normal(size=3),
            rand_quat(rng),
            rng.normal(size=3),
            rng.normal(size=3) * 1e-3,
            rng.normal(size=3) * 1e-2,
        )
        s1 = State(
            samples[-1, 0],
            rng.normal(size=3),
            rand_quat(rng),
            rng.normal(size=3),
            s0.bg + rng.normal(size=3) * 1e-4,
            s0.ba + rng.normal(size=3) * 1e-3,
        )
        pre = integrate(samples, s0.bg, s0.ba, NOISE)
        _, J = preintegration_residual(s0, s1, pre, True)

        Jfd_i = fd_jacobian(
            lambda d: preintegration_residual(_perturbed_state(s0, d), s1, pre, False)[0], 15
        )
        Jfd_j = fd_jacobian(
            lambda d: preintegration_residual(s0, _perturbed_state(s1, d), pre, False)[0], 15
        )
        # columns: (p, q, v, bg, ba) of state i, then of state j
        assert rel_error(J[:, :15], Jfd_i) < 1e-4, trial
        assert rel_error(J[:, 15:], Jfd_j) < 1e-4, trial


def test_mechanize_stationary():
    g = GRAVITY_W

    def accel(t):
        return -g  # specific force of a body at rest, level attitude

    samples = make_samples(1.0, 200, lambda t: np.zeros(3), accel)
    s0 = State(0.0, np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros(3))
    poses, vels = mechanize(s0, samples)
    for _, pose in poses:
        np.testing.assert_allclose(pose.t, 0, atol=1e-9)


def test_mechanize_pure_rotation():
    samples = make_samples(
        1.0, 200, lambda t: np.array([0.0, 0.0, 0.5]), lambda t: -GRAVITY_W
    )
    # rotating about z with level attitude keeps specific force = -g exactly
    s0 = State(0.0, np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros(3))
    poses, _ = mechanize(s0, samples)
    # rotation about the gravity axis leaves -R^T g = -g: no translation
    np.testing.assert_allclose(poses[-1][1].t, 0, atol=1e-9)


def test_mechanize_matches_preintegration(rng):
    samples = _wavy_samples()
    s0 = State(0.0, rng.normal(size=3), rand_quat(rng), rng.normal(size=3))
    poses, vels = mechanize(s0, samples)
    pre = integrate(samples, np.zeros(3), np.zeros(3), NOISE)
    T = pre.duration
    R0 = Pose(s0.p, s0.q).rotation_matrix()
    p_pred = s0.p + s0.v * T + 0.5 * GRAVITY_W * T**2 + R0 @ pre.delta_p
    q_pred = quat_multiply(s0.q, pre.delta_q)
    np.testing.assert_allclose(poses[-1][1].t, p_pred, atol=1e-8)
    np.testing.assert_allclose(poses[-1][1].q, q_pred, atol=1e-8)


def test_slice_samples_interpolates_boundaries():
    samples = _wavy_samples(duration=1.0)
    part = slice_samples(samples, 0.1234, 0.789)
    assert part.shape[1] == 7
    assert abs(part[0, 0] - 0.1234) < 1e-12
    assert abs(part[-1, 0] - 0.789) < 1e-12
    assert np.all(np.diff(part[:, 0]) > 0)


def test_slice_samples_bounds_on_samples():
    samples = _wavy_samples(duration=1.0)
    part = slice_samples(samples, samples[40, 0], samples[300, 0])
    # both ends fall on samples: they are returned as is, nothing interpolated
    assert np.array_equal(part, samples[40:301])
    with pytest.raises(ValueError):
        slice_samples(samples, -0.1, 0.5)
    with pytest.raises(ValueError):
        slice_samples(samples, 0.5, samples[-1, 0] + 0.1)


def test_slice_samples_bounds_just_outside_the_stream():
    """A bound up to 1e-9 s outside the stream extends its first or last
    sample interval linearly."""
    samples = np.column_stack([np.arange(5) * 0.01, np.arange(30.0).reshape(5, 6) ** 2])
    t1 = 0.04 + 5e-10
    part = slice_samples(samples, 0.0, t1)
    assert part[-1, 0] == t1
    assert np.array_equal(part[:-1], samples)
    a = (t1 - 0.03) / 0.01
    np.testing.assert_allclose(part[-1, 1:], (1 - a) * samples[3, 1:] + a * samples[4, 1:],
                               rtol=1e-12)

    t0 = -5e-10
    part = slice_samples(samples, t0, 0.04)
    assert part[0, 0] == t0
    assert np.array_equal(part[1:], samples)
    a = t0 / 0.01
    np.testing.assert_allclose(part[0, 1:], (1 - a) * samples[0, 1:] + a * samples[1, 1:],
                               rtol=1e-12)


def reference_slice(samples, t0, t1):
    """slice_samples over a list of rows with `bisect`, as it was written for
    a list of per-sample records."""
    rows = list(samples)
    times = samples[:, 0].tolist()

    def interp(t):
        i = bisect.bisect_left(times, t)
        if i < len(rows) and abs(times[i] - t) < 1e-12:
            return rows[i]
        lo, hi = rows[i - 1], rows[i]
        a = (t - times[i - 1]) / (times[i] - times[i - 1])
        return np.concatenate([[t], (1 - a) * lo[1:4] + a * hi[1:4],
                               (1 - a) * lo[4:7] + a * hi[4:7]])

    i0 = bisect.bisect_right(times, t0 + 1e-12)
    i1 = bisect.bisect_left(times, t1 - 1e-12)
    return np.array([interp(t0)] + rows[i0:i1] + [interp(t1)])


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 30), st.integers(0, 2**32 - 1), st.data())
def test_slice_samples_matches_bisect_reference(n, seed, data):
    rng = np.random.default_rng(seed)
    samples = np.column_stack([np.cumsum(rng.uniform(1e-3, 1e-2, n)), rng.normal(size=(n, 6))])
    t = samples[:, 0]

    def bound():  # on the sample grid (both ends included) or between samples
        if data.draw(st.booleans()):
            return float(t[data.draw(st.integers(0, n - 1))])
        return data.draw(st.floats(float(t[0]), float(t[-1])))

    t0, t1 = sorted((bound(), bound()))
    got, ref = slice_samples(samples, t0, t1), reference_slice(samples, t0, t1)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
