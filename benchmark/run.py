"""lvio benchmark: closed-loop replay of simulated sensor streams.

Run from the repository root:

    python3 benchmark/run.py --workload lio_map --seed 1 --seconds 20 --trace 0

Each run simulates the workload's data directory from --seed, sets the
pipeline up as `lvio run` does, and replays the stream in rounds: one
`cli.run_estimator` call feeds every frame to `Estimator.process_frame` as
soon as the previous call returns, and map-building workloads end the round
with the map-render step. Rounds repeat while the next one is expected to
end within --seconds (at least one round). Every output is checked; the last
line of standard output is one JSON object with the end-to-end metrics
(--trace 0) or the per-layer metrics of a traced round (--trace 1).
See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns, thread_time_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The estimator's matrices have at most a few hundred rows; a second
# OpenBLAS thread makes them no faster and only adds contention.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# Setups timed on their own, besides the one of each round: at least
# SETUP_PASSES, more while they have taken less than SETUP_BUDGET_S.
SETUP_PASSES = 2
SETUP_BUDGET_S = 1.0
MAX_SETUP_PASSES = 50


class SetupDone(Exception):
    """Raised at the first frame of a setup-only pass."""


class Replay:
    """Times the Estimator.process_frame calls that cli.run_estimator makes.

    The pipeline is single-threaded and does no I/O inside a frame, so a
    frame's latency is taken on the thread's CPU clock: it equals the wall
    time on an idle machine and leaves out the time a shared host runs
    other guests. The wall time of each call is kept for the real-time
    factor."""

    def __init__(self, estimator_cls):
        self._cls = estimator_cls
        self.setup_only = False
        self.reset()

    def reset(self):
        self.first_call_cpu_ns = None
        self.calls = 0
        self.cpu_ns: list[int] = []
        self.wall_ns: list[int] = []

    def __enter__(self):
        # wrap whatever is installed, so a traced process_frame stays inside
        self._orig = orig = self._cls.__dict__["process_frame"]
        replay = self

        def process_frame(est, bundle):
            cpu0, wall0 = thread_time_ns(), perf_counter_ns()
            if replay.first_call_cpu_ns is None:
                replay.first_call_cpu_ns = cpu0
            if replay.setup_only:
                raise SetupDone
            replay.calls += 1
            out = orig(est, bundle)
            replay.wall_ns.append(perf_counter_ns() - wall0)
            replay.cpu_ns.append(thread_time_ns() - cpu0)
            return out

        self._cls.process_frame = process_frame
        return self

    def __exit__(self, *exc):
        self._cls.process_frame = self._orig


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def inputs_digest(data_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(data_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Bench:
    """One benchmark run of one workload. Times are thread CPU ns unless
    named wall."""

    def __init__(self, wl, seed: int, seconds: float, work: Path):
        from lvio.estimator import Estimator

        self.wl, self.seed, self.seconds = wl, seed, seconds
        self.work = work
        self.data = work / "data"
        self.replay = Replay(Estimator)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.simulate_ns: list[int] = []
        self.setup_ns: list[int] = []
        self.frame_ns: list[int] = []
        self.frame_wall_ns: list[int] = []
        self.sensor_s = 0.0
        self.render_ns: list[int] = []
        self.ate = None
        self.map_points = 0
        self.tracer = None  # set for the traced phase of a --trace 1 run
        self._image = None

    def _operation(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def simulate(self, repeats: int, out_dir: Path):
        from lvio.simulate import simulate_scenario

        for _ in range(repeats):
            with self._operation("bench.simulate"):
                t0 = thread_time_ns()
                simulate_scenario(self.wl.scenario_for(self.seed), out_dir)
                self.simulate_ns.append(thread_time_ns() - t0)

    def prepare(self):
        """Simulator output -> the inputs the pipeline gets, plus the truth."""
        from lvio import io

        if self.wl.mode == "vio":  # the camera-only mode gets no LiDAR data at all
            from workloads import strip_lidar

            strip_lidar(self.data)
        self.truth = io.read_tum(self.data / "gt.tum")
        self.truth_calib = io.read_config(self.data / "truth_calib.cfg")

    def _run_estimator(self):
        from lvio import cli

        return cli.run_estimator(self.data, mode=self.wl.mode, config=self.wl.config())

    def setup_pass(self):
        """Everything `lvio run` does before its first frame, timed alone."""
        self.replay.reset()
        self.replay.setup_only = True
        t0 = thread_time_ns()
        try:
            with self._operation("bench.setup"):
                self._run_estimator()
        except SetupDone:
            pass
        finally:
            self.replay.setup_only = False
        self.setup_ns.append(self.replay.first_call_cpu_ns - t0)

    def round(self):
        """Replay the stream once, check it, render the map."""
        self.replay.reset()
        t0 = thread_time_ns()
        try:
            est = self._run_estimator()
        except Exception:
            traceback.print_exc()
            est = None
        calls, ok = self.replay.calls, len(self.replay.cpu_ns)
        self.attempted += calls
        self.failed += calls - ok
        if self.replay.first_call_cpu_ns is not None:
            self.setup_ns.append(self.replay.first_call_cpu_ns - t0)
        if est is not None:
            self.frame_ns += self.replay.cpu_ns
            self.frame_wall_ns += self.replay.wall_ns
            self._check(est, ok)
            if est.uses_f2m:  # only the F2M modes build a map
                self._render(est)

    def _check(self, est, n_frames: int):
        import checks

        traj = [(o.timestamp, o.pose) for o in est.trajectory()]
        fails = checks.trajectory(traj, n_frames)
        if not fails:
            self.sensor_s += traj[-1][0] - traj[0][0]
            ate, more = checks.ate(traj, self.truth)
            fails += more
            if not ate < self.wl.ate_tol_m:
                fails.append(f"ATE {ate:.4f} m exceeds {self.wl.ate_tol_m} m")
            self.ate = ate
        if self.wl.delay_tol_s is not None:
            fails += checks.camera_delay(est, self.truth_calib, self.wl.delay_tol_s)
        if est.uses_f2m:
            fails += checks.map_voxels(est.map.points, est.map.leaf_size)
        self.map_points = len(est.map)
        self.failures += fails

    def _render(self, est):
        import checks

        if self._image is None:
            self._image = checks.render_image()
        self.attempted += 1
        t0 = thread_time_ns()
        try:
            with self._operation("bench.render"):
                out = render_map(est, self.work, self._image)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return
        self.render_ns.append(thread_time_ns() - t0)
        self.failures += checks.render(*out)

    def rounds(self):
        """Whole rounds while the next is expected to end within --seconds."""
        start = perf_counter_ns()
        while True:
            t0 = perf_counter_ns()
            self.round()
            now = perf_counter_ns()
            if now - start + (now - t0) > self.seconds * 1e9:
                break


def render_map(est, out_dir: Path, image):
    """The map-render step: export the global map, read it back, colorize
    it from one overhead camera image, write the colored map."""
    import numpy as np

    from lvio import evaluate, f2m, io
    from lvio.geometry import Pose

    f2m.export_ply(est.map, out_dir / "map.ply")
    pts = io.read_ply(out_dir / "map.ply")
    # overhead camera 10 m above the highest point, looking straight down
    # (optical axis = world -z), framing about 80% of the map's extent
    center = pts.mean(axis=0)
    height = pts[:, 2].max() + 10.0
    extent = max(float(np.max(np.linalg.norm(pts[:, :2] - center[:2], axis=1))), 1e-3)
    pose = Pose(np.array([center[0], center[1], height]), np.array([0.0, 1.0, 0.0, 0.0]))
    focal = 0.8 * (image.shape[1] - 1) / 2.0 * (height - center[2]) / extent
    colors, valid = evaluate.colorize_points(pts, image, pose, focal)
    f2m.export_ply(pts, out_dir / "map_rgb.ply", colors=colors)
    return pts, colors, valid, pose, focal


def install_tracing(tracer):
    """Wrap every traced layer under the name its caller looks it up by."""
    from lvio import cli, estimator, evaluate, f2m, factors, io, simulate

    def frame_counts(t, i, args, result):
        t.count(i, "estimator.lm_iterations", args[0].solve_log[-1].iterations)

    def problem_counts(t, i, args, result):
        # the frame's own solve, not the rebuild inside marginalization
        parent = t.spans[i][3]
        if parent >= 0 and t.spans[parent][0] == "estimator.frame":
            t.count(i, "estimator.factors", len(result.factors))
            t.count(i, "estimator.state_dim", result.dim)

    def slice_counts(t, i, args, result):
        t.count(i, "imu.samples_per_frame", len(result))

    def insert_counts(t, i, args, result):
        t.count(i, "f2m.points_offered", len(args[1]))
        t.count(i, "f2m.points_stored", result)

    w = tracer.wrap
    w(simulate.DiscreteTruth, "__init__", "simulate.truth")
    w(simulate, "synth_camera", "simulate.camera")
    w(simulate, "synth_lidar", "simulate.lidar")
    for name in ("write_imu_csv", "write_features_csv", "write_clusters_csv",
                 "write_tum", "write_config"):
        w(io, name, "simulate.write")
    for name in ("read_imu_csv", "read_features_csv", "read_clusters_csv", "read_config"):
        w(io, name, "io.read")
    w(cli, "build_bundles", "cli.bundles")
    w(estimator.Estimator, "process_frame", "estimator.frame", frame_counts)
    w(estimator.Estimator, "build_problem", "estimator.build_problem", problem_counts)
    w(estimator.Estimator, "marginalize_oldest", "estimator.marginalize")
    w(estimator.AssembledProblem, "linearize", "estimator.linearize")
    w(estimator.AssembledProblem, "cost", "estimator.cost")
    w(estimator.WindowState, "copy", "estimator.window_copy")
    w(estimator, "slice_samples", "imu.slice", slice_counts)
    w(estimator, "integrate", "imu.integrate")
    w(estimator, "mechanize", "imu.mechanize")
    w(estimator, "estimate_f2m_pose", "f2m.register")
    w(f2m.GlobalPlaneMap, "nearest", "f2m.nearest")
    w(f2m.GlobalPlaneMap, "insert", "f2m.insert", insert_counts)
    w(factors, "lidar_pa_residual", "factors.lidar")
    w(factors, "visual_pa_residual", "factors.visual")
    w(factors, "lidar_depth_pa_residual", "factors.depth")
    w(f2m, "export_ply", "io.ply")
    w(io, "read_ply", "io.ply")
    w(evaluate, "colorize_points", "evaluate.colorize")


def _median(values):
    return float(statistics.median(values))


def end_to_end(bench: Bench) -> dict:
    import numpy as np

    frame_ms = np.array(bench.frame_ns) / 1e6
    return {
        "setup_s": (_median(bench.setup_ns) / 1e9, "s"),
        "simulate_s": (_median(bench.simulate_ns) / 1e9, "s"),
        "frame_latency_p50_ms": (float(np.percentile(frame_ms, 50)), "ms"),
        "frame_latency_p90_ms": (float(np.percentile(frame_ms, 90)), "ms"),
        "realtime_factor": (bench.sensor_s / (sum(bench.frame_wall_ns) / 1e9), "x"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced(bench: Bench) -> dict:
    """Per-layer metrics: one untraced round as the baseline, then a traced
    simulation, setups, round and render."""
    import tracing

    with bench.replay:
        bench.round()
    base_ns = sum(bench.frame_ns)
    bench.frame_ns, bench.render_ns = [], []

    tracer = tracing.Tracer()
    install_tracing(tracer)
    bench.tracer = tracer
    try:
        bench.simulate(1, bench.work / "traced_sim")
        with bench.replay:
            for _ in range(SETUP_PASSES + 1):
                bench.setup_pass()
            bench.round()
    finally:
        bench.tracer = None
        tracer.unwrap_all()

    trace_dir = HERE / "traces"
    trace_dir.mkdir(exist_ok=True)
    tracer.write(trace_dir / f"{bench.wl.name}-seed{bench.seed}.json",
                 {"workload": bench.wl.name, "seed": bench.seed})
    metrics = {k: (v, tracing.unit_of(k)) for k, v in tracing.layer_metrics(tracer).items()}
    metrics["ate_m"] = (bench.ate, "m")
    metrics["f2m.map_points"] = (bench.map_points, "count")
    metrics["map_render_s"] = (_median(bench.render_ns) / 1e9 if bench.render_ns else 0.0, "s")
    metrics["trace.overhead_pct"] = ((sum(bench.frame_ns) / base_ns - 1.0) * 100.0, "%")
    frame_spans = sum(1 for s in tracer.spans
                      if s[4] >= 0 and tracer.spans[s[4]][0] == "estimator.frame")
    metrics["trace.overhead_est_pct"] = (
        frame_spans * tracing.span_cost_ns() / sum(bench.frame_ns) * 100.0, "%")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lvio" / "estimator.py").is_file():
        print(f"error: lvio sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = HERE / "work" / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    bench = Bench(wl, args.seed, args.seconds, work)
    try:
        bench.simulate(1, bench.data)
        bench.prepare()
        digest = inputs_digest(bench.data)
        if args.trace:
            metrics = traced(bench)
        else:
            with bench.replay:
                while len(bench.setup_ns) < SETUP_PASSES or (
                        sum(bench.setup_ns) < SETUP_BUDGET_S * 1e9
                        and len(bench.setup_ns) < MAX_SETUP_PASSES):
                    bench.setup_pass()
                bench.rounds()
            # the other simulations come after the rounds, so that a burst
            # of load on a shared host does not skew all of them
            bench.simulate(wl.simulate_repeats - 1, bench.work / "resim")
            if not bench.frame_ns:
                print("error: no round completed", file=sys.stderr)
                return 1
            metrics = end_to_end(bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only succeeds when no other run uses it

    print(f"{wl.name} seed {args.seed}: {len(bench.frame_ns)} frames, "
          f"{len(bench.setup_ns)} setups, {len(bench.render_ns)} renders, "
          f"map {bench.map_points} points, ATE {bench.ate} m, inputs sha256 {digest}")
    for msg in bench.failures:
        print(f"check failed: {msg}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
