"""Output digest and accuracy of `cli.run_estimator` on the benchmark workloads.

    python3 scripts/study.py --seeds 1-5 [--src path/to/src] [--workloads vio_calib]
    python3 scripts/study.py --seeds 1-5 --against path/to/other/src

For each workload of `benchmark/workloads.py` and each seed, simulates the
workload's data directory as `benchmark/run.py` does, runs the estimator
with the workload's config once, and prints one JSON line: the ATE, the
final drift (the unaligned distance between the last estimated position and
the truth at its stamp), the final camera-delay error, the camera and LiDAR
lever-arm errors, the LM iterations summed over frames, the sha256 of the
prepared data directory that `benchmark/run.py` prints as its inputs
sha256, and a sha256 over the trajectory, the map, the yaw-STD series and
the final calibration state.

--src names the source tree to import `lvio` from (default: this
repository's `src`). Equal digests on two trees show that a change keeps
both the simulated inputs and the estimator's outputs bit-identical; the
other fields are the accuracy study of a change that does not. With
--against OTHER_SRC the script runs both trees on every workload and seed,
each in its own process, prints one line per pair saying whether the
output digests and the inputs sha256 are equal, and exits 1 on any
difference. BLAS runs single-threaded, as in the benchmark, so that the
digest is reproducible.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """'1-5' or '1,3,4' -> list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def digest(est) -> str:
    """sha256 over trajectory, map, yaw-STD series and calibration state."""
    import numpy as np

    h = hashlib.sha256()
    for o in est.trajectory():
        h.update(np.concatenate([[o.timestamp], o.pose.t, o.pose.q, o.velocity]).tobytes())
    h.update(np.ascontiguousarray(est.map.points, dtype=float).tobytes())
    h.update(np.array(est.yaw_std_series, dtype=float).tobytes())
    w = est.window
    h.update(np.concatenate([w.cam_ext.p_bc, w.cam_ext.q_cb, w.lid_ext.p_br, w.lid_ext.q_rb,
                             [w.lid_ext.dt_br],
                             [w.keyframes[k].dt_bc for k in w.ordered_ids()]]).tobytes())
    return h.hexdigest()


def study(wl, seed: int, work: Path) -> dict:
    import checks
    import numpy as np
    from run import inputs_digest
    from workloads import strip_lidar

    from lvio import io
    from lvio.cli import run_estimator
    from lvio.simulate import simulate_scenario

    simulate_scenario(wl.scenario_for(seed), work)
    if wl.mode == "vio":  # as benchmark/run.py prepares it
        strip_lidar(work)
    inputs = inputs_digest(work)
    truth = io.read_tum(work / "gt.tum")
    calib = io.read_config(work / "truth_calib.cfg")
    est = run_estimator(work, mode=wl.mode, config=wl.config())
    traj = [(o.timestamp, o.pose) for o in est.trajectory()]
    ate, _ = checks.ate(traj, truth)
    t_end, pose_end = traj[-1]
    i_end = int(np.argmin(np.abs(np.array([t for t, _ in truth]) - t_end)))
    last = est.window.keyframes[est.window.ordered_ids()[-1]]
    delay = float(calib["dt_bc"]) + float(calib["dt_bc_drift"]) * last.timestamp
    cam_t = io.read_vector(calib, "cam_t", [0, 0, 0])
    lid_t = io.read_vector(calib, "lid_t", [0, 0, 0])
    return {
        "workload": wl.name,
        "seed": seed,
        "frames": len(traj),
        "ate_mm": ate * 1e3,
        "final_err_mm": float(np.linalg.norm(pose_end.t - truth[i_end][1].t)) * 1e3,
        "cam_delay_err_us": (last.dt_bc - delay) * 1e6,
        "cam_lever_err_mm": float(np.linalg.norm(est.window.cam_ext.p_bc - cam_t)) * 1e3,
        "lid_lever_err_mm": float(np.linalg.norm(est.window.lid_ext.p_br - lid_t)) * 1e3,
        "lm_iterations": sum(s.iterations for s in est.solve_log),
        "inputs_sha256": inputs,
        "sha256": digest(est),
    }


def run_tree(src: Path, name: str, seed: int) -> dict:
    """The study row of one workload and seed on the source tree src, run in
    a process of its own."""
    out = subprocess.run([sys.executable, __file__, "--seeds", str(seed), "--src", str(src),
                          "--workloads", name], capture_output=True, text=True)
    if out.returncode:
        print(f"error: {name} seed {seed} failed on {src}:\n{out.stderr}", file=sys.stderr)
        sys.exit(2)
    return json.loads(out.stdout.splitlines()[-1])


def compare(src: Path, other: Path, names: list, seeds: list) -> int:
    """One equal/different line per workload and seed for the output digest
    and the inputs sha256 of two source trees; 1 on any difference."""
    status = 0
    for name in names:
        for seed in seeds:
            a, b = run_tree(src, name, seed), run_tree(other, name, seed)
            verdicts = []
            for field, label in (("sha256", "output digest"), ("inputs_sha256", "inputs sha256")):
                same = a[field] == b[field]
                status |= not same
                verdicts.append(f"{label} {'equal' if same else 'different'}")
            print(f"{name} seed {seed}: {', '.join(verdicts)}", flush=True)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="e.g. 1-5 or 1,2")
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--against", default=None, metavar="OTHER_SRC",
                    help="compare the digests of --src with those of this tree")
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    args = ap.parse_args(argv)
    trees = [Path(t).resolve() for t in (args.src, args.against) if t is not None]
    for src in trees:
        if not (src / "lvio" / "estimator.py").is_file():
            print(f"error: lvio sources not found under {src}", file=sys.stderr)
            return 2
    sys.path[:0] = [str(trees[0]), str(ROOT / "benchmark")]
    import workloads

    names = args.workloads.split(",") if args.workloads else list(workloads.WORKLOADS)
    if args.against is not None:
        return compare(trees[0], trees[1], names, parse_seeds(args.seeds))
    for name in names:
        for seed in parse_seeds(args.seeds):
            with tempfile.TemporaryDirectory() as tmp:
                row = study(workloads.WORKLOADS[name], seed, Path(tmp))
            print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
