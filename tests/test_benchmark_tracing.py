"""The benchmark's tracer can wrap every name it traces in `lvio`.

`benchmark/run.py --trace 1` replaces functions and methods under the names
their callers look them up by; a rename in `src/lvio` that drops one of
them breaks that run. This test installs every wrapper on a fresh tracer
and removes them again, without running the benchmark.
"""

import importlib.util
import os
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmark"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_tracing_wraps_and_restores_every_traced_name():
    env = dict(os.environ)
    try:
        run = _load("run")  # sets the BLAS thread variables on import
        tracer = _load("tracing").Tracer()
        run.install_tracing(tracer)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, orig in patches:
            assert _current(owner, attr) is not orig, attr
        tracer.unwrap_all()
        for owner, attr, orig in patches:
            assert _current(owner, attr) is orig, attr
    finally:
        for key in set(os.environ) - set(env):
            del os.environ[key]
        os.environ.update(env)
