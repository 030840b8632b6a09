"""The environment record printed with every benchmark result."""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _output(cmd, cwd=None, env=None) -> str | None:
    if shutil.which(cmd[0]) is None:
        return None
    try:
        done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _without_omp() -> dict:
    return {k: v for k, v in os.environ.items()
            if k not in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT")}


def _int_or_none(text):
    return int(text) if text and text.isdigit() else None


def environment(root: Path) -> dict:
    import numpy
    import scipy
    import scipy.fft

    sha = dirty = None
    if (root / ".git").exists():
        sha = _output(["git", "rev-parse", "HEAD"], cwd=root)
        status = _output(["git", "status", "--porcelain", "--untracked-files=no"], cwd=root)
        dirty = None if status is None else bool(status)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "os_cpu_count": os.cpu_count(),
        # nproc honours OMP_NUM_THREADS, which the benchmark pins to 1
        "nproc": _int_or_none(_output(["nproc"], env=_without_omp())),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "scipy_fft_workers": scipy.fft.get_workers(),
        "llc_bytes": _int_or_none(_output(["getconf", "LEVEL3_CACHE_SIZE"])),
        "git_sha": sha,
        "git_dirty": dirty,
    }
