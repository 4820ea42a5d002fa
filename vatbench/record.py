"""Environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess

import numpy as np


def _openblas():
    """The OpenBLAS library numpy loaded, or None when numpy uses another BLAS."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return threads(), config().decode()
    return None


def blas_info() -> dict:
    deps = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"name": deps.get("name"), "version": deps.get("version"), "threads": None,
            "config": None}
    found = _openblas()
    if found is not None:
        info["threads"], info["config"] = found
    return info


def git_commit(root: str) -> str | None:
    """HEAD of the repository rooted at root, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def source_digest(src: str) -> str:
    """sha256 over the package sources, which identifies the code outside git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "vatlab", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment(root: str, src: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(src),
    }
