"""Environment stamp attached to every run record."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent


def _git_sha() -> str | None:
    """HEAD of the repository rooted exactly here (exports have none)."""
    # The ceiling keeps git from searching the directories above ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    """SHA-256 over src/ (paths and bytes): identifies an exported tree."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas() -> dict[str, Any]:
    """Name/version numpy was built against and the live thread count."""
    info: dict[str, Any] = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "blas" in line.lower() and ".so" in line})
    info["threads"] = None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                info["library"] = os.path.basename(lib)
                return info
    return info


def filesystem_type(path: Path) -> str | None:
    """fstype of the mount holding *path* (longest mount-point prefix)."""
    path = path.resolve()
    best, fstype = "", None
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = str(path) == mount or str(path).startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        return None
    return fstype


def stamp(store_path: Path | None = None) -> dict[str, Any]:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "machine": platform.machine(),
        "served_store_fs": filesystem_type(store_path)
        if store_path is not None else None,
        "argv": sys.argv[1:],
    }
