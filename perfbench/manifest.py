"""The run manifest: what a result was measured on, so that numbers from
different setups are never compared without notice."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
from pathlib import Path

import numpy as np

_SC_LEVEL2_CACHE_SIZE = 191  # glibc's sysconf name; Python's os.sysconf lacks it


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _openblas():
    """The OpenBLAS library numpy loaded, or None when it cannot be found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    return ctypes.CDLL(libs[0]) if libs else None


def blas_info() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None, "config": None}
    lib = _openblas()
    if lib is not None:
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            try:
                info["threads"] = int(getattr(lib, f"{prefix}get_num_threads{suffix}")())
                get_config = getattr(lib, f"{prefix}get_config{suffix}")
            except AttributeError:
                continue
            get_config.restype = ctypes.c_char_p
            info["config"] = get_config().decode()
            break
    return info


def l2_bytes() -> int | None:
    try:
        value = ctypes.CDLL(None).sysconf(_SC_LEVEL2_CACHE_SIZE)
    except (OSError, AttributeError):
        return None
    return value if value > 0 else None


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None outside a clone."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_sha256(root: Path) -> str:
    """Digest of every file of ``src/poolal``, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "poolal").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def manifest(root: Path, **run) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": nproc(),
        "l2_bytes": l2_bytes(),
        "git_commit": git_commit(root),
        "source_sha256": source_sha256(root),
        **run,
    }
