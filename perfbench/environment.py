"""Environment block recorded with every benchmark result."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

THREAD_VARS = ("MBL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def thread_env() -> dict[str, str | None]:
    return {name: os.environ.get(name) for name in THREAD_VARS}


def _blas(show_config) -> dict[str, str | None]:
    try:
        blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {"name": None, "version": None}
    return {"name": blas.get("name"), "version": blas.get("version")}


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """sha256 over the package sources, identifying the code measured when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "mbl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> dict:
    """Cores, versions, BLAS builds and thread variables as this process sees them."""
    import numpy
    import scipy

    return {
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas(numpy.show_config),
        "blas_scipy": _blas(scipy.show_config),
        "thread_env_worker": thread_env(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
    }
