"""Host fingerprint and process-memory probes (Linux ``/proc``)."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from typing import Iterable, Optional

# Symbols under which OpenBLAS builds export their thread-count query.
_BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def _blas_library() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as handle:
            paths = {line.split()[-1] for line in handle if "blas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        if not path.startswith("/"):
            continue
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def fingerprint() -> dict:
    """``nproc``, Python and numpy versions, the BLAS library and its threads."""
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_library(),
        "blas_threads": _blas_threads(),
    }


def _status_kib(pid: int, field: str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise OSError(f"no {field} for pid {pid}")


def reset_peak_rss(pids: Iterable[int]) -> None:
    """Restart peak-RSS accounting of ``pids`` (``clear_refs`` mode 5)."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
                handle.write("5")
        except OSError:
            pass  # older kernels: the peak then includes set-up


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Summed peak resident set (``VmHWM``) of ``pids``, in MiB."""
    return sum(_status_kib(pid, "VmHWM") for pid in pids) / 1024.0
