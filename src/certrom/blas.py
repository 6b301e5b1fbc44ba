"""Scoped OpenBLAS thread count for certrom's online work.

Queries, the drivers and full-order solves are dense products of reduced
size (n <= 200, m <= 50) and sparse triangular sweeps between Python loops.
A second OpenBLAS thread costs more than it gives there: on a 2-vCPU machine
it stalls the first product after a Python loop for 40-120 ms and slows the
network training step. ``scope`` runs a block at ``THREADS`` threads in every
loaded OpenBLAS copy (numpy and scipy each bundle one) and restores each
copy's count afterwards, as threadpoolctl does. Without a known OpenBLAS it
does nothing. The count is process-global while the block runs.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

THREADS = 1  # OpenBLAS threads inside a scope; measured best on 2 vCPUs

# (setter, getter) per OpenBLAS build, tried in order on each loaded copy:
# numpy's bundled copy, scipy's bundled copy, a plain OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def libraries() -> tuple:
    """(path, setter, getter) of every loaded OpenBLAS copy with a known
    symbol pair, read from the process's memory map once, at first use."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                fields = line.split(maxsplit=5)  # address perms offset dev inode [path]
                if len(fields) == 6 and "openblas" in fields[5].lower():
                    paths.add(fields[5].strip())
    except OSError:
        return ()
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter, getter = getattr(lib, set_name, None), getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                getter.argtypes, getter.restype = (), ctypes.c_int
                found.append((path, setter, getter))
                break
    return tuple(found)


@contextlib.contextmanager
def scope():
    """Run the block (or, as a decorator, each call) at THREADS OpenBLAS
    threads; each library's own count is back afterwards, raised or not.
    A nested scope finds THREADS already set and changes nothing."""
    changed = [(setter, count) for _, setter, getter in libraries() if (count := getter()) != THREADS]
    for setter, _ in changed:
        setter(THREADS)
    try:
        yield
    finally:
        for setter, count in changed:
            setter(count)
