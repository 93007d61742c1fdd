"""The block runner: map_blocks maps a kernel over blocks of BLOCK items,
the null-ensemble sims or the rolling windows, in a pool of forked or
spawned worker processes, each pinned to its own CPU, when there are CPUs
for one. One pin, _one_blas_thread, runs BLAS on one thread in every
process that runs a block, so results do not depend on the BLAS thread
count."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import os
import signal
import sys
import threading
from collections.abc import Callable
from dataclasses import dataclass

from .errors import WorkerProcessError

# Items per unit of work handed to a worker process, in either loop.
# Callers reduce the blocks' results in item order, so neither this nor the
# worker count changes their output.
BLOCK = 100
# Thread-count variables of the common BLAS builds, which spawned pool
# workers read at start-up. Pool workers already occupy every CPU, so each
# runs BLAS on one thread: more threads per worker oversubscribe the CPUs
# and run several times slower.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# OpenBLAS's run-time thread controls are <prefix>_set_num_threads<suffix>
# and so on: numpy's wheels bundle scipy_openblas64_ (numpy 1: openblas64_),
# scipy's scipy_openblas with 32-bit integers, classic builds openblas.
_OPENBLAS_NAMES = (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                   ("openblas", "64_"), ("openblas", ""))
_OPENBLAS_PTHREADS = 1  # openblas_get_parallel(): 0 serial, 1 pthreads, 2 OpenMP
_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def available_cpus() -> int:
    """CPUs this process may run on: the worker count of a pool."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class _OpenBLAS:
    """The thread-count controls of one loaded OpenBLAS library."""

    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]
    pthreads: bool  # threads are pthreads, which OpenBLAS stops before a fork


@functools.cache
def _openblas_at(path: str) -> _OpenBLAS | None:
    """The controls of the loaded library at `path`, or None when it exports
    none of the _OPENBLAS_NAMES."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix, suffix in _OPENBLAS_NAMES:
        try:
            get, set_, parallel = (getattr(lib, f"{prefix}_{name}{suffix}")
                                   for name in ("get_num_threads",
                                                "set_num_threads",
                                                "get_parallel"))
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        parallel.argtypes, parallel.restype = [], ctypes.c_int
        return _OpenBLAS(get, set_, parallel() == _OPENBLAS_PTHREADS)
    return None


def _openblas_libs() -> tuple[_OpenBLAS, ...]:
    """The OpenBLAS libraries loaded in this process whose thread count
    ctypes can set. They are found in /proc/self/maps, so only on Linux."""
    try:
        with open("/proc/self/maps", "rb") as fh:  # paths need not be UTF-8
            paths = {os.fsdecode(line.split(maxsplit=5)[-1].strip())
                     for line in fh}
    except OSError:
        return ()
    libs = (_openblas_at(path) for path in sorted(paths)
            if "openblas" in os.path.basename(path))
    return tuple(lib for lib in libs if lib is not None)


class _OneBlasThread:
    """Run BLAS on one thread in this process and in the pool workers it
    starts, so results do not depend on the BLAS thread count: set the
    thread counts of the _openblas_libs (through ctypes) and the
    _BLAS_THREAD_VARS in os.environ, which spawned workers read at
    start-up, to 1, and restore both afterwards. Nested and concurrent uses
    share one pin: the first to enter sets it and the last to leave
    restores it."""

    def __init__(self):
        self._lock = threading.Lock()
        self._users = 0
        self._saved = ((), {})

    def __enter__(self):
        with self._lock:
            if self._users == 0:
                libs = _openblas_libs()
                self._saved = ([(lib, lib.get_num_threads()) for lib in libs],
                               {name: os.environ.get(name)
                                for name in _BLAS_THREAD_VARS})
                for lib in libs:
                    lib.set_num_threads(1)
                os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
            self._users += 1
        return self

    def __exit__(self, *exc_info):
        with self._lock:
            self._users -= 1
            if self._users == 0:
                threads, environment = self._saved
                for lib, count in threads:
                    lib.set_num_threads(count)
                for name, value in environment.items():
                    if value is None:
                        os.environ.pop(name, None)
                    else:
                        os.environ[name] = value
        return False


_one_blas_thread = _OneBlasThread()


def _pool_start_method() -> str:
    """"fork" on Linux when every loaded OpenBLAS is a pthreads build that
    _openblas_libs controls and no other Python thread runs; "spawn"
    otherwise. OpenBLAS stops its own threads before a fork; other threads
    could leave the child locks that nobody releases."""
    libs = _openblas_libs()
    if (sys.platform == "linux" and libs and all(lib.pthreads for lib in libs)
            and threading.active_count() == 1):
        return "fork"
    return "spawn"


def _init_worker(parent_pid: int, cpus: list[int], started) -> None:
    """Pool initializer: run on a CPU of its own, and on Linux die with the
    pool's parent process. Worker i, counted by the shared `started`, pins
    itself to cpus[i % len(cpus)]: left free on a 2-CPU host, two workers
    were seen to share one CPU for ~175 sims while the other idled. A
    worker that may not pin itself runs unpinned. The pool starts inside
    _one_blas_thread, so forked workers inherit its BLAS thread count and
    spawned ones read it from the environment."""
    with started.get_lock():
        index = started.value
        started.value += 1
    if cpus:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {cpus[index % len(cpus)]})
    if sys.platform == "linux":
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
            raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
        if os.getppid() != parent_pid:  # the parent died before the prctl
            os._exit(1)


@contextlib.contextmanager
def map_blocks(kernel, shared: tuple, n_items: int):
    """Yield an iterator over kernel(*shared, start, stop) for each block of
    at most BLOCK items of range(n_items) in order: null-ensemble sims or
    rolling windows. With two or more blocks and available CPUs, the blocks
    run in a pool of worker processes, one per CPU and pinned to it, which
    lives until the with block ends; otherwise in this process, which stays
    unpinned. _one_blas_thread holds until the with block ends and the pool
    starts inside it, so BLAS runs on one thread in every process that runs
    a block.

    The workers are forked when _pool_start_method allows it: they inherit
    the imported modules and run no `__main__` again. Otherwise they are
    spawned, and a script that starts them needs a `__main__` guard.
    Either way _init_worker has each worker killed, on Linux, when this
    process dies. The pool's processes have started when this yields.
    """
    starts = range(0, n_items, BLOCK)
    stops = [min(start + BLOCK, n_items) for start in starts]
    args = (*map(itertools.repeat, shared), starts, stops)
    workers = min(available_cpus(), len(starts))
    with _one_blas_thread:
        if workers < 2:
            yield map(kernel, *args)
            return
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        method = _pool_start_method()
        context = multiprocessing.get_context(method)
        cpus = (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_setaffinity") else [])
        cause = "killed, or out of memory"
        if method == "spawn":
            cause += (", or started from a script without an "
                      "`if __name__ == \"__main__\":` guard")
        pool = ProcessPoolExecutor(
            workers, mp_context=context, initializer=_init_worker,
            initargs=(os.getpid(), cpus, context.Value("i", 0)),
        )
        try:
            yield pool.map(kernel, *args)
        except BrokenProcessPool as exc:
            raise WorkerProcessError(
                f"a worker process ended abruptly ({cause})") from exc
        finally:
            # After an error, or Ctrl-C, drop the blocks not yet started
            # instead of waiting for them. A finished map has none left.
            pool.shutdown(cancel_futures=True)

