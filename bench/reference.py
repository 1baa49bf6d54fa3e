"""A fixed piece of work that shares nothing with ``repro``: how fast is
this host right now?

The sandbox alternates between a baseline and phases 1.4-2.5x slower that
last seconds to minutes (``bench/README.md``, "Host noise"). A child times
this reference right before and right after its timed region; the harness
scales ``wall_s`` by ``nominal / measured`` so a repetition taken in a slow
phase is comparable with one taken in a fast one. The mix follows what the
workloads do: interpreter arithmetic, baton handoffs between two OS threads
(the engine's fiber switch), and a numpy kernel.
"""

from __future__ import annotations

import _thread
import threading
import time

import numpy as np


def _arithmetic(n: int = 700_000) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def _handoffs(n: int = 6_000) -> None:
    ping, pong = _thread.allocate_lock(), _thread.allocate_lock()
    ping.acquire()
    pong.acquire()

    def partner():
        for _ in range(n):
            ping.acquire()
            pong.release()

    thread = threading.Thread(target=partner)
    thread.start()
    for _ in range(n):
        ping.release()
        pong.acquire()
    thread.join()


def _kernel(log2_n: int = 17, rounds: int = 12) -> None:
    block = np.arange(1 << log2_n, dtype=np.float64)
    for _ in range(rounds):
        np.fft.fft(block)


def reference_s() -> float:
    """Seconds the reference work takes now (about 0.15 s on a quiet host)."""
    t0 = time.perf_counter()
    _arithmetic()
    _handoffs()
    _kernel()
    return time.perf_counter() - t0
