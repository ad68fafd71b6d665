"""Host-speed calibration: a fixed reference kernel timed alongside a phase.

On a shared host the same code runs at different speeds from one moment to
the next (measured on a 2-vCPU VM: a fixed loop takes from 1x to 1.8x its
fastest time, switching within tens of milliseconds and drifting over
minutes). Raw times of runs minutes apart then differ by more than any
change worth measuring. ``Calibrator`` measures the host's speed during the
phase itself: a timer signal runs ``kernel`` ``KERNEL_RUNS`` times every
``INTERVAL_S`` in the measured process, between the phase's own bytecodes.
Each kernel run gives one speed sample ``REF_KERNEL_S / duration``.
Samples are uniform in time, so their mean is the host's mean speed over
the phase, and

    nominal time = (phase time - kernel time) * mean speed

is what the phase would take on a host that runs the kernel in exactly
``REF_KERNEL_S``. The kernel is fixed code of this benchmark and imports
nothing from the library, so a change to the library moves nominal times
and never the yardstick.

The kernel mixes the operations the library's layers spend their time on:
byte-table composition and inversion of permutations, hashing into sets,
frozenset meets and joins, and GF(2) and GF(p) row reduction on ints.
"""

from __future__ import annotations

import signal
import statistics
import time

# ~2 ms of kernel every 50 ms: about 4% of a phase. Runs of the kernel
# longer than one keep its share of cold caches after the phase's own work
# small; sampling this densely follows the host's switches between speeds.
INTERVAL_S = 0.05
KERNEL_RUNS = 6
REF_KERNEL_S = 3e-4  # nominal duration of one kernel run

_ID256 = bytes(range(256))
_PERMS = tuple(bytes((i * k + k // 3) % 11 for i in range(11)) for k in (2, 3, 4, 5, 6, 7, 8, 9))
_SETS = tuple(frozenset(range(k, 40, 1 + k % 5)) for k in range(8))
_ROWS = tuple((0x9E3779B97F4A7C15 * (k + 1)) & ((1 << 48) - 1) for k in range(24))


def kernel() -> int:
    """A fixed piece of work: 0.3 to 0.6 ms of one vCPU of a shared x86-64 VM."""
    seen = set()
    x = _PERMS[0]
    for i in range(48):
        x = x.translate(_PERMS[i & 7] + _ID256[11:])
        inv = bytearray(11)
        for j, v in enumerate(x):
            inv[v] = j
        seen.add(bytes(inv))
    meet = {}
    for a in _SETS:
        for b in _SETS:
            meet[a & b] = a | b
    rows = list(_ROWS)
    rank = 0
    for bit in range(47, -1, -1):
        mask = 1 << bit
        pivot = next((r for r in rows if r & mask), None)
        if pivot is None:
            continue
        rank += 1
        rows = [r ^ pivot if r & mask else r for r in rows if r is not pivot]
    modp = [(k * k + 3) % 7 for k in range(30)]
    for k in range(1, 30):
        inv3 = pow(modp[k] or 1, 5, 7)
        modp[k] = (modp[k] - inv3 * modp[k - 1]) % 7
    return len(seen) + len(meet) + rank + sum(modp)


class Calibrator:
    """Context manager: runs ``kernel`` ``KERNEL_RUNS`` times every
    ``INTERVAL_S`` during its block.

    Also does so once on entry and once on exit, so that every phase has at
    least two samples. ``wall_s``/``cpu_s`` are the kernel's own wall and CPU
    time, to be taken off the phase's times.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        start, cpu = time.perf_counter(), time.process_time()
        for _ in range(KERNEL_RUNS):
            began = time.perf_counter()
            kernel()
            self.samples.append(REF_KERNEL_S / (time.perf_counter() - began))
        self.wall_s += time.perf_counter() - start
        self.cpu_s += time.process_time() - cpu

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def speed(self) -> float:
        """Mean speed over the block, relative to the nominal host."""
        return statistics.fmean(self.samples)

    def nominal(self, seconds: float, kernel_seconds: float) -> float:
        """``seconds`` of the block, less the kernel's share, on the nominal host."""
        return (seconds - kernel_seconds) * self.speed()
