"""Host speed probe: rescales measured times to a fixed reference speed.

On a shared host the speed of a core changes by half or more within a
second, as other tenants' load comes and goes, and a whole benchmark run can
fall into a slow or a fast stretch.  So while the worker runs, a timer
signal interrupts it every ``INTERVAL`` seconds and its handler times one run
of a fixed pure-Python ``kernel``, on the same core, between two bytecodes of
whatever reflekt is doing.  ``rescale`` then takes the time an interval
spent outside the handler and multiplies it by ``NOMINAL_S / kernel``,
averaged over the kernel runs made during the interval, or the ``NEAREST``
ones if it holds fewer.  The result is in seconds at the reference speed,
where one kernel run takes ``NOMINAL_S``.

The kernel uses only builtins and does not touch reflekt, so a change to
reflekt cannot move it.  Garbage collection is paused while it runs, so
reflekt's heap does not slow it.  This module imports only modules every
Python process has loaded at start-up (``_signal``, not ``signal``, which
imports ``enum``), so the timed ``import reflekt.cli`` after it still pays
for all of its own imports.
"""
import _signal
import gc
import os
import time

NOMINAL_S = 0.001  # kernel time that defines the reference speed
INTERVAL = 0.05  # seconds between kernel runs
NEAREST = 4  # an interval with fewer kernel runs inside uses this many nearest
WARM_UP = 3  # untimed kernel runs first: the first run of a fresh process is slower


def kernel() -> int:
    """About a millisecond of interpreter work like reflekt's: small-int
    rational arithmetic, tuple-keyed dicts, nested list comprehensions."""
    num, den = 0, 1
    table: dict = {}
    for i in range(600):
        n, d = i % 13 - 6, 1 + i % 17
        num, den = num * d + n * den, den * d
        if i % 64 == 63:
            num, den = num % 1000003, den % 1000003 + 1
        key = (i % 97, (i * 31) % 89)
        table[key] = table.get(key, 0) + i
    m = [[(i * j) % 7 for j in range(16)] for i in range(16)]
    m = [[sum(a * b for a, b in zip(row, col)) % 1009 for col in zip(*m)] for row in m]
    return num + den + len(table) + m[0][0]


def pin_to_current_cpu() -> None:
    """Keep this process on the CPU it runs on, so that the kernel and the
    work it is compared with share a core.  A no-op where that is not possible."""
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        if cpu in os.sched_getaffinity(0):
            os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter() when each kernel run began
        self.kernels: list[float] = []  # its duration
        for _ in range(WARM_UP):
            kernel()

    def sample(self, runs: int = 1) -> None:
        """Time ``runs`` kernel runs now."""
        for _ in range(runs):
            self._sample()

    def _sample(self, *_signal_args) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.kernels.append(end - start)

    def start(self) -> None:
        """Time one kernel run every INTERVAL seconds from now on."""
        _signal.signal(_signal.SIGALRM, self._sample)
        _signal.setitimer(_signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        _signal.setitimer(_signal.ITIMER_REAL, 0, 0)
        _signal.signal(_signal.SIGALRM, _signal.SIG_DFL)

    def rescale(self, start: float, end: float) -> float:
        """Seconds at the reference speed for the interval [start, end]."""
        inside = [i for i, at in enumerate(self.starts) if start <= at < end]
        own = end - start - sum(self.kernels[i] for i in inside)
        if len(inside) < NEAREST:
            mid = (start + end) / 2
            inside = sorted(range(len(self.starts)), key=lambda i: abs(self.starts[i] - mid))
            inside = inside[:NEAREST]
        if not inside:
            raise ValueError("no kernel run to rescale by")
        return own * sum(NOMINAL_S / self.kernels[i] for i in inside) / len(inside)

    def median_kernel_s(self) -> float:
        kernels = sorted(self.kernels)
        return kernels[len(kernels) // 2]
