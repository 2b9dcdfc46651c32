"""Machine-speed calibration, so that runs made minutes apart compare.

On a shared machine the speed of the same code drifts by tens of percent
within seconds to minutes, and a run cannot repeat its passes long enough to
average that out.  A fixed kernel that shares no code with fracpme is
therefore timed at calibration points, about once per second of program time:
between operations, and between time steps inside a long operation (the
point's own time is left out of the operation's).  Each stretch of program
time between two points is scaled by REFERENCE_S / (median kernel time at
those two points).  Times are then seconds at the speed the machine had when
REFERENCE_S was measured.  The kernel mixes what fracpme's layers spend their
time on: Python loops over small dicts and floats, SuperLU solves and numpy
elementwise work.  (SuperLU solves alone tracked the sweep workload better
but over-corrected the long solve.)
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

# median kernel time on the reference machine (2 vCPU Intel Xeon, Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1), measured when this benchmark was written
REFERENCE_S = 0.045
REPS = 2                 # kernel runs at each calibration point
INTERVAL_S = 1.0         # program time between calibration points


class Calibrator:
    def __init__(self):
        n1, n2 = 127, 63
        lap1 = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n1, n1))
        lap2 = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n2, n2))
        a = sparse.kron(sparse.identity(n2), lap1) + sparse.kron(lap2, sparse.identity(n1))
        self._lu = spla.splu(a.tocsc(), permc_spec="COLAMD")
        self._rhs = np.linspace(0.0, 1.0, n1 * n2)
        self._field = np.linspace(0.01, 2.0, 65 * 65 * 8)

    def _kernel(self) -> float:
        acc = 0.0
        weights: dict = {}
        for i in range(48000):
            x = (i % 97) * 0.5
            acc += x * x - acc * 1e-9
            weights[(i % 13, i % 7)] = acc
        for _ in range(20):
            self._lu.solve(self._rhs)
        for _ in range(8):
            np.exp(np.log(self._field) / 3.0).max()
        return acc

    def point(self) -> list[float]:
        """Seconds of each of REPS kernel runs."""
        out = []
        for _ in range(REPS):
            start = time.perf_counter()
            self._kernel()
            out.append(time.perf_counter() - start)
        return out


def factor(samples: list[float]) -> float:
    """Scale from seconds measured now to seconds at the reference speed."""
    return REFERENCE_S / statistics.median(samples)


class Timed:
    """Measured (raw) and reference seconds of one timed region."""
    __slots__ = ("raw", "ref")

    def __init__(self):
        self.raw = 0.0
        self.ref = 0.0


class ReferenceClock:
    """Times nested regions in measured and in reference seconds.

    Program time accrues to every open region.  A calibration point closes
    the current stretch: each region's share of it is scaled by the factor of
    the points on either side.  A region's ``ref`` is final after the next
    point, so a pass ends with ``point()``.
    """

    def __init__(self, cal: Calibrator):
        self.cal = cal
        self.paused = 0.0             # seconds spent in calibration points so far
        self._opening = cal.point()
        self._open: list[Timed] = []
        self._parts: list[tuple[Timed, float]] = []
        self._stretch = 0.0
        self._mark = time.perf_counter()

    def _account(self) -> None:
        now = time.perf_counter()
        if self._open:
            dt = now - self._mark
            self._stretch += dt
            for region in self._open:
                region.raw += dt
                self._parts.append((region, dt))
        self._mark = now

    def push(self, region: Timed) -> None:
        self._account()
        self._open.append(region)

    def pop(self) -> None:
        self._account()
        self._open.pop()

    def tick(self) -> None:
        """Take a point if INTERVAL_S of program time has passed since the last."""
        self._account()
        if self._stretch >= INTERVAL_S:
            self.point()

    def point(self) -> list[float]:
        self._account()
        closing = self.cal.point()
        f = factor(self._opening + closing)
        for region, dt in self._parts:
            region.ref += f * dt
        self._parts, self._stretch, self._opening = [], 0.0, closing
        now = time.perf_counter()             # the point's own time is not program time
        self.paused += now - self._mark
        self._mark = now
        return closing
