"""Host time rescaled to a reference speed, for the end-to-end timings.

The benchmark's host shares its physical cores with other machines, and
its speed drifts by up to 2× over seconds to minutes. A rate taken from
raw host time therefore moves by 20–35% between runs of the same code.
Every stretch of simulated work is instead divided by the time a fixed
calibration kernel takes at about the same moment, then multiplied by
the kernel's time on an idle core of the reference host (`KERNEL_REF_S`).
The kernel is independent of lcsim, so a change to lcsim moves the
rescaled time as it would move host time on a host of fixed speed.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from array import array

# The kernel's time on an idle core of the reference host (a 2-core Xeon
# VM, CPython 3.11): about the fastest sample seen there.
KERNEL_REF_S = 150e-6
# A kernel sample is taken at the first tick boundary this long after the
# previous one (about 2% of the run), and after every set-up.
SAMPLE_EVERY_S = 0.01
# Each stretch is scaled by the median of this many samples nearest to it.
NEAREST = 5


def kernel_s() -> float:
    """Host seconds of a fixed workload of dict operations, string
    conversion and sha256, the operations lcsim spends its time in. It
    allocates nothing the garbage collector tracks, so lcsim's heap does
    not change what it costs."""
    t0 = time.perf_counter()
    d: dict[str, int] = {}
    for i in range(200):
        key = str(i)
        d[key] = d.get(key, 0) + i
        hashlib.sha256(key.encode()).digest()
    return time.perf_counter() - t0


class HostClock:
    """Times each tick of the simulations it runs, and each set-up, with
    kernel samples taken between them.

    The stretches of one round come in the same order in every round of a
    workload: one per tick plus one after the last, per scenario.
    """

    def __init__(self) -> None:
        self.stretches = array("d")  # host seconds; unboxed, as sweep has ~66 000
        self.setups: list[tuple[int, float]] = []  # (stretch index, seconds)
        self.samples: list[tuple[int, float]] = []  # (stretch index, kernel seconds)
        self._resume = self._last_sample = 0.0

    def sample(self) -> None:
        self.samples.append((len(self.stretches), kernel_s()))
        self._last_sample = self._resume = time.perf_counter()

    def set_up(self, make):
        """Return make(), timing it as one set-up and sampling after it."""
        t0 = time.perf_counter()
        made = make()
        self.setups.append((len(self.stretches), time.perf_counter() - t0))
        self.sample()
        return made

    def run(self, sim):
        """sim.run(), cut into one stretch per block append."""
        append_block = sim.chain.append_block

        def timed_append(txs):
            block = append_block(txs)
            self._cut()
            return block

        sim.chain.append_block = timed_append
        self._resume = time.perf_counter()
        result = sim.run()
        self._cut()
        return result

    def _cut(self) -> None:
        now = time.perf_counter()
        self.stretches.append(now - self._resume)
        self._resume = now
        if now - self._last_sample > SAMPLE_EVERY_S:
            self.sample()

    def _scale(self, positions: list[int]) -> list[float]:
        """Reference seconds per host second at each stretch position."""
        where = [i for i, _ in self.samples]
        kernel = [s for _, s in self.samples]
        scales = []
        lo = 0
        for pos in positions:
            # Slide the window of NEAREST samples along the sorted positions.
            while lo + NEAREST < len(where) and abs(where[lo + NEAREST] - pos) < abs(pos - where[lo]):
                lo += 1
            scales.append(KERNEL_REF_S / statistics.median(kernel[lo : lo + NEAREST]))
        return scales

    def scaled_stretches(self) -> list[float]:
        positions = list(range(len(self.stretches)))
        return [s * k for s, k in zip(self.stretches, self._scale(positions))]

    def host_setup_s(self) -> float:
        return sum(s for _, s in self.setups)

    def scaled_setup_s(self) -> float:
        scales = self._scale([pos for pos, _ in self.setups])
        return sum(s * k for (_, s), k in zip(self.setups, scales))
