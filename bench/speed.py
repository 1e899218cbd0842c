"""Host-speed probe: a fixed spin loop, run between the children of a run.

The sandbox is a small guest on a shared host whose CPU speed wanders by
10-40 % over minutes (nothing from this repository running: the loop below
alone reads 0.09-0.18 s).  The readings of a run are a control variate for its
time metrics: each is divided by ``(median(readings) / NOMINAL_SPIN_S) **
ELASTICITY``, so two runs of the same code made in a fast and in a slow minute
report about the same number.  The loop is pure Python and touches no file:
nothing a change to the program does can move it.

One spinner per CPU the harness may use, each pinned to its CPU, because the
two vCPUs are slowed independently and a child's threads and tools use both.
``python3 bench/speed.py <cpu>`` is the spinner: it spins once per line on its
standard input and answers with the seconds the loop took.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import List

SPIN_ITERATIONS = 2_000_000

#: What the loop takes on the host the benchmark was written on, in a quiet
#: minute (Python 3.11): with this reading a time metric is plain seconds.
NOMINAL_SPIN_S = 0.12

#: By how much of the loop's slow-down, in log terms, the children slow down.
#: Fitted once on 50 minutes of interleaved readings and children (about 40
#: windows of 5 rounds per workload): the slope of log(window median of a time
#: metric) on log(window median of the readings) was 0.4-1.2 over the 24
#: workload x metric cells, about 1 where the child is pure Python
#: (``fig2_words`` on ``reference``) and about 0.5 where it mostly spawns and
#: touches files.  0.7 lowered the spread of every cell; 1.0 over-corrects the
#: file-bound ones.
ELASTICITY = 0.7


def spin(iterations: int = SPIN_ITERATIONS) -> float:
    started = time.perf_counter()
    value = 0
    for index in range(iterations):
        value += index * index % 7
    return time.perf_counter() - started


class SpeedProbe:
    """The pinned spinners of one run; :meth:`close` stops and reaps them."""

    def __init__(self) -> None:
        self.readings: List[float] = []
        self._spinners: List["subprocess.Popen[str]"] = []
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                self._spinners.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
            self.measure()  # first call: interpreter start-up, loop not yet warm
            self.readings.clear()
        except BaseException:
            self.close()
            raise

    def measure(self) -> float:
        """Spin once on every CPU at the same time; the mean of their times."""
        for spinner in self._spinners:
            spinner.stdin.write("\n")
            spinner.stdin.flush()
        reading = statistics.mean(float(spinner.stdout.readline())
                                  for spinner in self._spinners)
        self.readings.append(reading)
        return reading

    def slowdown(self) -> float:
        """The loop's time over this run's readings, as a share of nominal."""
        return statistics.median(self.readings) / NOMINAL_SPIN_S

    def close(self) -> None:
        for spinner in self._spinners:
            spinner.stdin.close()  # end of input: the spinner's loop ends
        for spinner in self._spinners:
            try:
                spinner.wait(timeout=10)
            except subprocess.TimeoutExpired:
                spinner.kill()
                spinner.wait()
            spinner.stdout.close()
        self._spinners = []


def _spinner(cpu: int) -> int:
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass
    for _ in sys.stdin:
        print(repr(spin()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(_spinner(int(sys.argv[1])))
