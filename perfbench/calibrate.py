"""Time a fixed loop of the kind of work ncpe does, in a fresh process.

    python3 perfbench/calibrate.py

Prints the seconds the loop took.  The loop builds tuples, frozensets and a
dict from an empty heap, as a fresh `ncpe` job does; it never touches the
program, so its time follows only the speed of the host.
"""

import time


def loop() -> float:
    started = time.perf_counter()
    table: dict = {}
    for i in range(60000):
        key = (i % 97, i % 89, i)
        table[key] = frozenset((i % 7, i % 11))
    return time.perf_counter() - started


if __name__ == "__main__":
    print(repr(loop()))
