"""Fixture: wall-clock reads (parsed only)."""

import time


def stamp():
    t = time.time()              # flagged
    tn = time.time_ns()          # flagged
    ok = time.perf_counter()     # measurement clock: NOT flagged
    return t, tn, ok


def suppressed():
    return time.time()  # lint: disable=wallclock-time
