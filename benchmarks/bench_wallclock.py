"""The three engine gates: churn race, trajectory and ratchet.

Not a paper figure and not the host-cost benchmark (that is
``hostbench/``).  This script guards the simulation kernel's fast path
against the pinned values in :mod:`repro.bench.perfbench`:

1. churn race — the fast engine's events/s on the engine-churn stream is
   at least ``CHURN_MIN_SPEEDUP`` times the legacy engine's;
2. trajectory — a tracing-off fig8a run gives the pinned event count and
   final sim time exactly, within ``TRAJECTORY_WALL_FACTOR`` of the
   recorded wall time;
3. ratchet — fast-engine churn reaches the recorded events/s floor
   (skipped when ``INSANE_PERF_RATCHET_SKIP`` is set).

It takes no arguments, prints one line per check and exits non-zero if
any check fails.  Run directly (not collected by the tier-1 suite)::

    PYTHONPATH=src python benchmarks/bench_wallclock.py
"""

import argparse
import sys

from repro.bench.perfbench import (
    check_churn_speedup,
    check_ratchet,
    check_trajectory,
)


def main():
    # no options: this only gives --help and rejects stale flags loudly
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    failed = 0
    for check in (check_churn_speedup, check_trajectory, check_ratchet):
        ok, lines = check()
        for line in lines:
            print(line)
        failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
