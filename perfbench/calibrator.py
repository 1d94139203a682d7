"""Host-speed calibration helper: one timing per line read from stdin.

Started by :class:`benchlib.Calibrator`.  The calibration allocates
megabytes of small records; running it here keeps that memory out of
the measured process's peak RSS.
"""

import sys

from benchlib import calibrate

for _ in sys.stdin:
    print(repr(calibrate()), flush=True)
