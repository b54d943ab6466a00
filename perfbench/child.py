"""Run one otrf CLI experiment and record when its ``run`` call starts and ends.

Usage: python3 child.py TIMING_JSON KIND --config CFG [otrf CLI options]

The marks are read from the system-wide monotonic clock, so the parent can
subtract the time it spawned this process from ``run_start`` to get the
set-up time: interpreter start, ``import otrf`` and the config parse.
"""

import json
import sys
import time


def main() -> int:
    timing_path, argv = sys.argv[1], sys.argv[2:]
    from otrf import cli

    marks = {}
    run = cli.run

    def timed_run(cfg):
        marks["run_start"] = time.monotonic()
        result = run(cfg)
        marks["run_end"] = time.monotonic()
        return result

    cli.run = timed_run
    code = cli.main(argv)
    with open(timing_path, "w") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
