"""Command-line benchmark runner.

Usage: otrf <kind> --config run.cfg [--seed N] [--out-dir DIR] [--threads K]

The config file uses key=value sections; every resolved value is echoed to
config.echo next to summary.json and trials.csv.  Exit codes: 0 success,
2 the config or a data file was rejected, 3 the run failed after its config
was accepted (numerical failure, overflow, out of memory).
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys

# one BLAS thread unless the caller sets one: outputs are byte-identical only at
# a fixed thread count, and BLAS reads these when the next import loads numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# glibc malloc starts at 128 KiB mmap and trim thresholds and raises them only as
# large blocks are freed, so a fresh run maps, trims and re-faults its large
# temporaries until they catch up (about 40,000 page faults in a grf-bench run
# of 200 trials on 100 nodes).  Start it where it is headed: its 64-bit cap for
# the mmap threshold, and twice that for trimming.  Setting either one stops
# glibc moving both, so both are set.  Other C libraries keep their own policy.
try:
    _GLIBC = os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
except (AttributeError, ValueError, OSError):  # no confstr, or no such name here
    _GLIBC = False
if _GLIBC:
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _mallopt.restype = ctypes.c_int
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD

from .experiments import EXPERIMENT_KINDS, ConfigError, parse_config_file, run  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otrf", description="coupled random-feature benchmarks"
    )
    parser.add_argument(
        "kind",
        choices=EXPERIMENT_KINDS,
        help="experiment to run (must match the config's kind when both given)",
    )
    parser.add_argument("--config", required=True, help="path to the run config file")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--out-dir", default=None, help="report directory")
    parser.add_argument(
        "--threads", type=int, default=None,
        help="ignored, and kept only so that existing command lines such as "
        "perfbench/run.py's still parse: trials run in one thread",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"kind": args.kind, "seed": args.seed, "out_dir": args.out_dir}
    try:
        cfg = parse_config_file(args.config, overrides)
        summary = run(cfg)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for key in sorted(summary["results"]) if isinstance(summary["results"], dict) else []:
        print(f"{key}: {summary['results'][key]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
