"""Record the headline statistics that the benchmark's correctness check compares with.

Usage (from the repository root, on the commit whose results are the reference):

    python3 perfbench/record_references.py [workload ...]

Runs every listed workload (default: all) once per experiment seed and
rewrites those workloads' entries in ``perfbench/references.json``.  Prints
any ordering check that fails on the recorded outputs.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run


def main(argv: list[str]) -> int:
    workloads = argv or sorted(run.WORKLOADS)
    path = run.HERE / "references.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="references-", dir=run.WORK))
    try:
        for workload in workloads:
            refs[workload] = {}
            for exp_seed in range(run.REFERENCE_SEEDS):
                child = run.run_child(workload, exp_seed, work / f"{workload}{exp_seed}", 600.0)
                if "error" in child:
                    print(f"{workload} seed {exp_seed}: {child['error']}", file=sys.stderr)
                    return 1
                summary_text, trials_csv = child["outputs"]
                summary = json.loads(summary_text)
                cells = checks.headline(workload, summary, trials_csv)
                for problem in checks.orderings(workload, summary, cells):
                    print(f"{workload} seed {exp_seed}: {problem}")
                refs[workload][str(exp_seed)] = cells
            print(f"{workload}: {run.REFERENCE_SEEDS} seeds recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(dump(refs))
    return 0


def dump(refs: dict) -> str:
    """JSON with one line per (workload, seed)."""
    blocks = []
    for workload in sorted(refs):
        seeds = sorted(refs[workload], key=int)
        lines = [f'  "{s}": {json.dumps(refs[workload][s], sort_keys=True)}' for s in seeds]
        blocks.append(f'"{workload}": {{\n' + ",\n".join(lines) + "\n}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
