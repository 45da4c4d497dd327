"""Capture the reference outputs that every benchmark job is compared against.

Runs every pool job of the stored reference seeds once and writes
``reference/<workload>.json``. Run it only at a commit whose outputs are
known good; later commits are checked against what it wrote:

    PYTHONPATH=src python3 perfbench/capture_reference.py [workload ...]
"""

import json
import sys
import tempfile
from pathlib import Path

import workloads


def capture(name: str, tmpdir: Path) -> dict:
    workload = workloads.WORKLOADS[name]
    out = {}
    for seed in workloads.REFERENCE_SEEDS:
        outputs = []
        for job in workload.pool(seed, tmpdir):
            output, extra = job.run()
            problems = job.check(output, extra)
            if problems:
                raise SystemExit(f"{name} seed {seed} {job.key}: {'; '.join(problems)}")
            outputs.append(output.to_json())
        out[str(seed)] = outputs
    return out


def main(argv) -> int:
    names = argv or list(workloads.WORKLOADS)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            data = capture(name, Path(tmp))
            with open(workloads.reference_path(name), "w", encoding="utf-8") as fh:
                json.dump(data, fh, separators=(",", ":"))
                fh.write("\n")
            print(f"{name}: {sum(len(v) for v in data.values())} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
