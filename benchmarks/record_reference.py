"""Write benchmarks/reference.json, the outputs every run's checks compare against.

    python3 benchmarks/record_reference.py

The file holds, per workload, the outputs on the fixed second input
(`workloads.REFERENCE_SEED`). Re-record it only when a change to
hypermux is accepted as a behaviour change, and say so where the change
is described; a speed-up must pass against the existing file.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # pins BLAS threads before numpy loads


def main():
    run._import_package()
    from workloads import REFERENCE_FILE, WORKLOADS

    work = run.WORK / "record_reference"
    try:
        reference = {name: wl.reference_outputs(work / name)
                     for name, wl in WORKLOADS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
