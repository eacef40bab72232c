"""Record the fixed-seed reference diagnostics the correctness gate compares
against.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: the final diagnostics record of each
stepping workload's reference case (see ``Workload.reference_final``).  Run
it only when a change is meant to alter the discrete scheme, and say so in
CHANGES.md; round-off moves stay within ``workloads.REFERENCE_RTOL``.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run


def main() -> int:
    run.load_program()
    import workloads

    outdir = run.ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=outdir)
    try:
        reference = {}
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(seed=0, smoke=False, workdir=run.Path(workdir))
            try:
                reference[name] = wl.reference_final()
            except NotImplementedError:
                continue
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH} for {sorted(reference)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
