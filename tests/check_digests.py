"""Check the stdout of every perfbench catalogue request against the sha256
recorded in perfbench/digests.json; nothing is written.

Run from the repository root:

    python3 tests/check_digests.py [workload ...]

Requests run in-process through ``degenpoly.cli.main``, with the table and
family builders memoised as ``perfbench/record_digests.py`` memoises them.
Each mismatch is printed, and the exit code is 1 if there is any (a request
that exits non-zero stops the check with a message).  All 1 394 requests
take about 4 s on a 2-CPU host.  The name has no ``test_`` prefix, so pytest
does not collect it.
"""

import functools
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

# record_digests puts src/ on the path and imports the CLI and the catalogues
from record_digests import DIGESTS, cli, run_in_process, workloads  # noqa: E402


def main(names) -> int:
    for name in ("_build_triangle", "_build_slice", "build_family"):
        setattr(cli, name, functools.lru_cache(maxsize=None)(getattr(cli, name)))
    digests = json.loads(DIGESTS.read_text())
    checked = mismatched = 0
    for workload in names or workloads.WORKLOADS:
        for argv in workloads.catalogue(workload):
            key = workloads.key(argv)
            checked += 1
            if hashlib.sha256(run_in_process(argv)).hexdigest() != digests.get(key):
                mismatched += 1
                print(f"mismatch: {key}")
    print(f"{checked} requests checked, {mismatched} mismatched")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
