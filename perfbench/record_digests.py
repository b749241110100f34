"""Record the sha256 of every catalogue request's stdout into digests.json.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_digests.py [workload ...]

Requests run in-process through ``degenpoly.cli.main``, with the table and
family builders memoised so each (kind, order) is built once however many
λ / format variants render it.  The benchmark itself runs every request as
its own process and compares the bytes, so a difference between the two
paths would show up as failed requests.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from degenpoly import cli  # noqa: E402

DIGESTS = HERE / "digests.json"


def run_in_process(argv) -> bytes:
    buffer = io.StringIO()
    saved = sys.stdout
    sys.stdout = buffer
    try:
        code = cli.main(list(argv))
    finally:
        sys.stdout = saved
    if code != 0:
        raise SystemExit(f"reference run failed with exit {code}: {workloads.key(argv)}")
    return buffer.getvalue().encode("utf-8")


def main(names) -> None:
    for name in ("_build_triangle", "_build_slice", "build_family"):
        setattr(cli, name, functools.lru_cache(maxsize=None)(getattr(cli, name)))
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for workload in names or workloads.WORKLOADS:
        entries = workloads.catalogue(workload)
        for i, argv in enumerate(entries, 1):
            key = workloads.key(argv)
            if key not in digests:
                digests[key] = hashlib.sha256(run_in_process(argv)).hexdigest()
            if i % 100 == 0 or i == len(entries):
                print(f"{workload}: {i}/{len(entries)}", file=sys.stderr, flush=True)
        DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
