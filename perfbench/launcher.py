"""Traced entry point: one CLI request with spans recorded around degenpoly's
layers.

    python3 perfbench/launcher.py SPANS_OUT REQUEST_ID [degenpoly args ...]

Imports ``degenpoly.cli`` (timing the import), installs the wrappers from
``tracing``, runs ``degenpoly.cli.main`` on the remaining arguments, writes
the spans to SPANS_OUT and exits with main's exit code.  Stdout carries the
same bytes as an untraced ``python -m degenpoly.cli`` request.
"""

import sys
import time


def main(argv) -> int:
    out_path, request_id, cli_args = argv[0], int(argv[1]), argv[2:]
    start = time.perf_counter()
    from degenpoly import cli
    import_s = time.perf_counter() - start
    import tracing  # after the timed import, so it cannot pre-load degenpoly's imports

    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = tracer.wrap("cli.main", cli.main)(cli_args)
    sys.stdout.flush()
    tracer.dump(out_path, request_id, {"cli.import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
