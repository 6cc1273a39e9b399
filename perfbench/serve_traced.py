"""``ia-rank serve`` with the program's layers traced.

    python3 perfbench/serve_traced.py SPANS.json [serve options]

Wraps the layers (``tracing.install_service``) before the server
starts, serves until SIGTERM like ``ia-rank serve``, then writes the
recorded spans and counts to SPANS.json.
"""

from __future__ import annotations

import sys

import tracing


def main(argv) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install_service(tracer)
    from repro.cli import main as cli_main

    code = cli_main(["serve", *serve_args])
    tracing.dump(tracer, spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
