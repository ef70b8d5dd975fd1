"""Start ``repro serve run`` with the benchmark's tracer installed.

Usage: ``python benchmarks/e2e/daemon.py SPOOL_DIR <serve run arguments>``
(with the checkout's ``src`` on ``PYTHONPATH``). The daemon runs exactly as
``python -m repro.cli serve run ...`` would; on its graceful SIGTERM exit it
writes its spans to ``SPOOL_DIR``, and its forked workers write theirs
after every task.
"""

from __future__ import annotations

import sys

from run import load_sibling


def main(argv) -> int:
    spool, serve_args = argv[0], argv[1:]
    from repro.cli import main as cli_main

    tracer = load_sibling("trace").Tracer(spool, role="daemon").install()
    try:
        return cli_main(["serve", "run"] + serve_args)
    finally:
        tracer.flush()
        tracer.restore()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
