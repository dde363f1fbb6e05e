"""Start the ``mmkgr`` command line with tracing wrappers installed.

Usage: ``python3 perfbench/launch_server.py SPANS_FILE -- serve ...``.  The
wrappers go in before ``repro.cli.main`` runs; when the command returns
(``serve`` returns after SIGINT has drained the server) the spans recorded
in this process are written to ``SPANS_FILE``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spans import Target, Tracer  # noqa: E402 - after the path set-up

TARGETS = (
    Target("repro.serve.server", "_RequestHandler.do_POST", "server.handle_post"),
    Target(
        "repro.serve.server", "ReasoningServer.submit", "server.submit", until_done=True
    ),
)


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_file, command = argv[0], argv[2:]
    tracer = Tracer().install(TARGETS)
    from repro.cli.main import main as cli_main

    try:
        return cli_main(command)
    finally:
        tracer.uninstall()
        tracer.dump(spans_file, extra={"command": command})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
