"""Run ``repro serve`` or ``repro agent`` with the layer wrappers on.

Usage: ``python launch.py server|agent <repro arguments...>``.

Installs the wrappers of :mod:`layers` for the role, then calls
``repro.cli.main`` with the remaining arguments.  When the command
returns (after its SIGTERM drain), the span aggregates are written to
the path in ``PERFBENCH_SPANS_OUT``.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    role, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install = {"server": layers.install_server, "agent": layers.install_agent}[role]
    install(tracer)
    from repro import cli

    code = cli.main(args)
    tracer.dump(os.environ["PERFBENCH_SPANS_OUT"])
    return code


if __name__ == "__main__":
    sys.exit(main())
