"""Run one selfattract CLI command in-process with the layer tracer on.

    python3 bench/traced.py --spans SPANS.json --run-id ID -- CLI_ARGS...

The package is imported from ``PYTHONPATH`` exactly as the untraced
``python3 -m selfattract`` child imports it.  The exit code is the CLI's;
the spans are written to ``--spans`` after the command returns.
"""

from __future__ import annotations

import argparse
import sys

from tracer import Tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer(args.run_id)
    with tracer.span("cli.import"):
        import selfattract.cli as cli
    tracer.install()
    with tracer.span("cli.main"):
        code = cli.main(cli_args)
    tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
