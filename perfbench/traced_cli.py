"""Run one pbitsim CLI command in process with layer spans recorded.

Usage: python traced_cli.py SPANS_JSON CLI_ARG...

Imports pbitsim.cli, wraps its layer entry points (see spans.install),
calls pbitsim.cli.main(argv) under a `cli.main` span and writes the spans
and counters to SPANS_JSON.  The exit code is main's.
"""

import json
import sys

from spans import Recorder, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import pbitsim.cli

    rec = Recorder()
    install(rec)
    code = 1
    try:
        with rec.span("cli.main"):
            code = pbitsim.cli.main(argv)
    finally:
        with open(spans_path, "w") as f:
            json.dump(rec.to_json(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
