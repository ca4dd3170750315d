"""Run ``repro.cli`` under the benchmark's span recorder.

Usage: ``python perfbench/cli_traced.py FILE [titancc flags]``.  The
CLI's own output is untouched; the spans go to stderr as one line
starting with ``perfbench-spans `` when the CLI returns.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

from perfbench import tracing  # noqa: E402
from perfbench.cli_oneshot import SPANS_MARKER  # noqa: E402


def main() -> int:
    recorder = tracing.Recorder()
    tracing.install(recorder)
    from repro.cli import main as cli_main
    with recorder.span("cli.main"):
        code = cli_main(sys.argv[1:])
    sys.stdout.flush()
    print(SPANS_MARKER + json.dumps(recorder.export()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
