"""Run one CLI command under the benchmark's tracer.

    python3 bench/cli_shim.py {off,span,count} OUT.json <cli arguments>

Installs the wrappers the in-process traced runs use, calls
``multispace.cli.main(argv)``, writes the self times and spans (span mode) or
the counts (count mode) to OUT.json, and exits with the command's exit code.
Mode ``off`` installs nothing and writes nothing: it is the baseline that
tracing overhead is measured against.
"""

import json
import sys

from tracer import Tracer, self_times


def main() -> int:
    mode, out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import multispace.cli

    if mode == "off":
        return multispace.cli.main(argv)
    tracer = Tracer(mode)
    tracer.instance = "cli"
    tracer.install()
    try:
        return multispace.cli.main(argv)
    finally:
        tracer.uninstall()
        if mode == "span":
            payload = {"self_s": self_times(tracer.spans), "spans": tracer.spans}
        else:
            payload = {"counts": tracer.counts()}
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


if __name__ == "__main__":
    sys.exit(main())
