"""Run the ghzw CLI from a source checkout, with no install step.

    python3 perfbench/cli_entry.py <subcommand> [options]

Puts the checkout's ``src`` on the import path and calls ghzw.cli.main.
With PERFBENCH_TRACE_OUT set, the ghzw layers are traced and the spans
are written to that path when the process exits.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main() -> None:
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    if trace_out:
        import atexit

        import ghzw
        import tracing

        tracer = tracing.Tracer()
        tracer.install(ghzw)
        atexit.register(tracer.dump, trace_out)
    from ghzw.cli import main as cli_main

    cli_main()


if __name__ == "__main__":
    main()
