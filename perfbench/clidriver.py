"""Child-process driver for one ``clickrank`` command.

Usage: python3 perfbench/clidriver.py CLICKRANK_ARGS...

Imports ``clickrank.cli`` from the checkout and calls its ``main``. When
PERFBENCH_TRACE_OUT names a file, it first wraps the package's public
functions (spans.install), then writes the spans and the start-up time
(spawn to ``import clickrank.cli`` done, from PERFBENCH_SPAWN_T) there.
"""

from __future__ import annotations

import json
import os
import sys
import time

from shapes import use_checkout_package


def main(argv: list[str]) -> int:
    use_checkout_package()
    import clickrank.cli

    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    if not trace_out:
        return clickrank.cli.main(argv)

    startup = time.perf_counter() - float(os.environ["PERFBENCH_SPAWN_T"])
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.active = True
    try:
        return clickrank.cli.main(argv)
    finally:
        tracer.active = False
        with open(trace_out, "w", encoding="utf-8") as f:
            json.dump({"startup_s": startup, "spans": tracer.spans}, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
