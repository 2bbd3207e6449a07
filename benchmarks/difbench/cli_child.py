"""``difint`` CLI call with spans, for traced cli-oneshot passes.

Run as ``python -X importtime -m difbench.cli_child <difint arguments>``
with ``src`` and ``benchmarks`` on ``PYTHONPATH``.  Standard output is the
CLI's own.  The last standard-error line is a marked JSON report: the
wall-clock time the CLI was imported and ready, and the span trace of the
call.
"""

import json
import sys
import time

from difbench.trace import CHILD_MARKER, Tracer


def main() -> int:
    import difint.cli

    tracer = Tracer()
    tracer.install()
    ready = time.time()
    tracer.begin_op(0)
    tracer.active = True
    code = difint.cli.main(sys.argv[1:])
    tracer.active = False
    sys.stdout.flush()
    report = {"ready": ready, "trace": tracer.to_dict()}
    sys.stderr.write(CHILD_MARKER + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
