"""Run the nullpoly CLI with every library function traced.

Used by the traced run of the ``cli`` workload in place of
``python -m nullpoly.cli``: same arguments, same stdout and exit code. The
span totals go to stderr as one line starting with ``BENCH-TRACE ``.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import nullpoly  # noqa: E402
import nullpoly.cli  # noqa: E402
import spans  # noqa: E402

tracer = spans.Tracer()
tracer.install(nullpoly)
code = 1
try:
    code = nullpoly.cli.main(sys.argv[1:])
finally:
    sys.stdout.flush()
    print("BENCH-TRACE " + json.dumps(tracer.export()), file=sys.stderr, flush=True)
sys.exit(code)
