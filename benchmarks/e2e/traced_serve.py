"""``runner serve`` with the benchmark's tracer installed.

Installs the wrappers from :mod:`tracer`, then hands its arguments to the
runner CLI, so the traced server is the same code path as the untraced one.
After the SIGTERM drain it prints every span as one ``spans <json>`` line::

    PYTHONPATH=src python benchmarks/e2e/traced_serve.py serve fig6 --port 0
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main(argv=None) -> int:
    tracer = Tracer()
    tracer.install()
    from repro.experiments.runner import main as runner_main

    code = runner_main(argv)
    print("spans " + json.dumps(tracer.spans), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
