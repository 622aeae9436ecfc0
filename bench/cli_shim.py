"""Run ``pml`` with the benchmark's spans installed; used by traced CLI runs.

    python3 bench/cli_shim.py SPANS_OUT estimate PROFILE... [options]

Behaves like ``python -m pml.cli`` with the remaining arguments, and writes
the spans and call counts it recorded to SPANS_OUT as JSON when it exits.
The import of ``pml.cli`` is timed as its own span.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import Tracer, clock, install_pipeline_spans  # noqa: E402


def main() -> None:
    out_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = clock()
    import pml.cli

    tracer.spans.append({"name": "cli.import", "start": start, "end": clock(),
                         "parent": None, "instance": None})
    install_pipeline_spans(tracer, pml)
    try:
        pml.cli.main.main(args=args, prog_name="pml")
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)


if __name__ == "__main__":
    main()
