"""Run ``repro serve`` with spans on the campaign layer (traced mode).

Usage::

    python3 perfbench/daemon.py SPANS_OUT [repro serve options...]

Wraps ``RunSpec.cache_key`` and ``ResultCache.get``/``put`` in this
process, serves until a client asks for shutdown, then writes every
span to ``SPANS_OUT``. Pool workers are separate processes and carry no
spans.
"""

from __future__ import annotations

import sys

import spans
from repro.cli import main as repro_main


def main() -> int:
    out, serve_args = sys.argv[1], sys.argv[2:]
    rec = spans.SpanRecorder()
    spans.install_service_spans(rec)
    try:
        return repro_main(["serve", *serve_args])
    finally:
        rec.dump(out)


if __name__ == "__main__":
    sys.exit(main())
