"""Start the ``repro.service`` daemon, traced when the parent asks.

Run as ``python3 perfbench/service_launcher.py <daemon args>``.  When
``PERFBENCH_TRACE`` is set, the layer wrappers are installed before
:func:`repro.service.__main__.main` runs, and the daemon's spans are
written when it stops.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    tracer = spans.from_env()
    if tracer is not None:
        import layers

        layers.install(tracer)
    from repro.service.__main__ import main as serve

    try:
        return serve(argv)
    finally:
        if tracer is not None:
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
