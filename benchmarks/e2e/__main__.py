"""Entry point: ``python -m benchmarks.e2e <command>`` from the repo root,
or ``python3 benchmarks/e2e/__main__.py <command>`` (what BENCHMARK.json
names, since a driver's command may not set ``PYTHONPATH``)."""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        sys.exit(f"benchmarks.e2e: no program to measure under {_ROOT}/src")
    # Run as a script, sys.path[0] is this directory; the package and the
    # program under test are imported from the checkout root instead.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != _HERE]
    for path in (os.path.join(_ROOT, "src"), _ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.e2e.cli import main

    sys.exit(main(sys.argv[1:]))
