"""Set-up cost of a fresh riskcheck process, as a user pays it.

Run as ``python3 setup_probe.py SRC_DIR INPUT...`` in a new interpreter:
imports ``riskcheck.cli``, then loads, compiles and validates every input
the way the CLI does (``load_input``, ``build_trajectory`` for scenarios,
``ensure_valid``).  Prints ``{"import_s": ..., "compile_s": ...}``.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    src, *inputs = sys.argv[1:]
    sys.path.insert(0, src)
    import riskcheck.cli  # noqa: F401  (the import is what is timed)
    from riskcheck.hazard import ensure_valid
    from riskcheck.scenarios import build_trajectory
    from riskcheck.serialize import load_input

    imported = time.perf_counter()
    for path in inputs:
        kind, obj = load_input(path)
        if kind == "scenario":
            build_trajectory(obj)  # validates what it compiles
        else:
            ensure_valid(obj)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - START, "compile_s": done - imported}))


if __name__ == "__main__":
    main()
