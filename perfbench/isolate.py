"""Run riskcheck work in forked children, one at a time.

Why fork: every timed command must start from the state of a fresh
``riskcheck`` process that has finished importing.  riskcheck keeps a
process-wide ``functools.lru_cache`` on its segment profile; once that
cache holds an *equal but different* trajectory object, each scalar call
about doubles in cost (about 125 -> 260 us per ``cumulative_hazard`` call
on a 301-segment trajectory, Intel Xeon 2-vCPU VM), because every lookup
then hashes and compares all segments.
A benchmark that ran commands back to back in one process would measure a
program no CLI user runs.  Clearing the cache through its private name
would break as soon as the cache is removed, so instead the parent imports
``riskcheck.cli``, calls nothing in riskcheck itself, and forks one child
per command (and one to write the inputs).  Fork needs a single-threaded
parent, which ``run.py`` ensures by pinning the BLAS thread pools to one
thread before numpy is imported.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field


def fork_call(fn) -> tuple[object, int]:
    """Run ``fn()`` in a forked child and wait for it.

    Returns the child's JSON-ready result (None if the child failed before
    producing it) and the child's peak resident set in KiB, from ``wait4``.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        os.close(read_fd)
        code = 70
        try:
            payload = json.dumps(fn()).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    # Read to the end before reaping: a child blocked on a full pipe never exits.
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        return None, usage.ru_maxrss
    return json.loads(data), usage.ru_maxrss


@dataclass
class CommandResult:
    exit_code: int | None  # None: the child died before reporting
    seconds: float
    peak_rss_kib: int
    trace: dict = field(default_factory=dict)


def run_command(argv: list[str], out_dir: str, instrument=None) -> CommandResult:
    """Time ``riskcheck.cli.main(argv)`` in a forked child.

    The child sends what it printed to ``stdout.txt`` and ``stderr.txt`` in
    ``out_dir``.  The timed region is ``main`` plus the flush of its output.
    ``instrument(main)``, if given, runs in the child before the timed
    region and returns the ``main`` to call and a function whose JSON-ready
    result, taken after the timed region, becomes ``CommandResult.trace``.
    """
    import riskcheck.cli

    def child() -> dict:
        for fd, name in ((1, "stdout.txt"), (2, "stderr.txt")):
            target = os.open(os.path.join(out_dir, name), os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
            os.dup2(target, fd)
            os.close(target)
        main, report = riskcheck.cli.main, None
        if instrument is not None:
            main, report = instrument(main)
        start = time.perf_counter()
        try:
            exit_code = main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            exit_code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error: the real CLI would exit 1 here
            traceback.print_exc()
            exit_code = 1
        sys.stdout.flush()
        sys.stderr.flush()
        seconds = time.perf_counter() - start
        return {
            "exit_code": exit_code,
            "seconds": seconds,
            "trace": report() if report is not None else {},
        }

    result, peak_rss_kib = fork_call(child)
    if result is None:
        return CommandResult(None, 0.0, peak_rss_kib)
    return CommandResult(result["exit_code"], result["seconds"], peak_rss_kib, result["trace"])
