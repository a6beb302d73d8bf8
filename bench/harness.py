"""Runs one `usinv` argv in-process with its output captured.

The benchmark and the reference-table builder both execute commands through
`execute`, which calls `usinv.cli.run` by attribute lookup on each call, so a
traced run that replaces `usinv.cli.run` is seen here too.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_usinv():
    """Import `usinv.cli` from the checkout's `src/`; exit 2 when absent."""
    if not (SRC / "usinv" / "cli.py").is_file():
        sys.stderr.write(f"bench: no usinv sources under {SRC}\n")
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import usinv.cli
    return usinv.cli


def execute(cli, argv):
    """Run one command; returns (exit code or None, stdout text, error text,
    wall seconds, CPU seconds)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    code = None
    t0, c0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except Exception as exc:  # a raised command is a counted failure
            error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return code, out.getvalue(), error, wall, cpu
