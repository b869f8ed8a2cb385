"""Replay of benchmark op lists through ``cli.main`` in one process, for
the equivalence steps of CI: run an op list twice, under different
settings or in the same warm process, and compare every exit code, stdout
and stderr.  Import it with ``src``, ``perfbench`` and ``tests`` on
PYTHONPATH (``perfbench/workloads.py`` builds the op lists).
"""

import contextlib
import io

from diagbase import cli


def run(ops):
    """(exit code, stdout, stderr) of each op's argv, in order."""
    seen = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op["argv"])
        seen.append((code, out.getvalue(), err.getvalue()))
    return seen


def differ(name, ops, first, again):
    """Print how many ops of the two replays differ, and their argvs;
    return that number."""
    diff = [op["argv"] for op, a, b in zip(ops, first, again) if a != b]
    print(name, len(ops), "ops,", len(diff), "differ")
    for argv in diff:
        print("  differs:", " ".join(argv))
    return len(diff)
