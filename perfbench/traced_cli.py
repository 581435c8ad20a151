"""Traced stand-in for ``python -m trichord``.

Usage: python perfbench/traced_cli.py SPANS_STEM OP_ID CLI_ARGS...

Installs the trace hooks, runs ``trichord.cli.main(CLI_ARGS)`` with its
stdout and exit code unchanged, and writes the spans to SPANS_STEM.{bin,json}.
"""

import sys
from pathlib import Path

from tracer import HOOK_MISSING_EXIT, HookMissing, Tracer


def main() -> int:
    stem, op_id, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    try:
        tracer.install()
    except HookMissing as exc:
        print(exc, file=sys.stderr)
        return HOOK_MISSING_EXIT
    import trichord.cli

    tracer.op = op_id
    code = trichord.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(stem)
    return code


if __name__ == "__main__":
    sys.exit(main())
