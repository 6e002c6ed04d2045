"""Run a Python snippet in a fresh interpreter whose address space is
capped, so that a regression which builds a huge integer fails with
MemoryError instead of exhausting the machine's memory."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import crnlocus

CAP_BYTES = 1 << 30
SRC = str(Path(crnlocus.__file__).parents[1])
CLI = "import sys; from crnlocus.cli import main; sys.exit(main(sys.argv[1:]))"


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))


def run_capped(code: str, *args) -> subprocess.CompletedProcess:
    """``python -c code args...`` with the package on the path and at most
    ``CAP_BYTES`` of address space."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code, *(str(a) for a in args)],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=_cap_address_space,
    )
