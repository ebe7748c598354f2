"""Provenance fields every ``BENCH_*.json`` writer records.

A plain module (no pytest) so standalone scripts can import it too.
"""

from __future__ import annotations

import platform
import subprocess
from pathlib import Path
from typing import Dict, Optional


def provenance() -> Dict[str, Optional[str]]:
    """Who measured a ``BENCH_*.json``: the commit, the interpreter and
    numpy (``commit`` is ``None`` outside a git checkout)."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
