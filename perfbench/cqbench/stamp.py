"""The provenance stamp every result file carries."""

from __future__ import annotations

import os
import pathlib
import platform
import subprocess
from typing import Dict

import numpy as np

__all__ = ["git_sha", "filesystem", "stamp"]

FLUSH_POLICY = (
    "commits fsync as StoreWriter does (file fsync, rename, directory fsync "
    "per published file); setup writes the store with save_store's fsyncs"
)


def git_sha(root: pathlib.Path) -> str:
    """HEAD of the checkout at ``root``, read from ``.git`` without git.

    Returns ``"unknown"`` when ``root`` is not itself a git checkout
    (a parent directory's repository is never consulted).
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def filesystem(path: pathlib.Path) -> str:
    """File system type holding ``path`` (``stat -f``), or ``"unknown"``."""
    try:
        done = subprocess.run(
            ["stat", "-f", "-c", "%T", str(path)],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def stamp(root: pathlib.Path, store_dir: pathlib.Path, seed: int) -> Dict[str, object]:
    fs = filesystem(store_dir)
    return {
        "git_sha": git_sha(root),
        "cpu_count": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "flush_policy": FLUSH_POLICY,
        "store_filesystem": fs,
        "store_on_tmpfs": fs == "tmpfs",
    }
