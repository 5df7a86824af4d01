"""Leak checks around one build: ``/dev/shm`` segments and stray files.

A build may leave behind only what it was asked to write: the saved graph
and, for a disk-backed Step 1, one ``partition_NNNN.phsk`` file per
partition in its workdir.  Any new ``/dev/shm`` entry, any file left in the
build's private temporary directory (where the processes backend puts its
per-worker spill files) or any other workdir entry is a leak.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

SHM_DIR = Path("/dev/shm")
PARTITION_FILE = re.compile(r"partition_\d{4}\.phsk")


def shm_listing(shm_dir: Path = SHM_DIR) -> set[str]:
    """Names currently in ``shm_dir`` (empty when it does not exist)."""
    try:
        return set(os.listdir(shm_dir))
    except FileNotFoundError:
        return set()


def tree_files(root: Path) -> list[str]:
    """Every file and directory under ``root``, relative, sorted."""
    if not root.exists():
        return []
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def build_leaks(shm_added: set[str], tmpdir: Path, workdir: Path | None,
                n_partitions: int) -> list[str]:
    """Everything one build left behind that it should not have.

    ``shm_added`` are the ``/dev/shm`` names the build created and did not
    remove; ``tmpdir`` must be empty; ``workdir`` (when the build had one)
    must hold exactly the ``n_partitions`` partition files.
    """
    leaks = [f"/dev/shm/{name}" for name in sorted(shm_added)]
    leaks += [f"tmp/{name}" for name in tree_files(tmpdir)]
    if workdir is not None:
        entries = tree_files(workdir)
        leaks += [f"workdir/{name}" for name in entries
                  if not PARTITION_FILE.fullmatch(name)]
        n_parts = sum(1 for name in entries if PARTITION_FILE.fullmatch(name))
        if n_parts != n_partitions:
            leaks.append(f"workdir holds {n_parts} partition files, "
                         f"expected {n_partitions}")
    return leaks
