"""Whole-file writes that readers never see half done.

``replacing(path)`` hands out a file object on a temporary sibling of
``path``; when the block exits normally the temporary replaces ``path`` in
one ``os.replace``, and when it raises the temporary is removed, so ``path``
keeps its previous contents.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

__all__ = ["replacing"]


@contextlib.contextmanager
def replacing(path, mode: str = "w"):
    """Open a temporary sibling of ``path`` for writing; replace ``path``
    with it once the block completes."""
    path = Path(path)
    # hidden and in the same directory, so the replace stays on one file
    # system; its own suffix keeps it out of globs for the target's suffix
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
