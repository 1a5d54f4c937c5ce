"""Write-then-rename: an output file appears whole under its name or not at all."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def write_then_rename(path):
    """Yield a UTF-8 text file ``<path>.tmp-<pid>``, then rename it to ``path``.

    Text is written as given (no newline translation).  If the block, the
    write or the rename raises, the temporary file is removed, ``path`` is
    left as it was, and the exception propagates.
    """
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
