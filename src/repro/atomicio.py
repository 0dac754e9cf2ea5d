"""Atomic text-file writes for report/manifest outputs.

Report writers used to ``Path(out).write_text(...)``, which leaves a
truncated file behind if the process dies mid-write — and a consumer
tailing the path can read a half-written JSON document.  The classic
fix: write the full payload to a temp file in the *same directory*
(``os.replace`` is only atomic within one filesystem), fsync, then
rename over the destination.  Readers see either the old content or the
new, never a prefix.

Also normalises the POSIX loose end every one of those call sites had:
the emitted text always ends in exactly one newline.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union


def write_text_atomic(path: Union[str, Path], text: str) -> Path:
    """Write *text* to *path* atomically, ensuring a trailing newline."""
    target = Path(path)
    if not text.endswith("\n"):
        text += "\n"
    fd, tmp_name = tempfile.mkstemp(
        dir=str(target.parent) or ".",
        prefix=f".{target.name}.",
        suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target
