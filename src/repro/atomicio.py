"""Atomic text-file writes for report/manifest outputs.

Report writers used to ``Path(out).write_text(...)``, which leaves a
truncated file behind if the process dies mid-write — and a consumer
tailing the path can read a half-written JSON document.  The classic
fix: write the payload to a temp file in the *same directory*
(``os.replace`` is only atomic within one filesystem), fsync, then
rename over the destination.  Readers see either the old content or the
new, never a prefix.  :func:`open_atomic` is the streaming form, for a
writer that emits its output piece by piece; :func:`write_text_atomic`
writes one string through it.

The result has the mode a plain ``open(path, "w")`` would give it: a
new file gets ``0o666`` less the umask, and a replaced file keeps its
mode.

:func:`write_text_atomic` also normalises the POSIX loose end every one
of its call sites had: the emitted text always ends in exactly one
newline.
"""

from __future__ import annotations

import contextlib
import errno
import os
from pathlib import Path
from typing import Iterator, TextIO, Union


def _naming(error: OSError, path: Union[str, Path]) -> OSError:
    """*error* as if it had happened to *path*: the temp file is an
    implementation detail, and the caller named only the destination."""
    return OSError(error.errno, error.strerror, os.fspath(path))


@contextlib.contextmanager
def open_atomic(path: Union[str, Path]) -> Iterator[TextIO]:
    """A text handle whose content replaces *path* when the block ends.

    Everything written goes to a temp file beside *path*, which is
    fsynced and renamed over *path* only if the block finishes; if it
    raises, the temp file is removed and *path* is left as it was.  A
    directory at *path* is refused before the block runs, and a failure
    to create or rename the file raises :class:`OSError` naming *path*.
    """
    target = Path(path)
    if target.is_dir():
        raise IsADirectoryError(
            errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path)
        )
    temp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as error:
        raise _naming(error, path) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            with contextlib.suppress(FileNotFoundError):
                os.fchmod(fd, os.stat(target).st_mode & 0o7777)
            yield handle
            handle.flush()
            os.fsync(fd)
        try:
            os.replace(temp, target)
        except OSError as error:
            raise _naming(error, path) from None
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


def write_text_atomic(path: Union[str, Path], text: str) -> Path:
    """Write *text* to *path* atomically, ensuring a trailing newline."""
    if not text.endswith("\n"):
        text += "\n"
    with open_atomic(path) as handle:
        handle.write(text)
    return Path(path)
