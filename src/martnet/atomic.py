"""All-or-nothing writes of run-directory files."""

import os
from contextlib import contextmanager

from .errors import WriteError


@contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Open a temp file beside ``path``; a clean exit renames it onto ``path``.

    An exception inside the block removes the temp file and leaves any
    previous ``path`` as it was, so readers see the old file or the whole
    new one, never a part. An OSError from opening the temp file or renaming
    it raises WriteError naming ``path``; an exception from the block
    passes through unchanged. There is no fsync: this guards against a
    failed writer, not a lost machine.
    """
    tmp = f"{path}.tmp"
    try:
        fh = open(tmp, mode, **kwargs)
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from exc
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise WriteError(f"cannot write {path}: {exc}") from exc
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
