"""All-or-nothing writes of run-directory files."""

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Open a temp file beside ``path``; a clean exit renames it onto ``path``.

    An exception inside the block removes the temp file and leaves any
    previous ``path`` as it was, so readers see the old file or the whole
    new one, never a part. There is no fsync: this guards against a failed
    writer, not a lost machine.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
