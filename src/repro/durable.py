"""A JSON manifest replaced atomically: the commit point of the frame
store and of the checkpoint (a crash leaves the old file or the new one)."""

import json
import os


def atomic_write_json(path: str, payload: dict) -> None:
    """Write ``payload`` to ``path`` through a synced temporary file and
    one atomic rename."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
