"""Data factory and evaluation harness for task-planning datasets."""

import os
from pathlib import Path

__version__ = "0.1.0"


def assets_dir() -> Path:
    """Directory holding the bundled domains, generation configs and adapters."""
    return Path(__file__).resolve().parent / "assets"


def atomic_write(path: Path, data: str | bytes) -> None:
    """Write ``data`` to ``path`` whole or not at all: through a temporary
    file beside it, renamed over ``path``, and removed if the write fails."""
    partial = path.with_name(f".{path.name}.tmp")
    try:
        if isinstance(data, bytes):
            partial.write_bytes(data)
        else:
            partial.write_text(data)
        os.replace(partial, path)
    except OSError:
        partial.unlink(missing_ok=True)
        raise
