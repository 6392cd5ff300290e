"""Data factory and evaluation harness for task-planning datasets."""

import os
from pathlib import Path

__version__ = "0.1.0"


def assets_dir() -> Path:
    """Directory holding the bundled domains, generation configs and schemas."""
    return Path(__file__).resolve().parent / "assets"


def atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all: through a temporary
    file beside it, renamed over ``path``, and removed if the write fails."""
    partial = path.with_name(f".{path.name}.tmp")
    try:
        partial.write_text(text)
        os.replace(partial, path)
    except OSError:
        partial.unlink(missing_ok=True)
        raise
