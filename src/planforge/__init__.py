"""Data factory and evaluation harness for task-planning datasets."""

import io
import os
from collections.abc import Callable
from pathlib import Path
from typing import TypeVar

_T = TypeVar("_T")

__version__ = "0.1.0"


def assets_dir() -> Path:
    """Directory holding the bundled domains, generation configs and adapters."""
    return Path(__file__).resolve().parent / "assets"


def read_file(path: str | Path, parse: Callable[[str], _T]) -> tuple[bytes, str, _T]:
    """The bytes of the file ``path``, their text (see ``decode``) and
    ``parse`` of it.  A ValueError from either, such as bytes that are not
    UTF-8 or a parse error, or a file that cannot be read, is raised again
    as a ValueError that begins ``<path>: ``."""
    try:
        data = Path(path).read_bytes()
        text = decode(data)
        return data, text, parse(text)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
    except OSError as err:
        raise ValueError(f"{path}: cannot read: {err.strerror or err}") from err


def parse_file(path: str | Path, parse: Callable[[str], _T]) -> _T:
    """``parse`` of the text of the file ``path``; see ``read_file``."""
    return read_file(path, parse)[2]


def decode(data: bytes) -> str:
    """``data`` decoded as ``Path.read_text`` decodes a file: in the
    locale's encoding, with universal newlines."""
    return io.TextIOWrapper(io.BytesIO(data)).read()


def atomic_write(path: Path, data: str | bytes) -> None:
    """Write ``data`` to ``path`` whole or not at all: through a temporary
    file beside it, renamed over ``path``, and removed if the write fails.

    That holds if the process dies, not if the machine loses power: nothing
    is ``fsync``ed, so the rename can reach the disk before the data."""
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
