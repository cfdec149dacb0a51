"""Deterministic text output helpers shared by the export surfaces."""

from __future__ import annotations

import math
from pathlib import Path
from typing import IO, Iterable, Sequence

__all__ = ["fmt", "write_rows", "write_text"]


def fmt(value) -> str:
    """Render a cell: 9 significant digits for floats, inf/nan literals, bare bools."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    x = float(value)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".9g")


def write_rows(out, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a comma-separated table to a path or open text stream."""
    lines = [",".join(header)]
    lines.extend(",".join(fmt(cell) for cell in row) for row in rows)
    write_text(out, "\n".join(lines) + "\n")


def write_text(out, text: str) -> None:
    """Write text to a path or open text stream."""
    if isinstance(out, (str, Path)):
        Path(out).write_text(text)
    else:
        stream: IO[str] = out
        stream.write(text)
