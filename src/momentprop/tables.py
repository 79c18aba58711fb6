"""The one line reader of momentprop's text inputs, and the one writer of its CSV tables."""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np


def text_lines(text: str) -> Iterator[tuple[int, str]]:
    """(number from 1, line) of each line that holds more than a '#' comment, without the comment and trailing space."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if line := raw.split("#", 1)[0].rstrip():
            yield line_no, line


def csv_text(
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    metadata: Mapping[str, object] | None = None,
) -> str:
    """CSV text: one `# key: value` line per metadata entry, the header, then one line per row.

    Floats, numpy's included, are written with 17 significant digits, so
    they read back bit for bit; any other cell is written with `str`.
    """
    lines = [f"# {key}: {value}" for key, value in (metadata or {}).items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join([format(v, ".17g") if isinstance(v, (float, np.floating)) else str(v) for v in row]))
    return "\n".join(lines) + "\n"
