"""The one writer of momentprop's CSV tables."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np


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
