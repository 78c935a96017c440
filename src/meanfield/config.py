"""Flat experiment-config files and deterministic CSV output.

Config format: one ``key = value`` per line, ``#`` comments, no nesting.
Values are typed by shape: booleans (true/false), integers, floats,
comma-separated lists of those, everything else a string.  The canonical
rendering (sorted keys, 17-significant-digit floats) is echoed into every
CSV header so outputs are self-describing and reruns of the echoed
config reproduce the bytes.

CSV format: ``#``-prefixed header lines (``key = value``), one column
header row, data rows, then optional ``#``-prefixed footer lines.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "parse_config_text",
    "parse_config",
    "render_value",
    "write_csv",
    "load_particles",
    "dump_particles",
]


def _parse_scalar(tok: str):
    t = tok.strip()
    if t.lower() in ("true", "false"):
        return t.lower() == "true"
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


def parse_config_text(text: str) -> dict:
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        val = val.strip()
        if "," in val:
            cfg[key] = [_parse_scalar(v) for v in val.split(",") if v.strip() != ""]
        else:
            cfg[key] = _parse_scalar(val)
    return cfg


def parse_config(path: str | Path) -> dict:
    return parse_config_text(Path(path).read_text())


def render_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if isinstance(v, (list, tuple, np.ndarray)):
        return ", ".join(render_value(x) for x in v)
    return str(v)


def write_csv(
    path: str | Path | None,
    header_items: Sequence[tuple[str, object]],
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
    footers: Sequence[tuple[str, object]] = (),
) -> str:
    """Render the CSV (and write it when a path is given); returns the text."""
    buf = io.StringIO()
    for k, v in header_items:
        buf.write(f"# {k} = {render_value(v)}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(render_value(x) for x in row) + "\n")
    for k, v in footers:
        buf.write(f"# {k} = {render_value(v)}\n")
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


def load_particles(path: str | Path) -> np.ndarray:
    """One particle per line, whitespace-separated coordinates."""
    arr = np.loadtxt(path, ndmin=2, dtype=np.float64)
    if arr.size == 0:
        raise ValueError(f"no particles in {path}")
    return arr


def dump_particles(path: str | Path, coords: np.ndarray) -> None:
    rows = ["\t".join(f"{x:.17g}" for x in row) for row in np.atleast_2d(coords)]
    Path(path).write_text("\n".join(rows) + "\n")
