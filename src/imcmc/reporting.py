"""CSV conventions shared by the harness and the command line.

Every file carries a header row, data rows, and a trailing comment block
of ``# key: value`` metadata lines.  Floats are written with 17
significant digits so a read-back reproduces the exact binary values.
A table of records has a column per field of their dataclass, named
after it, but ``replicates`` is ``R`` and ``passed`` is ``pass``.
"""

from __future__ import annotations

import dataclasses
import typing

#: Columns named otherwise than their row field.
_COLUMNS = {"replicates": "R", "passed": "pass"}

#: A cell's value from its text, by the field's type.
_PARSE = {int: int, float: float, str: str, bool: {"true": True, "false": False}.__getitem__}


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def format_metadata(metadata: dict | None) -> str:
    """The trailing comment block: one ``# key: value`` line per key."""
    return "".join(f"# {key}: {value}\n" for key, value in (metadata or {}).items())


def write_csv(fh, header: list[str], rows, metadata: dict | None = None) -> None:
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(format_value(v) for v in row) + "\n")
    fh.write(format_metadata(metadata))


def read_csv(fh) -> tuple[list[str], list[list[str]], dict[str, str]]:
    """Read back a file written by :func:`write_csv` (losslessly)."""
    header: list[str] | None = None
    rows: list[list[str]] = []
    metadata: dict[str, str] = {}
    for line in fh:
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, _, value = body.partition(":")
            metadata[key.strip()] = value.strip()
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header or [], rows, metadata


def write_rows(fh, kind: type, rows, metadata: dict | None = None) -> None:
    """Write `rows`, records of the dataclass `kind`, one column per field."""
    header = [_COLUMNS.get(f.name, f.name) for f in dataclasses.fields(kind)]
    write_csv(fh, header, map(dataclasses.astuple, rows), metadata)


def read_rows(fh, kind: type) -> tuple[tuple, dict[str, str]]:
    """Read back a file written by :func:`write_rows`: its records of
    `kind`, each cell parsed by its field's type, and its metadata."""
    header, rows, metadata = read_csv(fh)
    fields = dataclasses.fields(kind)
    if header != [_COLUMNS.get(f.name, f.name) for f in fields]:
        raise ValueError(f"not a table of {kind.__name__}: columns {header}")
    types = typing.get_type_hints(kind)
    parse = [_PARSE[types[f.name]] for f in fields]
    return tuple(kind(*(p(cell) for p, cell in zip(parse, row))) for row in rows), metadata
