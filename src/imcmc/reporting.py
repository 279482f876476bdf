"""CSV conventions shared by the harness and the command line.

Every file carries a header row, data rows, and a trailing comment block
of ``# key: value`` metadata lines.  Floats are written with 17
significant digits so a read-back reproduces the exact binary values.
"""

from __future__ import annotations


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv(fh, header: list[str], rows, metadata: dict | None = None) -> None:
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(format_value(v) for v in row) + "\n")
    for key, value in (metadata or {}).items():
        fh.write(f"# {key}: {value}\n")


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

