"""Machine-readable report envelopes: JSON, CSV, and plain text.

Every report carries the schema version and a full echo of the resolved
configuration.  Rationals are serialized as numerator/denominator string
pairs so nothing is rounded.  Wall-clock timing is an opt-in field (null by
default) so that repeated runs with identical configuration produce
byte-identical output.  Each formatter encodes the raw envelope itself;
JSON comes from a small writer that encodes as it writes, not ``json.dumps``
(in CPython 3.11 any ``indent`` turns off its C encoder), with the same text.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote

SCHEMA_VERSION = "1.0"
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def int_str(value: int) -> str:
    """Decimal digits of an int of any size.

    Plain ``str`` below the interpreter's int-to-str digit limit; above it
    the value is split by divmod on a power of ten, so the result never
    depends on (or changes) the process-wide limit.
    """
    try:
        return str(value)
    except ValueError:
        pass
    if value < 0:
        return "-" + int_str(-value)
    low_digits = value.bit_length() * 3 // 20    # about half the digits
    high, low = divmod(value, 10 ** low_digits)
    return int_str(high) + int_str(low).zfill(low_digits)


def encode_value(value):
    """Recursively convert payload values into JSON-encodable structures."""
    if isinstance(value, Fraction):
        return {"num": int_str(value.numerator),
                "den": int_str(value.denominator)}
    if isinstance(value, dict):
        return {k: encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if hasattr(value, "describe"):
        return encode_value(value.describe())
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    return str(value)


def make_report(command: str, config: dict, payload,
                timing_seconds: float | None = None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "payload": payload,
        "timing_seconds": timing_seconds,
    }


def _scalar(value) -> str:
    """The JSON token of a non-container value, as ``json`` writes it."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_WORDS.get(text, text)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# the types written as they are; any other value is encoded first
_PLAIN = {dict, list, tuple, str, int, float, bool, type(None)}


def _write(value, indent: str, out: list) -> None:
    kind = type(value)
    if kind not in _PLAIN:
        value = encode_value(value)
        kind = type(value)
    inner = indent + "  "
    if kind is dict:
        sep = "{\n" + inner
        for key in sorted(value):
            out += (sep, _quote(key if isinstance(key, str) else _scalar(key)),
                    ": ")
            _write(value[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}" if value else "{}")
    elif kind is list or kind is tuple:
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]" if value else "[]")
    else:
        out.append(_scalar(value))


def to_json(report: dict) -> str:
    """Sorted, 2-indented ``json.dumps`` text of ``encode_value(report)``."""
    out = []
    _write(report, "", out)
    out.append("\n")
    return "".join(out)


def _flatten(prefix, value, row):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, row)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, row)
    else:
        row[prefix] = value


def to_csv(report: dict) -> str:
    """One row per payload entry when the payload is a list of records
    (sweep shape); a single flattened row otherwise."""
    payload = encode_value(report["payload"])
    rows = payload if isinstance(payload, list) else [payload]
    flats = []
    for entry in rows:
        flat = {}
        _flatten("", entry, flat)
        flats.append(flat)
    fieldnames = sorted({k for flat in flats for k in flat})
    import csv    # here, so that only CSV reports load it
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    for flat in flats:
        writer.writerow(flat)
    return buf.getvalue()


def to_text(report: dict) -> str:
    lines = [f"# {report['command']} (schema {report['schema_version']})"]
    if report.get("timing_seconds") is not None:
        lines.append(f"# timing: {report['timing_seconds']:.3f}s")
    flat = {}
    _flatten("", encode_value(report["payload"]), flat)
    width = max((len(k) for k in flat), default=0)
    for k in sorted(flat):
        lines.append(f"{k.ljust(width)}  {flat[k]}")
    return "\n".join(lines) + "\n"


FORMATTERS = {"json": to_json, "csv": to_csv, "text": to_text}


def render(report: dict, fmt: str) -> str:
    if fmt not in FORMATTERS:
        raise ValueError(f"unknown report format {fmt!r}")
    return FORMATTERS[fmt](report)


def schema() -> dict:
    """The shipped JSON schema for report envelopes."""
    text = resources.files("diagbase").joinpath(
        "data/report-schema.json").read_text(encoding="utf-8")
    return json.loads(text)
