"""The one JSON boundary: every ``from_json`` reader parses and checks here, so
any malformed input raises the reader's own error with a one-line message.
mucat reads JSON and writes none back; the CLI's ``--format json`` reports
are the one JSON it prints."""

from __future__ import annotations


def strings(value, length=None) -> bool:
    """True iff value is an array of strings (of ``length`` items, if given)."""
    return (isinstance(value, list) and (length is None or len(value) == length)
            and all(isinstance(x, str) for x in value))


def rows(value, length=None) -> bool:
    """True iff value is an array of string arrays (each of ``length``, if given)."""
    return isinstance(value, list) and all(strings(row, length) for row in value)


def load_object(data, error, what: str, fields) -> dict:
    """Parse ``data`` (JSON text, or a value already parsed) as a JSON object.

    ``fields`` maps every allowed key to ``(test, shape)``: other keys are
    rejected and ``test`` must accept each value, an absent key's as None.
    Failures raise ``error`` naming ``what`` and, for a field, key and shape.
    """
    if isinstance(data, (str, bytes)):
        import json  # here, not at import: only text needs the parser
        try:
            data = json.loads(data)
        except (ValueError, RecursionError) as exc:
            raise error(f"{what} JSON does not parse: {exc}") from None
    if not isinstance(data, dict):
        raise error(f"{what} JSON must be an object")
    unknown = set(data) - fields.keys()
    if unknown:
        raise error(f"unknown keys in {what} JSON: {sorted(unknown)}")
    for key, (test, shape) in fields.items():
        if not test(data.get(key)):
            raise error(f"{what} JSON {key!r} must be {shape}")
    return data
