"""Reading input files (numbered lines, tab-separated rows and JSON), and replacing a file whole.

Each reader reports a bad input as a ``ConfigError`` that names the file, and
the line for a bad row.  No numpy.
"""
from __future__ import annotations

import contextlib
import json
import os
import sys

from .errors import ConfigError


def numbered_lines(path):
    """(line number, line) for each non-empty line of ``path``, or of stdin
    when ``path`` is ``None``.  Text that is not UTF-8 is a ``ConfigError``."""
    source = contextlib.nullcontext(sys.stdin) if path is None else open(path, "r", encoding="utf-8")
    with source as handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if line:
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{_name(path)}: not UTF-8 text: {exc}") from None


def rows(path, fields: int, what: str):
    """(line number, tab-separated fields) for each non-empty line of ``path``;
    a row without exactly ``fields`` fields is a ``ConfigError``."""
    for lineno, line in numbered_lines(path):
        parts = line.split("\t")
        if len(parts) != fields:
            raise ConfigError(
                f"{_name(path)}:{lineno}: {what} row has {len(parts)} tab fields, not {fields}"
            )
        yield lineno, parts


def read_json(path, what: str):
    """The JSON value in ``path``; a file that is not JSON is a ``ConfigError``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ConfigError(f"{path}: {what} is not JSON: {exc}") from None


def url_list(value) -> "tuple[str, ...]":
    """A JSON list of URL strings as a tuple.

    Raises:
        TypeError: ``value`` is not a list of strings.  A string is refused,
            not split into one-character URLs.
    """
    if not isinstance(value, list) or not all(isinstance(url, str) for url in value):
        raise TypeError(f"expected a list of URL strings, got {value!r:.80}")
    return tuple(value)


def replace_file(path, write) -> None:
    """Write ``path`` through ``write(binary_handle)`` to a temporary file in
    its directory, which then replaces it, so a reader never sees half a file.
    If writing fails, ``path`` is as it was and the temporary file is gone."""
    directory, name = os.path.split(os.fspath(path))
    tmp_path = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    handle = open(tmp_path, "xb")
    try:
        with handle:
            write(handle)
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def _name(path) -> str:
    return "<stdin>" if path is None else str(path)
