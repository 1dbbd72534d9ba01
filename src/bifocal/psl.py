"""Public-suffix resolution against a bundled snapshot.

The snapshot is plain text, one suffix per line: ``#`` starts a comment,
``*.`` entries are wildcards matching exactly one extra label, and ``!``
entries are exceptions that override a wildcard.  Hosts whose suffix is not
listed fall back to their last dot-separated label.
"""
from __future__ import annotations

from functools import lru_cache
from importlib import resources


class PublicSuffixList:
    """Suffix lookup over a parsed snapshot."""

    def __init__(self, rules: "list[str]"):
        self._exact: set[str] = set()
        self._wildcard: set[str] = set()  # stored without the "*." prefix
        self._exception: set[str] = set()  # stored without the "!" prefix
        for rule in rules:
            rule = rule.strip().lower()
            if not rule or rule.startswith("#") or rule.startswith("//"):
                continue
            if rule.startswith("!"):
                self._exception.add(rule[1:])
            elif rule.startswith("*."):
                self._wildcard.add(rule[2:])
            else:
                self._exact.add(rule)

    def suffix_label_count(self, host: str) -> int:
        """Number of trailing labels of ``host`` that form its public suffix."""
        labels = host.split(".")
        n = len(labels)
        best = 1  # fallback: the last label is the suffix
        for i in range(n):
            tail = ".".join(labels[i:])
            tail_len = n - i
            if tail in self._exception:
                # The exception's own first label is registrable.
                return tail_len - 1 if tail_len > 1 else 1
            if tail in self._exact and tail_len > best:
                best = tail_len
            # "*.x" matches hosts with one label directly before "x".
            if i > 0 and tail in self._wildcard and tail_len + 1 > best:
                best = tail_len + 1
        return min(best, n)

    def split(self, host: str) -> "tuple[str, str, str]":
        """Split ``host`` into (subdomain, registrable domain, public suffix).

        The subdomain may be empty; if the host itself is a public suffix the
        registrable domain equals the host.
        """
        labels = host.split(".")
        k = self.suffix_label_count(host)
        suffix = ".".join(labels[len(labels) - k:])
        if len(labels) > k:
            registrable = ".".join(labels[len(labels) - k - 1:])
            subdomain = ".".join(labels[: len(labels) - k - 1])
        else:
            registrable = host
            subdomain = ""
        return subdomain, registrable, suffix


@lru_cache(maxsize=1)
def default_psl() -> PublicSuffixList:
    """The snapshot bundled with the package, parsed once."""
    text = resources.files("bifocal").joinpath("data/public_suffix_list.dat").read_text("utf-8")
    return PublicSuffixList(text.splitlines())
