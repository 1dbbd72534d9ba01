"""Exception hierarchy shared by all modules.

Every domain error raised by this package derives from :class:`BifocalError`,
so callers (notably the CLI) can distinguish domain failures from bugs.
"""


class BifocalError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyUrl(BifocalError):
    """Raised when an empty string is passed where a URL is required."""


class NotAUrl(BifocalError):
    """Raised when a string cannot be parsed into URL components (no host)."""


class DegenerateLabels(BifocalError):
    """Raised when training data does not contain at least two classes."""


class ScorerUnavailable(BifocalError):
    """Raised when an external scorer cannot be reached or misbehaves."""


class DetectorUnavailable(BifocalError):
    """Raised when an external content-language detector cannot be used."""


class UnknownLanguage(BifocalError):
    """Raised when a language code is not present in the bundled table."""


class BadCap(BifocalError):
    """Raised when a per-language cap is not a positive integer."""


class TooFewDomains(BifocalError):
    """Raised when a domain-disjoint split or fold assignment is impossible."""


class EmptyGold(BifocalError):
    """Raised when recall is requested against an empty gold set."""


class FrontierEmpty(BifocalError):
    """Raised when popping from a frontier with no pending entries."""


class UnknownSeed(BifocalError):
    """Raised when a simulated crawl is seeded with a URL absent from the graph."""


class NoSeeds(BifocalError):
    """Raised when a seed list is requested from an empty URL collection."""


class FetchFailed(BifocalError):
    """Raised by fetchers when a document cannot be retrieved."""


class ConfigError(BifocalError):
    """Raised for a bad input: config file (unknown key, type error, missing
    file), site graph, crawl log, pair TSV, pair model, language model, link
    map, labeled-URL TSV or ``--ratios``, including JSON that lacks a field or
    has another shape."""
