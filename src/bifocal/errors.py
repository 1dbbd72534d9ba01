"""Exception hierarchy shared by all modules.

Every domain error raised by this package derives from :class:`BifocalError`,
so callers (notably the CLI) can distinguish domain failures from bugs.
"""


class BifocalError(Exception):
    """Base class for all domain errors raised by this package."""


class NotAUrl(BifocalError):
    """Raised when a string is empty or cannot be parsed into URL components."""


class ScorerUnavailable(BifocalError):
    """Raised when an external scorer cannot be reached or misbehaves."""


class UnknownLanguage(BifocalError):
    """Raised when a language code is not present in the bundled table."""


class FrontierEmpty(BifocalError):
    """Raised when popping from a frontier with no pending entries."""


class FetchFailed(BifocalError):
    """Raised by fetchers when a document cannot be retrieved."""


class ConfigError(BifocalError):
    """Raised for a bad input: a config file, an input file (site graph, crawl
    log, labeled URLs or pairs, models, link map) or a value out of range,
    such as data with one label or fewer domains than parts."""
