"""Bundled language table: ISO 639 codes, names, endonyms, locale regions."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

UNKNOWN_LANG = "unk"


@dataclass(frozen=True)
class LanguageRecord:
    code: str  # canonical three-letter code
    code_b: str | None  # bibliographic three-letter variant, if distinct
    code1: str | None  # two-letter code, if assigned
    name_en: str
    endonym: str
    regions: tuple[str, ...]


class LanguageTable:
    """Lookup over the bundled language records.

    ``canonical`` maps any accepted spelling of a code (two-letter, or either
    three-letter variant) to the canonical three-letter code.
    """

    def __init__(self, records: "list[LanguageRecord]"):
        self.records: dict[str, LanguageRecord] = {}
        self._alias: dict[str, str] = {}
        for rec in records:
            if rec.code in self.records:
                raise ValueError(f"duplicate language code {rec.code}")
            self.records[rec.code] = rec
            self._alias[rec.code] = rec.code
            if rec.code_b:
                self._alias[rec.code_b] = rec.code
            if rec.code1:
                self._alias[rec.code1] = rec.code

    def canonical(self, code: str) -> str | None:
        return self._alias.get(code.lower())

    def get(self, code: str) -> LanguageRecord | None:
        canon = self.canonical(code)
        return self.records.get(canon) if canon else None


def _parse_table(text: str) -> LanguageTable:
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        code3, code3b, code1, name_en, endonym, regions = line.split("\t")
        records.append(
            LanguageRecord(
                code=code3,
                code_b=None if code3b == "-" else code3b,
                code1=None if code1 == "-" else code1,
                name_en=name_en,
                endonym=endonym,
                regions=tuple() if regions == "-" else tuple(regions.split(",")),
            )
        )
    return LanguageTable(records)


@lru_cache(maxsize=1)
def bundled_languages() -> LanguageTable:
    text = resources.files("bifocal").joinpath("data/languages.tsv").read_text("utf-8")
    return _parse_table(text)
