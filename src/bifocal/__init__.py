"""Focused bilingual crawling toolkit.

Scores URLs for target-language membership and pairwise parallelness, and
combines both into a priority-driven crawl that surfaces parallel documents
early.  Ships the dataset builders (domain-disjoint splits, negative
sampling), the evaluation metrics, and a deterministic crawl simulator.

Import names from the modules (``from bifocal.urls import normalize_url``).
"""
__version__ = "0.1.0"
