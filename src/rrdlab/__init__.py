"""Exact certification toolkit for radial rapid decay over SL2 of the
Laurent-polynomial ring, acting on the product of two regular-tree boundaries,
plus the lamplighter-style subgroup that witnesses failure of ordinary rapid
decay."""

__version__ = "0.1.0"

CACHE_MAJOR_VERSION = 1
