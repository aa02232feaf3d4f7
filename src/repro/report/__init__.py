"""Reporting: the paper's published numbers, table rendering, and the
per-figure experiment drivers."""
