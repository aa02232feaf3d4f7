"""Entry point for ``python -m repro``."""

from .cli import entry

entry()
