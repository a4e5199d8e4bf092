"""``python -m dessins``: the command-line frontend of ``dessins.cli``."""

from .cli import entry

entry()
