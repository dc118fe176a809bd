"""`python -m recipeff`: the `recipeff` command-line interface."""

from .cli import main

raise SystemExit(main())
