"""python -m ovsam runs the ovsam command line."""

from .cli import main

raise SystemExit(main())
