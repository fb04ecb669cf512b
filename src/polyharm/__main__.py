"""``python -m polyharm``: the ``polyharm`` command line."""

from .cli import main

raise SystemExit(main())
