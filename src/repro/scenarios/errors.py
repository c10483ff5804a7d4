"""Scenario validation errors: one line, field-path qualified.

Every schema violation raises :class:`ScenarioError` carrying the
dotted path of the offending field (``failures.regime``) and a
human-readable reason; ``str(exc)`` is the single line the CLI prints
(exit 2, no traceback) and the HTTP API returns as a 400 body.  It is
the scenario boundary's :class:`~repro.inputs.InputError`.
"""

from __future__ import annotations

from typing import Optional

from repro.inputs import InputError


class ScenarioError(InputError):
    """A structurally invalid scenario spec.

    Takes the field *path* first, the order the schema reports in;
    ``path`` is ``""`` for document-level problems such as a
    non-table top level.
    """

    def __init__(
        self, path: str, reason: str, source: Optional[str] = None
    ) -> None:
        super().__init__(reason, path, source)
