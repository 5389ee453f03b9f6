"""The metric catalog in ``docs/observability.md`` lists every family of
:data:`repro.obs.observability.CATALOG`, with its type, and nothing
else."""

import re
from pathlib import Path

from repro.obs.observability import CATALOG

DOC = Path(__file__).resolve().parents[2] / "docs" / "observability.md"
ROW = re.compile(r"^\| `(repro_[a-z_]+)` \| (counter|gauge|histogram) \|")


def _documented() -> dict[str, str]:
    text = DOC.read_text(encoding="utf-8")
    section = text.split("## Metric catalog", 1)[1].split("\n## ", 1)[0]
    return dict(
        match.groups()
        for match in map(ROW.match, section.splitlines())
        if match
    )


def test_every_catalog_family_is_documented_with_its_type():
    documented = _documented()
    declared = {
        name: row.kind
        for rows in CATALOG.values()
        for name, row in rows.items()
    }
    assert documented == declared
