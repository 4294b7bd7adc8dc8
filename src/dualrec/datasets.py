"""Bundled dual-record datasets and dataset file loading.

Three worked two-stratum datasets ship as module constants and as CSV
files under ``data/``:

* ``ENCEPHALITIS`` — hospital-record versus field-survey ascertainment of
  encephalitis cases, stratified adult/children.
* ``CHILDREN_DEATH`` — dual registration of child deaths, stratified by sex.
* ``MEADOW_VOLES`` — two trapping lists over a small-mammal population,
  stratified by sex.

Dataset files are UTF-8 CSV with header ``stratum,x11,x10,x01`` and exactly
two rows, or an equivalent JSON document with the same keys.  The stratum
named by ``dependent`` becomes stratum A (default: the first row).  Stratum
labels are one-line report names.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .core import DomainError, DrsTable, DualrecError, StratumPair

ENCEPHALITIS = StratumPair(
    DrsTable(39, 290, 39), DrsTable(20, 78, 15), label_a="Adult", label_b="Children"
)
CHILDREN_DEATH = StratumPair(
    DrsTable(30, 153, 8), DrsTable(15, 173, 7), label_a="Male", label_b="Female"
)
MEADOW_VOLES = StratumPair(
    DrsTable(46, 20, 11), DrsTable(54, 5, 13), label_a="Male", label_b="Female"
)

DATASETS = {
    "encephalitis": ENCEPHALITIS,
    "children_death": CHILDREN_DEATH,
    "voles": MEADOW_VOLES,
}

_COLUMNS = ("stratum", "x11", "x10", "x01")


def _row_to_entry(row: dict, where: str) -> tuple[str, DrsTable]:
    missing = [c for c in _COLUMNS if row.get(c) in (None, "")]
    if missing:
        raise DomainError(f"{where}: missing column(s) {', '.join(missing)}")
    counts = []
    for c in _COLUMNS[1:]:
        try:
            counts.append(int(str(row[c]).strip()))
        except (TypeError, ValueError):
            raise DomainError(f"{where}: column {c} is not an integer: {row[c]!r}")
    label = str(row["stratum"])
    if "\r" in label or "\n" in label:
        raise DomainError(f"{where}: stratum label {label!r} spans more than one line")
    try:
        table = DrsTable(*counts)
    except DualrecError as e:
        raise DomainError(f"{where}: {e}") from e
    return label.strip(), table


def _pair_from_entries(
    entries: list[tuple[str, DrsTable]], dependent: str | None, path: Path
) -> StratumPair:
    if len(entries) != 2:
        raise DomainError(f"{path}: expected exactly two strata, got {len(entries)}")
    labels = [label for label, _ in entries]
    if labels[0] == labels[1]:
        raise DomainError(f"{path}: stratum labels must differ, both are {labels[0]!r}")
    if dependent is not None:
        if dependent not in labels:
            raise DomainError(
                f"{path}: dependent stratum {dependent!r} not found; strata are {labels}"
            )
        if dependent == labels[1]:
            entries = [entries[1], entries[0]]
    (label_a, a), (label_b, b) = entries
    return StratumPair(a, b, label_a=label_a, label_b=label_b)


def load_stratum_pair(path: str | Path, dependent: str | None = None) -> StratumPair:
    """Load a two-stratum dataset from a CSV or JSON file.

    ``dependent`` names the stratum to treat as A; by default the first
    row (or first listed stratum) is A.  Format violations raise
    :class:`DomainError` with the offending row or field named.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise DomainError(f"{path}: not UTF-8 text: {e}")
    if path.suffix.lower() == ".json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise DomainError(f"{path}: invalid JSON: {e}")
        if isinstance(doc, dict):
            rows = doc.get("strata")
            if dependent is None and isinstance(doc.get("dependent"), str):
                dependent = doc["dependent"]
        else:
            rows = doc
        if not isinstance(rows, list):
            raise DomainError(f"{path}: expected a list of strata")
        entries = [
            _row_to_entry(row if isinstance(row, dict) else {}, f"{path}: stratum {i + 1}")
            for i, row in enumerate(rows)
        ]
    else:
        reader = csv.DictReader(io.StringIO(text))
        fields = reader.fieldnames or []
        missing = [c for c in _COLUMNS if c not in fields]
        if missing:
            raise DomainError(f"{path}: header lacks column(s) {', '.join(missing)}")
        entries = [
            _row_to_entry(row, f"{path}: row {i + 2}") for i, row in enumerate(reader)
        ]
    return _pair_from_entries(entries, dependent, path)


def pair_to_rows(pair: StratumPair) -> list[dict]:
    """Canonical row encoding of a stratum pair (dependent stratum first)."""
    return [
        {"stratum": pair.label_a, "x11": pair.a.x11, "x10": pair.a.x10, "x01": pair.a.x01},
        {"stratum": pair.label_b, "x11": pair.b.x11, "x10": pair.b.x10, "x01": pair.b.x01},
    ]


def pair_to_csv(pair: StratumPair) -> str:
    """Canonical CSV encoding of a stratum pair, matching the input format."""
    return csv_text(_COLUMNS, pair_to_rows(pair))


def csv_text(columns, rows) -> str:
    """CSV text of ``rows`` (dicts) under the header ``columns``, each line
    ending in a bare newline; a missing key is written empty, an extra one ignored."""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=columns, lineterminator="\n", extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()
