"""Mergeable counter records: how a run's statistics add up across
processes.

A stats record summed over jobs or workers is a dataclass deriving from
:class:`Counters`. A field merges by its kind: a number adds and a
``bool`` flag ORs. One rule crosses a process boundary: a job takes
:meth:`Counters.as_dict` baselines when it starts, its result carries
each record's :meth:`Counters.delta` against them, and the receiver
merges each delta into a record of the same type.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict, Mapping, Union


class Counters:
    """Base of the mergeable stats dataclasses."""

    def as_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge(self, other: Union["Counters", Mapping[str, Any]]) -> None:
        """Fold *other* (a record or a mapping of field values) into
        this record. A missing key counts as 0."""
        data = other.as_dict() if isinstance(other, Counters) else other
        for f in fields(self):
            value = data.get(f.name)
            if not value:
                continue  # 0, False or absent: nothing to add
            mine = getattr(self, f.name)
            if isinstance(mine, bool):
                setattr(self, f.name, True)
            else:
                setattr(self, f.name, mine + value)

    def delta(self, baseline: Mapping[str, Any]) -> Dict[str, Any]:
        """The fields that changed since *baseline* (an earlier
        :meth:`as_dict`), as what must be merged to account for them:
        a count as its difference, a set flag as it stands (OR absorbs
        repeats)."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, bool):
                value -= baseline.get(f.name, 0)
            if value:
                out[f.name] = value
        return out
