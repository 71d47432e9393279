"""One strict JSON codec for the program's declarative inputs.

Trace events, fault/chaos/reconfig plans and run/serve/ingress configs
are frozen dataclasses read from JSON.  A :class:`TagRegistry` decodes one
:class:`Record` tagged by ``kind`` or ``type``; a :class:`Plan` is a tuple
of records under one top-level key; :func:`decode_fields` builds any
dataclass from a JSON object.  Every malformed input — a non-object, an
unknown tag or field, a missing field or plan key, a value the dataclass
rejects with ``TypeError`` — raises :class:`ValueError` naming the fault.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Callable, ClassVar, TypeVar

__all__ = ["Plan", "Record", "TagRegistry", "decode_fields", "load_json"]

T = TypeVar("T")


def load_json(path: str | Path) -> Any:
    """Parse the JSON document in file ``path``."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def decode_fields(
    cls: type[T], payload: object, what: str, **decoders: Callable[[Any], Any]
) -> T:
    """Build dataclass ``cls`` from the JSON object ``payload``, strictly.

    ``what`` names the input in errors; ``decoders`` maps a field name to
    the decoder of its value when present and not ``null`` (nested configs).
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(payload).__name__}")
    try:
        if decoders:
            payload = {
                name: value if value is None or name not in decoders
                else decoders[name](value)
                for name, value in payload.items()
            }
        return cls(**payload)
    except TypeError as exc:
        raise _field_error(cls, payload, what, exc) from exc


def _field_error(cls: type, payload: dict, what: str, exc: TypeError) -> ValueError:
    """Why ``cls(**payload)`` raised ``exc``: unknown or missing fields (named
    here, so the success path pays for no checks), else a bad value."""
    fields = dataclasses.fields(cls)
    known = {f.name for f in fields}
    required = {
        f.name for f in fields
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    }
    if not known.issuperset(payload):
        return ValueError(
            f"unknown {what} fields {sorted(payload.keys() - known)}; "
            f"expected a subset of {sorted(known)}"
        )
    if not required.issubset(payload):
        return ValueError(
            f"{what} is missing required fields {sorted(required - payload.keys())}"
        )
    return ValueError(f"bad {what} {payload!r}: {exc}")


class Record:
    """A frozen-dataclass record whose JSON form carries its tag: the class
    attribute named by ``tag_key`` (``"kind"`` or ``"type"``)."""

    tag_key: ClassVar[str] = "kind"

    def as_dict(self) -> dict[str, object]:
        """JSON-ready mapping: the tag plus the fields."""
        return {self.tag_key: getattr(self, self.tag_key), **dataclasses.asdict(self)}


class TagRegistry(dict):
    """Wire tag -> :class:`Record` class for one family (``noun``) of records."""

    def __init__(self, noun: str, tag_key: str = "kind") -> None:
        super().__init__()
        self.noun = noun
        self.tag_key = tag_key

    def register(self, cls: type[Record]) -> type[Record]:
        """Class decorator adding ``cls`` under its tag (tag-unique)."""
        tag = getattr(cls, self.tag_key)
        if tag in self:
            raise ValueError(f"duplicate {self.noun} {self.tag_key} tag {tag!r}")
        self[tag] = cls
        return cls

    def decode(self, payload: object) -> Record:
        """The record that :meth:`Record.as_dict` encoded as ``payload``."""
        if not isinstance(payload, dict):
            raise ValueError(
                f"{self.noun} entry must be a JSON object, got {payload!r}"
            )
        fields = dict(payload)
        tag = fields.pop(self.tag_key, None)
        if not isinstance(tag, str) or tag not in self:
            raise ValueError(
                f"unknown {self.noun} {self.tag_key} {tag!r}; "
                f"expected one of {sorted(self)}"
            )
        cls = self[tag]
        try:
            return cls(**fields)
        except TypeError as exc:
            raise _field_error(cls, fields, f"{tag} {self.noun}", exc) from exc


class Plan:
    """Base of a frozen dataclass whose one field is a tuple of records.

    Subclasses set ``key`` (the JSON list key), ``registry`` and
    ``record_type``; the JSON form is ``{key: [record.as_dict(), ...]}``.
    """

    key: ClassVar[str]
    registry: ClassVar[TagRegistry]
    record_type: ClassVar[type[Record]]

    @property
    def records(self) -> tuple[Record, ...]:
        """The plan's records, in plan order."""
        return getattr(self, dataclasses.fields(self)[0].name)

    def __post_init__(self) -> None:
        for record in self.records:
            if not isinstance(record, self.record_type):
                raise TypeError(
                    f"{type(self).__name__} entries must be "
                    f"{self.record_type.__name__} instances, got {record!r}"
                )
        name = dataclasses.fields(self)[0].name
        object.__setattr__(self, name, tuple(self.records))

    def __len__(self) -> int:
        return len(self.records)

    @property
    def is_empty(self) -> bool:
        """Whether the plan declares nothing at all."""
        return not self.records

    def to_dict(self) -> dict[str, object]:
        """JSON-ready mapping (``{key: [...]}``)."""
        return {self.key: [record.as_dict() for record in self.records]}

    def to_json(self, indent: int | None = 2) -> str:
        """The plan as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls: type[T], payload: object) -> T:
        """Reconstruct a plan from its :meth:`to_dict` form."""
        noun = cls.registry.noun
        if not isinstance(payload, dict):
            raise ValueError(
                f"{noun} plan must be a JSON object, got {type(payload).__name__}"
            )
        entries = payload.get(cls.key)
        if not isinstance(entries, list) or len(payload) != 1:
            raise ValueError(
                f'{noun} plan JSON must hold exactly one key, a "{cls.key}" list; '
                f"got keys {sorted(payload)}"
            )
        return cls(tuple(cls.registry.decode(entry) for entry in entries))

    @classmethod
    def from_json(cls: type[T], text: str) -> T:
        """Parse a plan from a JSON string."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls: type[T], path: str | Path) -> T:
        """Load a plan from a JSON file."""
        return cls.from_dict(load_json(path))
