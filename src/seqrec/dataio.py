"""JSON Lines persistence for the synthetic world (events and posts files)."""
from __future__ import annotations

import json

import numpy as np

from .actions import action_from_name
from .world import InteractionEvent, Post


def write_events_jsonl(path, events: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in events:
            fh.write(json.dumps({
                "user_id": e.user_id,
                "post_id": e.post_id,
                "action": e.action.name.lower(),
                "surface": e.surface,
                "ts": e.ts,
            }, sort_keys=True) + "\n")


def _read_jsonl(path, parse) -> list:
    """``parse`` every non-blank line's JSON object; a bad line raises a
    ValueError naming the file and its 1-based line number.

    Lines are read as bytes and decoded one by one, so invalid UTF-8 also
    fails where the line number is known.
    """
    records = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                records.append(parse(json.loads(line.decode("utf-8"))))
            except KeyError as exc:
                raise ValueError(f"{path}, line {lineno}: missing field {exc}") from exc
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from exc
    return records


def _int_field(d: dict, name: str) -> int:
    value = d[name]
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _str_field(d: dict, name: str) -> str:
    value = d[name]
    if type(value) is not str:
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _bool_field(d: dict, name: str) -> bool:
    value = d[name]
    if type(value) is not bool:
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def _vector(value, name: str) -> np.ndarray:
    """A JSON list of numbers as a float64 vector."""
    arr = np.array(value)
    if arr.ndim != 1 or arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a list of numbers, got {value!r}")
    return arr.astype(np.float64, copy=False)


def _vectors(value, name: str) -> list:
    if type(value) is not list:
        raise ValueError(f"{name} must be a list of lists of numbers, got {value!r}")
    return [_vector(v, name) for v in value]


def _event(d: dict) -> InteractionEvent:
    return InteractionEvent(
        user_id=_int_field(d, "user_id"),
        post_id=_int_field(d, "post_id"),
        action=action_from_name(d["action"]),
        surface=_str_field(d, "surface"),
        ts=_int_field(d, "ts"),
    )


def read_events_jsonl(path) -> list:
    return _read_jsonl(path, _event)


def write_posts_jsonl(path, posts: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in posts:
            fh.write(json.dumps({
                "post_id": p.post_id,
                "created_at": p.created_at,
                "lifetime_days": p.lifetime_days,
                "lang": p.lang,
                "country": p.country,
                "integrity": p.integrity_violating,
                "topic": p.topic.tolist(),
                "text_channel": p.text_channel.tolist(),
                "image_channels": [img.tolist() for img in p.image_channels],
            }, sort_keys=True) + "\n")


def _post(d: dict) -> Post:
    return Post(
        post_id=_int_field(d, "post_id"),
        created_at=_int_field(d, "created_at"),
        topic=_vector(d["topic"], "topic"),
        text_channel=_vector(d["text_channel"], "text_channel"),
        image_channels=_vectors(d["image_channels"], "image_channels"),
        lang=_str_field(d, "lang"),
        country=_str_field(d, "country"),
        lifetime_days=_int_field(d, "lifetime_days"),
        integrity_violating=_bool_field(d, "integrity"),
    )


def read_posts_jsonl(path) -> list:
    return _read_jsonl(path, _post)
