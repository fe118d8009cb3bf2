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


def _event(d: dict) -> InteractionEvent:
    return InteractionEvent(
        user_id=_int_field(d, "user_id"),
        post_id=_int_field(d, "post_id"),
        action=action_from_name(d["action"]),
        surface=d["surface"],
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
                "topic": [float(x) for x in p.topic],
                "text_channel": [float(x) for x in p.text_channel],
                "image_channels": [[float(x) for x in img] for img in p.image_channels],
            }, sort_keys=True) + "\n")


def _post(d: dict) -> Post:
    return Post(
        post_id=_int_field(d, "post_id"),
        created_at=_int_field(d, "created_at"),
        topic=np.array(d["topic"], dtype=np.float64),
        text_channel=np.array(d["text_channel"], dtype=np.float64),
        image_channels=[np.array(img, dtype=np.float64) for img in d["image_channels"]],
        lang=d["lang"],
        country=d["country"],
        lifetime_days=_int_field(d, "lifetime_days"),
        integrity_violating=bool(d["integrity"]),
    )


def read_posts_jsonl(path) -> list:
    return _read_jsonl(path, _post)
