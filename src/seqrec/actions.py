"""Engagement action vocabulary shared by the data pipeline and the model."""
from __future__ import annotations

from enum import IntEnum


class ActionType(IntEnum):
    """Closed enumeration of real engagement actions; every event carries exactly one."""

    LIKE = 0
    COMMENT = 1
    POST_CLICK = 2
    SHARE = 3
    COMMENT_CLICK = 4
    COMMENT_LIKE = 5
    COMMENT_REACT = 6
    TIME_SPENT = 7
    VIEW = 8


# Reserved embedding-table ids that are not real actions: the CLS placeholder
# token and synthetic cold-start backfill events. Real events never carry these.
NULL_ACTION_ID = len(ActionType)          # 9: CLS / padding
BACKFILL_ACTION_ID = len(ActionType) + 1  # 10: synthetic backfill history

ACTION_VOCAB_SIZE = len(ActionType) + 2


def action_from_name(name: str) -> ActionType:
    if not isinstance(name, str):
        raise ValueError(f"action must be a string, got {name!r}")
    try:
        return ActionType[name.upper()]
    except KeyError:
        raise ValueError(f"unknown action type: {name!r}") from None
