"""Messages the harness delivers between actors.

Actors dispatch on these types; the payload types they carry are imported
for annotations only, so any module can import this one without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .actors import Query, SignedResponse
    from .contract import Receipt


@dataclass(frozen=True)
class QueryMsg:
    query: Query


@dataclass(frozen=True)
class ResponseMsg:
    response: SignedResponse


@dataclass(frozen=True)
class ForwardMsg:
    response: SignedResponse


@dataclass(frozen=True)
class ReceiptMsg:
    token: int
    receipt: Receipt


@dataclass(frozen=True)
class CompensationMsg:
    insurance_id: int
    amount: int


@dataclass(frozen=True)
class EventListRequest:
    epoch: int


def fetch_tick(epoch: int, update_epoch_blocks: int, t_fin: int) -> int:
    """The tick at which a maintaining client holding `epoch` requests the
    membership records of epoch-1 (`EventListRequest`)."""
    return epoch * update_epoch_blocks + t_fin + 1


@dataclass(frozen=True)
class EventListMsg:
    epoch: int
    events: tuple[tuple[int, bytes], ...]
