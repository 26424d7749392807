"""Messages the harness delivers between actors.

Actors dispatch on these types; the payload types they carry are imported
for annotations only, so any module can import this one without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import codec

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


@dataclass(frozen=True)
class EventListMsg:
    """A provider's answer to one `EventListRequest`: the membership records
    of `epoch` and its signature over (epoch, root of those records), so a
    list that leaves a record out is slashable evidence
    (`contract.ListEvidence`)."""

    epoch: int
    events: tuple[tuple[int, bytes], ...]
    root: bytes
    provider_pk: bytes
    signature: bytes

    def payload(self) -> bytes:
        return codec.event_list_payload(self.epoch, self.root)
