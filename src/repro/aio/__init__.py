"""asyncio adapter for the channel algorithms."""

from .channel import AsyncChannel, ParkedOp, drive_async, drive_sync
from .select import on_receive, on_send, select_async

__all__ = [
    "AsyncChannel",
    "ParkedOp",
    "drive_async",
    "drive_sync",
    "select_async",
    "on_send",
    "on_receive",
]
