"""Checkpointing layer: capture strategies, compression, coordination,
the disk-full baseline, Remus comparator, and adaptive scheduling."""

from .adaptive import AdaptiveDecision, AdaptivePolicy
from .base import (
    CaptureOutcome,
    CaptureSpec,
    CaptureStrategy,
    CheckpointCycleResult,
    CheckpointProtocol,
    Unrecoverable,
)
from .compression import (
    NO_COMPRESSION,
    CompressedDelta,
    CompressionModel,
    compress_delta,
    compressed_size,
)
from .coordinator import CoordinatedCheckpoint
from .diskful import DiskfulCheckpointer, DiskfulRecoveryReport
from .remus import RemusEpochStats, RemusModel, RemusPair
from .strategies import ForkedCapture, FullCapture, IncrementalCapture

__all__ = [
    "CaptureSpec",
    "CaptureStrategy",
    "CaptureOutcome",
    "CheckpointCycleResult",
    "CheckpointProtocol",
    "Unrecoverable",
    "FullCapture",
    "IncrementalCapture",
    "ForkedCapture",
    "CompressionModel",
    "CompressedDelta",
    "compress_delta",
    "compressed_size",
    "NO_COMPRESSION",
    "CoordinatedCheckpoint",
    "DiskfulCheckpointer",
    "DiskfulRecoveryReport",
    "RemusModel",
    "RemusPair",
    "RemusEpochStats",
    "AdaptivePolicy",
    "AdaptiveDecision",
]
