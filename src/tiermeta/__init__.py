"""Tiered filesystem-metadata store.

A hot in-memory namespace of file records with a threshold-triggered
separation policy that spills rarely used records to an append-only cold
file and promotes them back on access. Includes a deterministic workload
generator, experiment reports, and a small line-protocol TCP service.
"""

from .coldstore import ColdStore
from .editlog import EditsLog, OpEvent, parse_op_line
from .errors import (
    ColdStoreWriteFailureError,
    CompactionAbortedError,
    CorruptImageError,
    CorruptLogError,
    EmptyStoreError,
    FileTooLargeError,
    InvalidPathError,
    InvalidSpecError,
    MalformedTraceError,
    NotFoundError,
    NotInHotTierError,
    OutOfOrderEditError,
    PathExistsError,
    TierMetaError,
)
from .fsimage import load_fsimage, save_fsimage
from .metrics import ExperimentReport, MetricsRecorder, SeparationEvent, build_report, write_csv, write_jsonl
from .namespace import (
    BlockInfo,
    HotStore,
    LogicalClock,
    MetadataRecord,
    estimate_memory,
    split_blocks,
    validate_path,
)
from .recordio import decode_record, encode_record
from .server import MetadataServer, open_store, serve
from .tiering import TieredStore, TieringConfig, partition_records
from .workload import WorkloadSpec, generate_trace, replay

__version__ = "0.1.0"

__all__ = [
    "BlockInfo",
    "ColdStore",
    "ColdStoreWriteFailureError",
    "CompactionAbortedError",
    "CorruptImageError",
    "CorruptLogError",
    "EditsLog",
    "EmptyStoreError",
    "ExperimentReport",
    "FileTooLargeError",
    "HotStore",
    "InvalidPathError",
    "InvalidSpecError",
    "LogicalClock",
    "MalformedTraceError",
    "MetadataRecord",
    "MetadataServer",
    "MetricsRecorder",
    "NotFoundError",
    "NotInHotTierError",
    "OpEvent",
    "OutOfOrderEditError",
    "PathExistsError",
    "SeparationEvent",
    "TierMetaError",
    "TieredStore",
    "TieringConfig",
    "WorkloadSpec",
    "build_report",
    "decode_record",
    "encode_record",
    "estimate_memory",
    "generate_trace",
    "load_fsimage",
    "open_store",
    "parse_op_line",
    "partition_records",
    "replay",
    "save_fsimage",
    "serve",
    "split_blocks",
    "validate_path",
    "write_csv",
    "write_jsonl",
]
