"""Exception hierarchy for the tiered metadata store."""


class TierMetaError(Exception):
    """Base class for all store errors."""


class InvalidPathError(TierMetaError, ValueError):
    """Path fails validation (not absolute, empty, or contains whitespace/NUL);
    a ValueError too, as any bad field of a record line is."""


class PathExistsError(TierMetaError):
    """Create target already present in the hot or cold tier."""


class NotFoundError(TierMetaError):
    """Path present in neither tier."""


class NotInHotTierError(NotFoundError):
    """Operation requires a hot-tier record; path is cold or absent."""


class FileTooLargeError(TierMetaError):
    """File would need more blocks than a single file may hold."""


class EmptyStoreError(TierMetaError):
    """Mean access count is undefined for an empty hot tier."""


class ColdStoreWriteFailureError(TierMetaError):
    """An append to the cold file failed; the file and its index are unchanged."""


class CorruptImageError(TierMetaError):
    """Checkpoint image is unreadable (bad header, count mismatch, bad line)."""


class CorruptLogError(TierMetaError):
    """Edits log is unreadable or internally inconsistent."""


class OutOfOrderEditError(TierMetaError):
    """Appended edit does not advance the log's tick."""


class CompactionAbortedError(TierMetaError):
    """Cold-store compaction failed; the original file is intact."""


class MalformedTraceError(TierMetaError):
    """Trace file has a syntactically or semantically invalid line."""


class InvalidSpecError(TierMetaError):
    """Workload specification has out-of-range parameters."""
