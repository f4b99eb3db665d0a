"""Exception hierarchy shared across the toolkit.

Three branches map onto CLI exit codes: UsageError -> 2, DataError -> 3,
EndpointError -> 4.
"""

from __future__ import annotations


class MatprocError(Exception):
    """Base class for all toolkit errors."""


class UsageError(MatprocError):
    """Bad invocation: unknown command, conflicting configuration."""


class DataError(MatprocError):
    """Input data violates a contract."""


class EndpointError(MatprocError):
    """A configured external endpoint failed or is unreachable."""


# --- provenance parsing / compilation ---------------------------------------

class MalformedDocument(DataError):
    """Document is not a parseable provenance record."""


class EmptyRecord(DataError):
    """Record parsed to zero activities."""


class CyclicPrecedence(DataError):
    """Inferred activity precedence contains a cycle."""


class InvalidParams(DataError):
    """Synthetic-corpus parameters are out of range."""


# --- benchmark generation ----------------------------------------------------

class EmptyCorpus(DataError):
    """Candidate pools or a split requested over an empty corpus."""


class RetentionFilterFailed(DataError):
    """Graph lacks an activity or a precursor and is not instantiable."""


class PoolExhausted(DataError):
    """Not enough distinct distractors; the item is skipped, not fatal."""


# --- splitting ---------------------------------------------------------------

class EmptyTestPartition(DataError):
    """Contamination requested against a test partition with no DOIs."""


class UncoveredItem(DataError):
    """A split assigns no partition to an item of the question set."""


# --- process memory ----------------------------------------------------------

class EmptyTrainSet(DataError):
    """Memory build requested over zero training graphs."""


class EmptyLibrary(DataError):
    """Step matching requested against an empty step library."""


class EmptyMemory(DataError):
    """Retrieval requested against a memory with no processes."""


# --- retrieval / scoring -----------------------------------------------------

class EmbeddingDimensionMismatch(DataError):
    """A stored memory vector does not have the query side's dimension."""


class ArityMismatch(DataError):
    """Score fusion given vectors of different option arity."""


# --- runner ------------------------------------------------------------------

class ClientTimeout(EndpointError):
    """Chat endpoint did not answer within the configured retries."""


class MissingContext(DataError):
    """Prompt mode invoked without its required inputs."""


class UnknownItemId(DataError):
    """External predictions name an item the bench does not hold."""


class InvalidGridAxis(UsageError):
    """Ablation grid asked for an axis that does not exist."""


class UnknownCommand(UsageError):
    """CLI dispatch got an unrecognized subcommand."""


class ConfigConflict(UsageError):
    """Config file carries keys the run configuration does not define."""
