"""Deterministic sieve-based coreference resolution for biomedical standoff text."""

from .detection import (
    AnaphorCandidate,
    Cardinality,
    TriggerDictionary,
    cardinality_of,
    classify_mutant_np,
    default_lexicon,
    detect_candidates,
    load_lexicon,
)
from .grounding import GroundingTable, default_table, load_table, normalize
from .model import (
    CompletedEvent,
    CorefLink,
    Document,
    EntityMention,
    EventArg,
    EventMention,
    MalformedInput,
    MutationRecord,
    SchemaViolation,
    Sentence,
    Token,
)
from .resolver import Resolution, ResolverConfig, resolve_document
from .schema import ArgSchema, SchemaMissing, default_schema, load_schema
from .sieves import SIEVE_ORDER, CorefState
from .standoff import load_document, load_result, save_result

__all__ = [
    "AnaphorCandidate",
    "ArgSchema",
    "Cardinality",
    "CompletedEvent",
    "CorefLink",
    "CorefState",
    "Document",
    "EntityMention",
    "EventArg",
    "EventMention",
    "GroundingTable",
    "MalformedInput",
    "MutationRecord",
    "Resolution",
    "ResolverConfig",
    "SIEVE_ORDER",
    "SchemaMissing",
    "SchemaViolation",
    "Sentence",
    "Token",
    "TriggerDictionary",
    "cardinality_of",
    "classify_mutant_np",
    "default_lexicon",
    "default_schema",
    "default_table",
    "detect_candidates",
    "load_document",
    "load_lexicon",
    "load_result",
    "load_schema",
    "load_table",
    "normalize",
    "resolve_document",
    "save_result",
]

__version__ = "0.1.0"
