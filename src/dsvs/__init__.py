"""Incremental semantic parsing with tensor-valued plausibility.

Sentences are analysed word by word: each token grows a typed tree whose
leaves hold tensors over small labelled vector spaces and whose internal
nodes fill in by contraction.  Unheard material is stood in for by unit,
summed, or componentwise tensors, so an unfinished prefix already has a
plausibility score, live ambiguities can be ranked mid-sentence, and
candidate next words can be compared before they arrive.

The package exports the pipeline a caller drives and the errors it
raises; every other name, such as `dsvs.tensor.Tensor` or
`dsvs.parser.Tree`, is imported from the module that defines it.
"""

from .errors import (
    DeadEnd,
    DsvsError,
    DuplicateSlot,
    EmptyCorpus,
    EmptyList,
    EmptySignature,
    LexiconMiss,
    NoInhabitants,
    NonFiniteEntry,
    ParseError,
    SignatureMismatch,
    SlotOutOfRange,
    SpaceMismatch,
    ValidationError,
)
from .interpret import compile_root, disambiguate, expect, plausibility
from .lexicon import fixture_path, load_lexicon
from .parser import initial_state, parse_sequence, parse_word

__version__ = "0.1.0"
