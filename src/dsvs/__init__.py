"""Incremental semantic parsing with tensor-valued plausibility.

Sentences are analysed word by word: each token grows a typed tree whose
leaves hold tensors over small labelled vector spaces and whose internal
nodes fill in by contraction.  Unheard material is stood in for by unit,
summed, or componentwise tensors, so an unfinished prefix already has a
plausibility score, live ambiguities can be ranked mid-sentence, and
candidate next words can be compared before they arrive.
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
from .interpret import (
    STRATEGIES,
    ExpectEntry,
    PlausibilityScore,
    compile_root,
    disambiguate,
    expect,
    known_inhabitants,
    plausibility,
    require_stand_ins,
    score_candidate,
    underspec_tensor,
)
from .lexicon import (
    BOTTOM,
    TOP,
    CorpusExcerpt,
    Lexicon,
    Sense,
    build_cooccurrence,
    build_verb_matrix,
    fixture_path,
    load_lexicon,
    parse_excerpts,
    read_corpus,
    save_lexicon,
    tokenize,
)
from .parser import (
    Candidate,
    Node,
    ParseState,
    Tree,
    apply_computational,
    apply_lexical,
    apply_link,
    axiom,
    canonical_view,
    initial_state,
    parse_sequence,
    parse_word,
    render,
    saturate,
)
from .semtypes import (
    E,
    SemType,
    SpaceMap,
    T,
    application_slot,
    fn,
    parse_type,
    signature_of,
)
from .tensor import (
    Signature,
    Space,
    Tensor,
    TensorTuple,
    contract,
    direct_sum,
    mu,
    sum_tensors,
    unit_tensor,
)

__version__ = "0.1.0"
