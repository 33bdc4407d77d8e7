"""Exception hierarchy for the dsvs package.

Everything raised deliberately by this library derives from DsvsError, so
callers can catch one type at the boundary.  The CLI maps subclasses onto
exit codes: input that parses but cannot be analysed (DeadEnd, LexiconMiss)
exits 1, malformed files and bad usage exit 2.
"""


class DsvsError(Exception):
    """Base class for all errors raised by dsvs."""


# ---------------------------------------------------------------------------
# tensor layer


class SpaceMismatch(DsvsError):
    """Two slots were paired whose spaces differ."""


class SlotOutOfRange(DsvsError):
    """A slot index fell outside a tensor's signature."""


class DuplicateSlot(DsvsError):
    """The same slot was named twice in one contraction."""


class SignatureMismatch(DsvsError):
    """An operation needed identical signatures and got different ones."""


class EmptyList(DsvsError):
    """A sum or direct sum was asked for with no operands."""


class EmptySignature(DsvsError):
    """A unit tensor was requested over no spaces at all."""


class NonFiniteEntry(DsvsError, ValueError):
    """A tensor entry is infinite or NaN, as a float overflow leaves it."""


# ---------------------------------------------------------------------------
# lexicon layer


class ParseError(DsvsError):
    """A lexicon or corpus file is syntactically malformed."""


class ValidationError(DsvsError):
    """A lexicon file parsed but violates a consistency rule."""


class EmptyCorpus(DsvsError):
    """A count was requested over zero excerpts."""


# ---------------------------------------------------------------------------
# parsing layer


class LexiconMiss(DsvsError):
    """A surface token has no senses in the lexicon.

    Attributes:
        word: the offending token.
        position: 1-based index of the token in the input.
    """

    def __init__(self, word, position):
        super().__init__(f"no lexicon entry for {word!r} (word {position})")
        self.word = word
        self.position = position


class DeadEnd(DsvsError):
    """No parse candidate survives consumption of a token.

    Attributes:
        word: the token that killed every candidate.
        position: 1-based index of the token in the input.
    """

    def __init__(self, word, position):
        super().__init__(f"no parse survives {word!r} (word {position})")
        self.word = word
        self.position = position


# ---------------------------------------------------------------------------
# interpretation layer


class NoInhabitants(DsvsError):
    """No known tensor of the requested signature exists in the lexicon."""
