"""Bundled lexicon files.

paper_s4.lexicon       four nouns, three one-place verbs, one two-place
                       verb, a relative pronoun; the worked-example counts
                       over the infant/nappy/pitch/goal property space.
split_senses.lexicon   same, but "dribble" split into a one-place leaking
                       sense and a two-place ball-control sense.
traces.lexicon         a tiny two-property lexicon used by the trace tests.

The files sit beside this module, so fixture_path reads this module's
directory and keeps nothing between calls.
"""

from pathlib import Path


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled lexicon, e.g. fixture_path("paper_s4")."""
    if not name.endswith(".lexicon"):
        name += ".lexicon"
    p = Path(__file__).parent / name
    if not p.is_file():
        raise FileNotFoundError(f"no bundled lexicon named {name!r}")
    return p
