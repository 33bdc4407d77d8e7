"""Command line front end.

    dsvs lexicon build --corpus DIR --targets FILE --contexts FILE --out FILE
    dsvs parse [--lexicon FILE] [--strategy S] [--trace] [--format F] "words"
    dsvs disambiguate [--lexicon FILE] [--strategy S] "words"
    dsvs expect [--lexicon FILE] [--strategy S] --after "words" --candidates w1,w2

The lexicon file may also come from the DSVS_LEXICON environment variable.
Strategies: unit, sum (default), direct_sum.  The targets file for lexicon
build lists one entry per line, "word kind" with kind e (entity vector from
co-occurrence counts) or et (one-place verb matrix); the contexts file
lists the property words, one per line.  Lines starting with # are skipped
in both.  A listed word is read as corpus text is (lowercased, edge
punctuation stripped), so "Milk," counts the corpus's "milk"; a line whose
word holds no token ("--") and a word that repeats after that reading
exit 2.

Exit status: 0 on success, 1 when the input cannot be analysed (unknown
word, no surviving parse), 2 for bad usage (such as an expect candidate
list that holds no word, or repeats one once tokenized), malformed files,
input nested too deeply for Python's recursion limit (a sentence whose
tree is too deep for the JSON writer, a type spelling too long to read),
or a lexicon with no stand-in for some requirement a parse can leave open
under the chosen strategy, refused before any output.

main may be called many times in one process.  Every call loads its
lexicon file anew and builds its own stand-ins.  What carries over
between calls is the argument parser and caches no output depends on:
interned semantic types, signature_of's memo, contraction plans, stacked
signatures and formula templates, the last four of at most 1,024 entries
each.  So a call's output depends only on its arguments and the lexicon
file's bytes.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring
from math import isfinite

from .errors import DeadEnd, DsvsError, LexiconMiss, ParseError
from .interpret import STRATEGIES, disambiguate, expect, require_stand_ins
from .lexicon import (
    BOTTOM,
    TOP,
    Lexicon,
    Sense,
    build_cooccurrence,
    build_verb_matrix,
    load_lexicon,
    read_corpus,
    read_text,
    save_lexicon,
    tokenize,
)
from .parser import canonical_view, initial_state, parse_sequence, parse_word
from .parser import render as render_tree
from .semtypes import SpaceMap, parse_type
from .tensor import Signature, Space, Tensor

ENV_LEXICON = "DSVS_LEXICON"


@functools.cache
def _build_argparser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process.

    parse_args keeps nothing between calls, so one parser serves every
    main call; nothing may change it after it is built."""
    top = argparse.ArgumentParser(
        prog="dsvs",
        description="incremental semantic parsing with tensor plausibility",
    )
    sub = top.add_subparsers(dest="command", required=True)

    lex = sub.add_parser("lexicon", help="lexicon file utilities")
    lex_sub = lex.add_subparsers(dest="subcommand", required=True)
    build = lex_sub.add_parser("build", help="count a lexicon out of a corpus")
    build.add_argument("--corpus", required=True, help="directory of *.txt files")
    build.add_argument("--targets", required=True,
                       help="file of 'word kind' lines, kind e or et")
    build.add_argument("--contexts", required=True,
                       help="file of property words, one per line")
    build.add_argument("--out", required=True, help="lexicon file to write")
    build.set_defaults(run=_cmd_lexicon_build)

    def common(p):
        p.add_argument("--lexicon", default=None,
                       help=f"lexicon file (default: ${ENV_LEXICON})")
        p.add_argument("--strategy", choices=STRATEGIES, default="sum",
                       help="stand-in for unheard material (default: sum)")

    parse = sub.add_parser("parse", help="parse a word sequence")
    common(parse)
    parse.add_argument("--trace", action="store_true",
                       help="show the tree after every word")
    parse.add_argument("--format", choices=("text", "json"), default="text")
    parse.add_argument("words", help="the words, in one quoted argument")
    parse.set_defaults(run=_cmd_parse)

    dis = sub.add_parser("disambiguate", help="rank a sequence's live parses")
    common(dis)
    dis.add_argument("words", help="the words, in one quoted argument")
    dis.set_defaults(run=_cmd_disambiguate)

    exp = sub.add_parser("expect", help="rank candidate next words")
    common(exp)
    exp.add_argument("--after", required=True,
                     help="the words already heard, in one quoted argument")
    exp.add_argument("--candidates", required=True,
                     help="comma-separated candidate next words")
    exp.set_defaults(run=_cmd_expect)
    return top


def _need_lexicon(args) -> Lexicon:
    """The lexicon to score with, refused if some requirement a parse can
    leave open has no stand-in under the chosen strategy."""
    path = args.lexicon or os.environ.get(ENV_LEXICON)
    if not path:
        raise ParseError(
            f"no lexicon given: pass --lexicon or set ${ENV_LEXICON}"
        )
    lexicon = load_lexicon(path)
    require_stand_ins(lexicon, args.strategy)
    return lexicon


def _root_line(score, lexicon) -> str:
    name = lexicon.space_map.sentence.name
    return f"root {name} = ({score.top}, {score.bottom})  ratio = {score.ratio:.4f}"


def _tree_json(tree, i: int | None = None) -> dict:
    """A node (the root by default) and everything under it, as JSON.

    Recursive at module level: a recursive closure would form a reference
    cycle and keep the tree alive until the cycle collector runs.
    """
    if i is None:
        i = tree.root
    n = tree.nodes[i]
    o: dict = {
        "type": n.sem_type.compact(),
        "requirement": n.requirement,
    }
    if n.formula is not None:
        o["formula"] = n.formula  # _write_json spells it as its tolist()
    if i == tree.pointer:
        o["pointer"] = True
    if n.argument is not None:
        o["argument"] = _tree_json(tree, n.argument)
    if n.functor is not None:
        o["functor"] = _tree_json(tree, n.functor)
    if n.link is not None:
        o["link"] = _tree_json(tree, n.link)
    return o


@functools.lru_cache(maxsize=1024)
def _formula_template(shape: tuple, indent: str) -> str:
    """The text _write_json writes for the nested lists of an array of
    that shape at indent, with one %r slot per entry in row-major order:
    %r spells a tolist() entry, a Python int or float, as int.__repr__
    and float.__repr__ do.  No dim is 0: every space has a basis label."""
    text = "%r"
    for depth in reversed(range(len(shape))):
        inner = indent + "  " * (depth + 1)
        text = "[" + inner + ("," + inner).join([text] * shape[depth]) + inner[:-2] + "]"
    return text


def _write_json(o, indent: str, put) -> None:
    """Put o's JSON text, as json.dumps(o, ensure_ascii=False, indent=2)
    spells it, piece by piece; indent is the newline and indentation that
    o's own line starts with.  json's encoder goes through its pure-Python
    path whenever indent is set; this writer does the same job in about
    a quarter of the time.  A NaN or infinite float raises ValueError, as with
    allow_nan=False: no dsvs/1 document holds one, since tensors and
    scores refuse non-finite values.

    A Tensor is written as its tolist() would be: its entries fill the
    template _formula_template keeps for its shape and indent in one
    string format, instead of a walk of its nested lists; they are
    finite, as every Tensor's are."""
    if isinstance(o, str):
        put(encode_basestring(o))
    elif isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, value in o.items():  # encode_basestring refuses a non-str key
            put(sep + encode_basestring(key) + ": ")
            _write_json(value, inner, put)
            sep = "," + inner
        put(indent + "}")
    elif isinstance(o, Tensor):
        arr = o.array
        put(_formula_template(arr.shape, indent) % tuple(arr.ravel().tolist()))
    elif isinstance(o, (list, tuple)):
        if not o:
            put("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for value in o:
            put(sep)
            _write_json(value, inner, put)
            sep = "," + inner
        put(indent + "]")
    elif o is None:
        put("null")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif isinstance(o, int):
        put(int.__repr__(o))
    elif isinstance(o, float):
        if not isfinite(o):
            raise ValueError("Out of range float values are not JSON compliant")
        put(float.__repr__(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _json_text(doc) -> str:
    """json.dumps(doc, ensure_ascii=False, indent=2), written directly, with
    each Tensor in doc written as its tolist() would be."""
    out: list[str] = []
    _write_json(doc, "\n", out.append)
    return "".join(out)


def _candidate_json(rank, candidate, score) -> dict:
    return {
        "rank": rank,
        "senses": list(candidate.senses),
        "complete": candidate.tree.is_complete(),
        "root": [score.top, score.bottom],
        "score": {"top": score.top, "bottom": score.bottom, "ratio": score.ratio},
        "tree": _tree_json(canonical_view(candidate.tree)),
    }


def _cmd_parse(args) -> int:
    lexicon = _need_lexicon(args)
    words = tokenize(args.words)
    state = initial_state()
    trace = []
    for word in words:
        state = parse_word(state, word, lexicon)
        if args.trace:
            ranked = disambiguate(state, lexicon, args.strategy)
            trace.append((word, len(state.consumed), ranked))
    final_ranked = trace[-1][2] if trace else disambiguate(state, lexicon, args.strategy)

    if args.format == "json":
        doc = {
            "schema": "dsvs/1",
            "words": list(words),
            "strategy": args.strategy,
            "candidates": [
                _candidate_json(k + 1, c, s)
                for k, (c, s) in enumerate(final_ranked)
            ],
        }
        if args.trace:
            doc["trace"] = [
                {
                    "word": word,
                    "position": pos,
                    "candidates": len(ranked),
                    "tree": _tree_json(canonical_view(ranked[0][0].tree)),
                }
                for word, pos, ranked in trace
            ]
        print(_json_text(doc))
        return 0

    if args.trace:
        for word, pos, ranked in trace:
            n = len(ranked)
            plural = "candidate" if n == 1 else "candidates"
            print(f"word {pos}: {word}  ({n} {plural})")
            print(render_tree(canonical_view(ranked[0][0].tree)))
            print()

    best, score = final_ranked[0]
    if not trace:  # else the last trace block showed this tree
        print(render_tree(canonical_view(best.tree)))
    print(_root_line(score, lexicon))
    return 0


def _cmd_disambiguate(args) -> int:
    lexicon = _need_lexicon(args)
    state = parse_sequence(tokenize(args.words), lexicon)
    ranked = disambiguate(state, lexicon, args.strategy)
    for k, (cand, score) in enumerate(ranked, start=1):
        print(f"{k}. {' '.join(cand.senses)}  {_root_line(score, lexicon)}")
    return 0


def _cmd_expect(args) -> int:
    words = tokenize(args.candidates.replace(",", " "))
    if not words:
        raise ParseError(f"--candidates lists no word: {args.candidates!r}")
    for i, word in enumerate(words):
        if word in words[:i]:
            raise ParseError(f"--candidates repeats {word!r}: {args.candidates!r}")
    lexicon = _need_lexicon(args)
    state = parse_sequence(tokenize(args.after), lexicon)
    entries = expect(state, words, lexicon, args.strategy)
    rank = 0
    for e in entries:
        if e.score is None:
            label = e.sense_id or "?"
            print(f"-. {e.word} ({label})  no parse")
        else:
            rank += 1
            print(f"{rank}. {e.word} ({e.sense_id})  ratio = {e.score.ratio:.4f}")
    return 0


def _read_word_list(path, targets: bool) -> list:
    """The entries of a contexts file (one word a line) or, if targets, of
    a targets file ("word kind" a line, kind e or et), in file order:
    words, or (word, kind) pairs.

    Blank lines and lines starting with # are skipped.  A listed word is
    read as corpus text is, through tokenize, and must come out as one
    token.  A line is checked for its shape, then its kind, then for
    repeating an earlier entry; a bad line or a file that lists nothing
    raises ParseError naming the file.
    """
    first_line = {}  # entry -> the line that listed it
    text = read_text(path, "targets file" if targets else "contexts file")
    for lineno, line in enumerate(text.split("\n"), start=1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        word = tokenize(fields[0])
        if len(fields) != (2 if targets else 1) or len(word) != 1:
            shape = "'word kind'" if targets else "one word"
            raise ParseError(f"{path}:{lineno}: expected {shape} per line")
        entry, label = word[0], repr(word[0])
        if targets:
            kind = fields[1]
            if kind not in ("e", "et"):
                raise ParseError(
                    f"{path}:{lineno}: kind must be e or et, got {kind!r}"
                    + (": two-place tensors cannot be counted from a plain corpus"
                       if kind == "eet" else "")
                )
            entry, label = (entry, kind), f"'{entry} {kind}'"
        if entry in first_line:
            raise ParseError(f"{path}:{lineno}: {label} repeats line {first_line[entry]}")
        first_line[entry] = lineno
    if not first_line:
        raise ParseError(f"{path}: lists no {'target' if targets else 'context word'}")
    return list(first_line)


def _cmd_lexicon_build(args) -> int:
    excerpts = read_corpus(args.corpus)
    if not excerpts:
        raise ParseError(f"{args.corpus}: holds no excerpt")
    contexts = _read_word_list(args.contexts, targets=False)
    targets = _read_word_list(args.targets, targets=True)

    w_space = Space("W", tuple(contexts))
    smap = SpaceMap(entity=w_space, sentence=Space("S", (TOP, BOTTOM)))

    noun_words = [w for w, kind in targets if kind == "e"]
    noun_rows = {}
    if noun_words:
        counts = build_cooccurrence(excerpts, noun_words, contexts)
        noun_rows = dict(zip(noun_words, counts.array))

    senses = []
    for word, kind in targets:
        if kind == "e":
            tensor = Tensor(Signature((w_space,)), noun_rows[word])
            senses.append(Sense(f"{word}#n", word, parse_type("e"), tensor))
        else:
            matrix = build_verb_matrix(excerpts, word, contexts)
            senses.append(Sense(f"{word}#v", word, parse_type("et"), matrix))

    lexicon = Lexicon(smap, tuple(senses))
    save_lexicon(lexicon, args.out)
    print(f"wrote {args.out}: {len(senses)} senses over {len(excerpts)} excerpts")
    return 0


def main(argv=None) -> int:
    parser = _build_argparser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.run(args)
    except (DsvsError, OSError) as e:
        print(f"dsvs: {e}", file=sys.stderr)
        return 1 if isinstance(e, (LexiconMiss, DeadEnd)) else 2
    except RecursionError:
        print("dsvs: input nested too deeply to process", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
