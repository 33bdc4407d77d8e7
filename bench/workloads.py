"""The four closed-loop workloads and their exact-reference checks.

Each workload runs items one after another from a single thread; the next
call starts only when the previous one has returned.  Running an item
times every library call it makes into named sample lists and returns the
call outputs in a plain form.  `expected` gives the same outputs from the
exact reference in bench/exact.py, computed after the timed region.

Op outputs and what they are checked on:

    word     parse_word: every candidate's senses, in order, and the root
             vector of each finished tree
    rank     disambiguate: (senses, top, bottom, ratio) in ranked order
    expect   expect: (word, sense, top, bottom, ratio) in ranked order,
             dead senses last with no score
    cli      one `python -m dsvs.cli` process: exit code 0 and its stdout;
             parse JSON is checked on rank, senses, completeness, root and
             score of every candidate, text output line for line
    main     dsvs.cli.main(argv) in this process, stdout captured: the
             same checks
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from time import perf_counter

import exact


def _score(s) -> tuple:
    return (s.top, s.bottom, s.ratio)


def word_output(state) -> str:
    return repr([
        (c.senses, c.tree.nodes[c.tree.root].formula.tolist() if c.tree.is_complete() else None)
        for c in state.candidates
    ])


def rank_output(ranked) -> str:
    return repr([(c.senses, _score(s)) for c, s in ranked])


def expect_output(entries) -> str:
    return repr([(e.word, e.sense_id, None if e.score is None else _score(e.score))
                 for e in entries])


class Runner:
    """Shared plumbing: the program under test, sample lists, a reference."""

    # which sample lists feed the gated primary/secondary latencies
    primary = ""
    secondary = ""

    def __init__(self, dsvs, workload, lexicon_paths: dict, root):
        self.dsvs = dsvs
        self.workload = workload
        self.paths = lexicon_paths
        self.root = root
        self.samples: dict[str, list[float]] = {}
        self.words = 0
        self.lexicons = {k: dsvs.load_lexicon(p) for k, p in lexicon_paths.items()}

    def timed(self, metric: str, fn, *args, **kwargs):
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        self.samples.setdefault(metric, []).append(perf_counter() - t0)
        return result

    def reference(self, name="main") -> exact.Parser:
        return exact.Parser(self.workload.lexicons[name])

    # check ------------------------------------------------------------------

    @staticmethod
    def finalize(kind: str, raw, wrap: bool) -> str:
        """The reference output of one op, in the form the op output takes."""
        if kind == "word":
            return repr([
                (senses, None if root is None else
                 [exact.wrap64(x) for x in root] if wrap else root)
                for senses, root in raw
            ])
        if kind == "rank":
            return repr(exact.ranked(raw, wrap))
        if kind == "expect":
            return repr(exact.expect_entries(raw, wrap))
        raise ValueError(kind)


class RelChain(Runner):
    """parse_word through long chains; rank every finished prefix with sum."""

    primary, secondary = "word", "rank"

    def run(self, sentence, out: list) -> None:
        lex = self.lexicons["main"]
        state = self.dsvs.initial_state()
        for i, word in enumerate(sentence):
            state = self.timed("word", self.dsvs.parse_word, state, word, lex)
            self.words += 1
            out.append(("word", word_output(state)))
            if (i + 1) % 3 == 0:
                ranked = self.timed("rank", self.dsvs.disambiguate, state, lex, "sum")
                out.append(("rank", rank_output(ranked)))

    def expected(self, sentence) -> list:
        ref = self.reference()
        cands = ref.initial()
        out = []
        for i, word in enumerate(sentence):
            cands = ref.parse_word(cands, word)
            out.append(("word", ref.word_output(cands)))
            if (i + 1) % 3 == 0:
                out.append(("rank", ref.disambiguate(cands)))
        return out


class Prefix(Runner):
    """Parse a short prefix, rank it with direct_sum, then expect with sum."""

    primary, secondary = "expect", "rank"

    def run(self, item, out: list) -> None:
        prefix, cands = item
        lex = self.lexicons["main"]
        state = self.dsvs.initial_state()
        for word in prefix:
            state = self.timed("word", self.dsvs.parse_word, state, word, lex)
            self.words += 1
            out.append(("word", word_output(state)))
        ranked = self.timed("rank", self.dsvs.disambiguate, state, lex, "direct_sum")
        out.append(("rank", rank_output(ranked)))
        entries = self.timed("expect", self.dsvs.expect, state, cands, lex, "sum")
        out.append(("expect", expect_output(entries)))

    def expected(self, item) -> list:
        prefix, words = item
        ref = self.reference()
        cands = ref.initial()
        out = []
        for word in prefix:
            cands = ref.parse_word(cands, word)
            out.append(("word", ref.word_output(cands)))
        out.append(("rank", ref.disambiguate(cands)))
        out.append(("expect", ref.expect(cands, words)))
        return out


class Ambig(Runner):
    """parse_word then disambiguate(sum) after every word; expect midway."""

    primary, secondary = "word", "rank"

    def run(self, item, out: list) -> None:
        sentence, mid, cands = item
        lex = self.lexicons["main"]
        state = self.dsvs.initial_state()
        for i, word in enumerate(sentence):
            state = self.timed("word", self.dsvs.parse_word, state, word, lex)
            self.words += 1
            out.append(("word", word_output(state)))
            ranked = self.timed("rank", self.dsvs.disambiguate, state, lex, "sum")
            out.append(("rank", rank_output(ranked)))
            if i + 1 == mid:
                entries = self.timed("expect", self.dsvs.expect, state, cands, lex, "sum")
                out.append(("expect", expect_output(entries)))

    def expected(self, item) -> list:
        sentence, mid, words = item
        ref = self.reference()
        cands = ref.initial()
        out = []
        for i, word in enumerate(sentence):
            cands = ref.parse_word(cands, word)
            out.append(("word", ref.word_output(cands)))
            out.append(("rank", ref.disambiguate(cands)))
            if i + 1 == mid:
                out.append(("expect", ref.expect(cands, words)))
        return out


class Cli(Runner):
    """One dsvs.cli subprocess per item, then the same argv in-process."""

    primary, secondary = "cli", "main"

    def __init__(self, *args, subprocesses: bool = True, **kwargs):
        super().__init__(*args, **kwargs)
        self.subprocesses = subprocesses
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))

    def argv(self, item) -> list[str]:
        tail, lexicon = item
        return [tail[0], "--lexicon", str(self.paths[lexicon]), *tail[1:]]

    def _main(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.dsvs.cli.main(argv)
        return code, buf.getvalue()

    def run(self, item, out: list) -> None:
        argv = self.argv(item)
        kind = item[0][0]
        if self.subprocesses:
            proc = self.timed(
                "cli", subprocess.run, [sys.executable, "-m", "dsvs.cli", *argv],
                env=self.env, cwd=self.root, capture_output=True, text=True,
            )
            out.append(("cli", self.parse_stdout(kind, proc.returncode, proc.stdout)))
        code, stdout = self.timed("main", self._main, argv)
        out.append(("main", self.parse_stdout(kind, code, stdout)))

    @staticmethod
    def parse_stdout(kind: str, code: int, stdout: str) -> str:
        if code != 0:
            return repr(("exit", code))
        if kind == "parse":
            doc = json.loads(stdout)
            return repr([
                (c["rank"], tuple(c["senses"]), c["complete"], c["root"],
                 (c["score"]["top"], c["score"]["bottom"], c["score"]["ratio"]))
                for c in doc["candidates"]
            ])
        return repr(stdout.splitlines())

    def expected(self, item) -> list:
        (tail, lexicon) = item
        ref = self.reference(lexicon)
        kinds = (["cli"] if self.subprocesses else []) + ["main"]
        if tail[0] == "expect":
            cands = ref.initial()
            for word in tail[2].split():
                cands = ref.parse_word(cands, word)
            raw = ("expect", ref.expect(cands, tail[4].split(",")), None)
        else:
            cands = ref.initial()
            for word in tail[-1].split():
                cands = ref.parse_word(cands, word)
            raw = (tail[0], [(c.senses, ref.root(c), c.shape.finished()) for c in cands],
                   ref.lexicon.sentence_name)
        return [(k, raw) for k in kinds]

    @staticmethod
    def finalize(kind, raw, wrap) -> str:
        return repr(Cli._expected_stdout(raw, wrap))

    @staticmethod
    def _expected_stdout(raw, wrap):
        sub, data, space = raw
        if sub == "expect":
            lines, rank = [], 0
            for word, sid, s in exact.expect_entries(data, wrap):
                if s is None:
                    lines.append(f"-. {word} ({sid or '?'})  no parse")
                else:
                    rank += 1
                    lines.append(f"{rank}. {word} ({sid})  ratio = {s[2]:.4f}")
            return lines
        finished = {senses: done for senses, _, done in data}
        roots = {senses: root for senses, root, _ in data}
        ranked = exact.ranked([(senses, root) for senses, root, _ in data], wrap)
        if sub == "parse":
            return [
                (k, senses, finished[senses],
                 [exact.wrap64(x) for x in roots[senses]] if wrap else roots[senses], s)
                for k, (senses, s) in enumerate(ranked, start=1)
            ]
        return [
            f"{k}. {' '.join(senses)}  root {space} = ({s[0]}, {s[1]})  ratio = {s[2]:.4f}"
            for k, (senses, s) in enumerate(ranked, start=1)
        ]


RUNNERS = {"relchain": RelChain, "relchain-long": RelChain, "prefix": Prefix, "ambig": Ambig,
           "cli": Cli}
