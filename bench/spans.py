"""Outside-in tracing of dsvs: spans around calls into each module.

The tracer replaces public functions at every module binding they are
called through (`contract` is bound in dsvs.tensor, dsvs.parser,
dsvs.interpret and the package itself; `compile_root` also in dsvs.cli),
plus `Lexicon.lookup` and `Tensor.__post_init__` on their classes.  Nothing
inside the program changes; `uninstall` puts every original back.

Each call becomes one span: a name, a start, an end, the span that was
open when it began (its parent), the benchmark operation it belongs to and
up to three work counts read from its arguments and result.  Spans live in
flat arrays while the run lasts and are written out once at the end.  A
span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (defining module, function name); classes are handled separately below
FUNCTIONS = {
    "tensor": ("contract", "mu", "sum_tensors", "direct_sum", "unit_tensor"),
    "parser": ("parse_word", "parse_sequence", "advance_with_sense",
               "apply_computational", "apply_lexical", "apply_link",
               "saturate", "canonical_view", "initial_state"),
    "interpret": ("compile_root", "known_inhabitants", "underspec_tensor",
                  "plausibility", "score_candidate", "disambiguate", "expect"),
    "lexicon": ("load_lexicon", "tokenize"),
    "cli": ("main",),
}
BINDINGS = ("", "tensor", "parser", "interpret", "lexicon", "cli")


def _madds(args, result):
    """Multiply-adds of one contraction: the product of all involved dims."""
    a, b, pairs = args[0], args[1], args[2]
    n = 1
    for d in a.signature.dims:
        n *= d
    for d in b.signature.dims:
        n *= d
    for i, _ in pairs:
        n //= a.signature.dims[i]
    return (n,)


def _components(value) -> int:
    return len(value.components) if hasattr(value, "components") else 1


PROBES = {
    "tensor.contract": _madds,
    "tensor.direct_sum": lambda args, r: (len(r),),
    "parser.apply_computational": lambda args, r: (len(r),),
    "parser.apply_lexical": lambda args, r: (r is not None,),
    "parser.parse_word": lambda args, r: (
        len(args[0].candidates),
        len(r.candidates),
        max(len(c.tree.nodes) for c in r.candidates),
    ),
    "lexicon.Lexicon.lookup": lambda args, r: (len(r),),
    "interpret.known_inhabitants": lambda args, r: (len(r),),
    "interpret.compile_root": lambda args, r: (_components(r),),
}


class Tracer:
    """Collects spans; install() wraps, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.x = [array("q"), array("q"), array("q")]
        self.op_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, span_name: str):
        key = self.name_of.setdefault(span_name, len(self.names))
        if key == len(self.names):
            self.names.append(span_name)
        probe = PROBES.get(span_name.split(">", 1)[-1])
        stack = self._stack
        name, start, end, parent, op = self.name, self.start, self.end, self.parent, self.op
        x0, x1, x2 = self.x

        def traced(*args, **kwargs):
            i = len(start)
            name.append(key)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            x0.append(-1)
            x1.append(-1)
            x2.append(-1)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if probe is not None:
                for arr, v in zip((x0, x1, x2), probe(args, result)):
                    arr[i] = int(v)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, span_name: str) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, span_name))

    def install(self, dsvs) -> None:
        """Wrap every public function at every binding, and two methods."""
        modules = {b: getattr(dsvs, b) if b else dsvs for b in BINDINGS}
        for home, names in FUNCTIONS.items():
            for fname in names:
                original = getattr(modules[home], fname)
                for binding, module in modules.items():
                    if getattr(module, fname, None) is original:
                        via = binding or "dsvs"
                        self._replace(module, fname, f"{via}>{home}.{fname}")
        self._replace(dsvs.lexicon.Lexicon, "lookup", "lexicon>lexicon.Lexicon.lookup")
        self._replace(dsvs.tensor.Tensor, "__post_init__", "tensor>tensor.Tensor.__post_init__")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output ------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write the spans as one .npz file: arrays plus the name table."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            x0=np.frombuffer(self.x[0], dtype=np.int64),
            x1=np.frombuffer(self.x[1], dtype=np.int64),
            x2=np.frombuffer(self.x[2], dtype=np.int64),
        )


# ---------------------------------------------------------------------------
# per-layer metrics from spans


class Spans:
    """Read-only view of a tracer's spans with self times and ancestry."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.int32)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32)
        self.x = [np.frombuffer(a, dtype=np.int64) for a in tracer.x]
        self.dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(
            tracer.start, dtype=np.float64
        )
        child = np.zeros(len(self.dur))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def ids(self, func: str, via: str | None = None) -> list[int]:
        """Name ids of a function ("parser.parse_word"), optionally one binding."""
        return [
            k for k, n in enumerate(self.names)
            if n.split(">", 1)[1] == func and (via is None or n.split(">", 1)[0] == via)
        ]

    def mask(self, func: str, via: str | None = None) -> np.ndarray:
        return np.isin(self.name, self.ids(func, via))

    def calls(self, func: str, via: str | None = None) -> int:
        return int(self.mask(func, via).sum())

    def self_ms(self, func: str) -> float:
        return float(self.self_time[self.mask(func)].sum() * 1e3)

    def nearest(self, func: str) -> np.ndarray:
        """For each span, the index of its nearest enclosing `func` span, or -1.

        Parents always precede children, so one forward pass suffices.
        """
        is_func = self.mask(func)
        parent = self.parent.tolist()
        enclosing = [-1] * len(parent)
        for i, p in enumerate(parent):
            if p >= 0:
                enclosing[i] = p if is_func[p] else enclosing[p]
        return np.array(enclosing, dtype=np.int64)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(sp: Spans) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit)."""
    m: dict[str, tuple[float, str]] = {}

    loads = sp.dur[sp.mask("lexicon.load_lexicon")]
    m["lexicon.load_ms"] = (float(np.median(loads) * 1e3) if len(loads) else 0.0, "ms")
    m["lexicon.lookup_calls"] = (sp.calls("lexicon.Lexicon.lookup"), "count")

    pw = sp.mask("parser.parse_word")
    m["parser.parse_word_self_ms"] = (sp.self_ms("parser.parse_word"), "ms")
    ac = sp.mask("parser.apply_computational")
    m["parser.apply_computational_calls"] = (int(ac.sum()), "count")
    m["parser.apply_computational_self_ms"] = (sp.self_ms("parser.apply_computational"), "ms")
    m["parser.pointer_positions_per_call"] = (
        _ratio(float(sp.x[0][ac].sum()), int(ac.sum())), "count")
    al = sp.mask("parser.apply_lexical")
    m["parser.apply_lexical_calls"] = (int(al.sum()), "count")
    m["parser.apply_lexical_hit_ratio"] = (
        _ratio(float(sp.x[0][al].sum()), int(al.sum())), "ratio")
    m["parser.saturate_calls"] = (sp.calls("parser.saturate"), "count")
    m["parser.saturate_self_ms"] = (sp.self_ms("parser.saturate"), "ms")

    word_of = sp.nearest("parser.parse_word")
    contracts = sp.mask("tensor.contract")
    per_word = np.bincount(word_of[contracts & (word_of >= 0)], minlength=len(sp.name))[pw]
    m["parser.contract_per_word_p50"] = (
        float(np.median(per_word)) if len(per_word) else 0.0, "count")
    m["parser.contract_per_word_max"] = (int(per_word.max()) if len(per_word) else 0, "count")
    m["parser.candidates_per_word_max"] = (int(sp.x[1][pw].max()) if pw.any() else 0, "count")
    lookups = sp.mask("lexicon.Lexicon.lookup")
    senses_of_word = np.zeros(len(sp.name), dtype=np.int64)
    inner = lookups & (word_of >= 0)
    senses_of_word[word_of[inner]] = sp.x[0][inner]
    tried = float((sp.x[0][pw] * senses_of_word[pw]).sum())
    m["parser.candidates_pruned_ratio"] = (
        _ratio(tried - float(sp.x[1][pw].sum()), tried), "ratio")
    m["parser.tree_nodes_max"] = (int(sp.x[2][pw].max()) if pw.any() else 0, "count")

    cr = sp.mask("interpret.compile_root")
    m["interpret.compile_root_calls"] = (int(cr.sum()), "count")
    m["interpret.compile_root_self_ms"] = (sp.self_ms("interpret.compile_root"), "ms")
    ki = sp.mask("interpret.known_inhabitants")
    m["interpret.known_inhabitants_calls"] = (int(ki.sum()), "count")
    m["interpret.known_inhabitants_self_ms"] = (sp.self_ms("interpret.known_inhabitants"), "ms")
    m["interpret.inventory_size_max"] = (int(sp.x[0][ki].max()) if ki.any() else 0, "count")
    m["interpret.underspec_tensor_self_ms"] = (sp.self_ms("interpret.underspec_tensor"), "ms")
    m["interpret.contract_calls"] = (sp.calls("tensor.contract", via="interpret"), "count")
    ds = sp.mask("tensor.direct_sum")
    comps = np.concatenate([sp.x[0][ds], sp.x[0][cr]])
    m["interpret.direct_sum_components_max"] = (int(comps.max()) if len(comps) else 0, "count")
    m["interpret.plausibility_self_ms"] = (sp.self_ms("interpret.plausibility"), "ms")

    m["tensor.contract_calls"] = (int(contracts.sum()), "count")
    m["tensor.contract_self_ms"] = (sp.self_ms("tensor.contract"), "ms")
    m["tensor.contract_madds"] = (int(sp.x[0][contracts].sum()), "count")
    m["tensor.mu_calls"] = (sp.calls("tensor.mu"), "count")
    m["tensor.mu_self_ms"] = (sp.self_ms("tensor.mu"), "ms")
    m["tensor.sum_tensors_calls"] = (sp.calls("tensor.sum_tensors"), "count")
    m["tensor.tensor_new"] = (sp.calls("tensor.Tensor.__post_init__"), "count")

    mains = sp.mask("cli.main")
    main_of = sp.nearest("cli.main")
    m["cli.main_self_ms"] = (sp.self_ms("cli.main"), "ms")
    m["cli.compile_root_per_invocation"] = (
        _ratio(int((cr & (main_of >= 0)).sum()), int(mains.sum())), "count")
    return m
