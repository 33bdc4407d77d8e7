"""The benchmark's tracer (bench/spans.py) wraps dsvs functions by name.

A renamed or deleted function would otherwise surface only in a traced
benchmark run, so check here that every name it lists resolves in its home
module, that installing wraps it, and that uninstalling puts back every
original binding.
"""

from pathlib import Path

import dsvs
import dsvs.cli  # spans.BINDINGS includes the cli module

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_wraps_every_listed_function_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    modules = {b: getattr(dsvs, b) if b else dsvs for b in spans.BINDINGS}
    for home, names in spans.FUNCTIONS.items():
        missing = [n for n in names if not callable(getattr(modules[home], n, None))]
        assert not missing, f"dsvs.{home} lacks {missing}"
    bindings = {(b, n): getattr(m, n) for b, m in modules.items()
                for names in spans.FUNCTIONS.values() for n in names if hasattr(m, n)}
    methods = {(cls, n): getattr(cls, n)
               for cls, n in ((dsvs.lexicon.Lexicon, "lookup"),
                              (dsvs.tensor.Tensor, "__post_init__"))}

    tracer = spans.Tracer()
    tracer.install(dsvs)
    try:
        for home, names in spans.FUNCTIONS.items():
            for n in names:
                wrapped = getattr(modules[home], n)
                assert wrapped.__wrapped__ is bindings[home, n], f"{home}.{n}"
        for (cls, n), original in methods.items():
            assert getattr(cls, n).__wrapped__ is original
    finally:
        tracer.uninstall()

    for (b, n), original in bindings.items():
        assert getattr(modules[b], n) is original, f"{b or 'dsvs'}.{n}"
    for (cls, n), original in methods.items():
        assert getattr(cls, n) is original
