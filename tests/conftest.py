import pytest

from dsvs import fixture_path, load_lexicon
from dsvs import parser as parser_module


@pytest.fixture(scope="session")
def base_lex():
    return load_lexicon(fixture_path("paper_s4"))


@pytest.fixture(scope="session")
def split_lex():
    return load_lexicon(fixture_path("split_senses"))


@pytest.fixture(scope="session")
def traces_lex():
    return load_lexicon(fixture_path("traces"))


@pytest.fixture
def parser_contractions(monkeypatch):
    """The argument tuples of every contract call made through dsvs.parser
    from now on, the evaluator's and saturation's."""
    calls = []
    real = parser_module.contract

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(parser_module, "contract", counting)
    return calls
