"""Byte-identical CLI output: every invocation of the fixed corpus in
cli_corpus.py against the SHA-256 recorded for it in cli_corpus.json."""

import pytest

import cli_corpus

TABLE = cli_corpus.load_table()


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return cli_corpus.write_inputs(tmp_path_factory.mktemp("corpus"))


def test_table_pins_the_corpus():
    """One recorded hash per invocation, in corpus order, and every exit code."""
    assert list(TABLE) == [name for name, _ in cli_corpus.INVOCATIONS]
    assert len(TABLE) >= 200


@pytest.mark.parametrize("name, argv", cli_corpus.INVOCATIONS,
                         ids=[name for name, _ in cli_corpus.INVOCATIONS])
def test_invocation(paths, name, argv):
    result = cli_corpus.run(argv, paths)
    assert cli_corpus.digest(argv, result) == TABLE[name], result
