"""Benchmark tooling: the tracing wrapper table names functions that exist.

``perfbench/traced_cli.py`` replaces program functions with span-recording
wrappers by module and attribute name. A renamed or deleted function would
only surface when a traced benchmark run crashes, so each entry is resolved
here. The table is read from the file, not edited.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


def load_traced_cli():
    spec = importlib.util.spec_from_file_location("perfbench_traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPERS = load_traced_cli().WRAPPERS


@pytest.mark.parametrize("module_name,attr", [(m, a) for m, a, _, _ in WRAPPERS])
def test_wrapped_name_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_encode_span_arguments():
    # The encode span reads cfg.max_fragments from the second positional
    # argument and the mode from the keyword arguments.
    from mzembed.encoder import EncoderConfig, encode_batch

    params = list(inspect.signature(encode_batch).parameters.values())
    assert params[1].annotation in (EncoderConfig, "EncoderConfig")
    mode = inspect.signature(encode_batch).parameters["mode"]
    assert mode.kind is inspect.Parameter.KEYWORD_ONLY


def test_pair_mse_span_arguments():
    # The pair-MSE span counts the pairs it finds in the first positional
    # argument.
    from mzembed.siamese import PairSample, _pair_mse

    params = list(inspect.signature(_pair_mse).parameters.values())
    assert params[0].name == "pairs"
    assert params[0].annotation in (list[PairSample], "list[PairSample]")
    pairs = [PairSample("a", "b", 0.5), PairSample("a", "c", 0.25)]
    counts = load_traced_cli()._pair_mse_counts((pairs, {}), {}, 0.0)
    assert counts == {"n": 4, "unique": 3}
