"""Benchmark tooling: the names perfbench uses from the package exist.

``perfbench/traced_cli.py`` replaces program functions with span-recording
wrappers by module and attribute name. A renamed or deleted function would
only surface when a traced benchmark run crashes, so each entry is resolved
here, and a siamese ``train`` must reach each ``mzembed.siamese`` entry
through that module. The table is read from the file, not edited. The
names the other perfbench scripts import from the package are read from
their source and resolved the same way.

Also: no package module imports a name it never reads, none but
``data/types.py`` reads ``Spectrum.fragments`` peak by peak, none but
``encoder.py`` calls ``encode_batch`` other than for training, none
but ``embed/features.py`` and ``encoder.py`` compares a ``.kind``,
none but ``properties.py`` names a label-scaler record, and none calls
``search_embedding`` or ``top_k`` once per loop iteration. Every
package module parses at the oldest Python that ``pyproject.toml``
names in ``requires-python``.
"""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mzembed"
TRACED_CLI = PERFBENCH / "traced_cli.py"


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


def _catches_import_error(node):
    return isinstance(node, ast.Try) and any(
        isinstance(h.type, ast.Name) and h.type.id in ("ImportError", "ModuleNotFoundError")
        for h in node.handlers
    )


def perfbench_imports():
    """(module, dotted name) for each name perfbench takes from the package:
    every ``from mzembed... import name``, and every ``name.attr`` read
    from such a name. Imports guarded by ``except ImportError`` are
    optional and left out."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        imported = {}

        def visit(node, optional):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mzembed"):
                if not optional:
                    for alias in node.names:
                        imported[alias.asname or alias.name] = (node.module, alias.name)
            guarded = _catches_import_error(node)
            for child in ast.iter_child_nodes(node):
                visit(child, optional or (guarded and child in node.body))

        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree, False)
        found.update(imported.values())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in imported:
                module_name, name = imported[node.value.id]
                found.add((module_name, f"{name}.{node.attr}"))
    return sorted(found)


PERFBENCH_IMPORTS = perfbench_imports()


def test_perfbench_imports_are_found():
    # run.py records the kernel backend on every run; traced runs score
    # the reference kernel directly.
    assert ("mzembed.kernels", "BACKEND") in PERFBENCH_IMPORTS
    assert ("mzembed.kernels", "_reference.score_modified_cosine") in PERFBENCH_IMPORTS
    assert not [name for _, name in PERFBENCH_IMPORTS if name.startswith("_matching")]


@pytest.mark.parametrize("module_name,name", PERFBENCH_IMPORTS)
def test_perfbench_import_resolves(module_name, name):
    first, *rest = name.split(".")
    owner = importlib.import_module(module_name)
    if not hasattr(owner, first):
        importlib.import_module(f"{module_name}.{first}")
    owner = getattr(owner, first)
    for part in rest:
        owner = getattr(owner, part)


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


def test_siamese_train_calls_the_wrapped_siamese_names(tmp_path, monkeypatch):
    # A call that bypasses the module attribute (a moved call site, or a
    # name bound at import) would leave its span empty without failing.
    import mzembed.siamese
    from mzembed.cli import main
    from test_cli import common_args, run_prepare, write_inputs

    paths = write_inputs(tmp_path)
    assert run_prepare(paths) == 0
    calls = {}

    def counting(name, real):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        return counted

    for module_name, attr, _, _ in WRAPPERS:
        if module_name == "mzembed.siamese":
            monkeypatch.setattr(mzembed.siamese, attr, counting(attr, getattr(mzembed.siamese, attr)))
    assert main(["train", "--mode", "siamese", *common_args(paths)]) == 0
    # The test config: 2 epochs of one 8-pair step, and two held-out
    # splits (known, novel), each with its own bins and pair sample.
    assert calls == {
        "encode_batch": 2,
        "apply_step": 2,
        "build_similarity_bins": 1 + 2,
        "sample_uniform_pairs": 2 + 2,
        "_pair_mse": 2 * 2,
    }


def test_train_encode_calls_the_wrapped_encoder_names(monkeypatch):
    # The encoder.* spans wrap the forward's building blocks on the
    # encoder module; a forward that reached them another way would leave
    # those spans empty without failing. On the pool, the backward's
    # recompute of a slot-count group must reach them too.
    import threading

    import numpy as np

    import mzembed.encoder
    from conftest import toy_spectrum
    from mzembed.encoder import EncoderConfig, encode_batch, encode_workers, init_weights
    from mzembed.rng import stream_rng

    calls, lock = {}, threading.Lock()

    def counting(name, real):
        def counted(*args, **kwargs):
            with lock:
                calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        return counted

    for module_name, attr, _, _ in WRAPPERS:
        if module_name == "mzembed.encoder" and attr != "encode_batch":
            monkeypatch.setattr(mzembed.encoder, attr, counting(attr, getattr(mzembed.encoder, attr)))
    cfg = EncoderConfig(d=8, layers=2, heads=2, inner_dim=8, dropout=0.2, max_fragments=16)
    rng = np.random.default_rng(0)
    spectra = [toy_spectrum(f"s{i}", "m", rng, n_peaks=(n, n + 1)) for i, n in enumerate((4, 7, 4))]
    weights = init_weights(cfg, seed=0)

    def per_group(groups):
        layer_groups = cfg.layers * groups
        return {
            "layer_norm": 2 * layer_groups,
            "multi_head_attention": layer_groups,
            "feed_forward": layer_groups,
        }

    encode_batch(spectra, cfg, weights, mode="train", rng=stream_rng(0, "dropout", 0))
    assert calls == per_group(2)  # slot counts 5, 8, 5: two groups
    calls.clear()
    with encode_workers(2):
        out = encode_batch(spectra, cfg, weights, mode="train", rng=stream_rng(0, "dropout", 0))
        assert calls == per_group(2)
        out.sum().backward()
    assert calls == per_group(2 + 1)  # the second group, recomputed


def unused_imports(source, package_init=False):
    """(line, name) of each name a module's source imports and never
    reads. A name a package ``__init__`` lists in ``__all__`` is a
    re-export, not unused."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if package_init:
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets
            ):
                read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_no_unused_import(path):
    source = path.read_text(encoding="utf-8")
    assert unused_imports(source, package_init=path.name == "__init__.py") == []


def test_unused_import_check_sees_one():
    source = """
from __future__ import annotations
import numpy as np
from .tensor import Node, concat, dropout as drop
__all__ = ["concat"]

def f(x: Node):
    return np.asarray(x)
"""
    assert unused_imports(source) == [(4, "concat"), (4, "drop")]
    assert unused_imports(source, package_init=True) == [(4, "drop")]


def fragment_peak_reads(source):
    """(line, code) of each read of a ``.fragments`` attribute other than
    ``len(...fragments)`` and ``...fragments.mz``/``.intensity``: indexing
    it, iterating it (for loops, comprehensions, ``max``/``sum``/``zip``
    over it) or handing it on, each of which builds a Peak per fragment."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr == "fragments"):
            continue
        parent = parents[node]
        if isinstance(parent, ast.Attribute) and parent.attr in ("mz", "intensity"):
            continue
        if isinstance(parent, ast.Call) and getattr(parent.func, "id", None) == "len":
            continue
        found.append((node.lineno, ast.unparse(parent)))
    return sorted(found)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.rglob("*.py") if p != PACKAGE / "data" / "types.py"),
    ids=lambda p: str(p.relative_to(PACKAGE)),
)
def test_fragments_are_read_as_arrays(path):
    # Spectrum.fragments is two arrays; only data/types.py builds Peaks of it.
    assert fragment_peak_reads(path.read_text(encoding="utf-8")) == []


def test_fragment_peak_check_sees_each_kind():
    source = """
def f(spectrum, other, cfg):
    n = len(spectrum.fragments) + cfg.max_fragments
    top = spectrum.fragments.intensity.max() + other.fragments.mz[0]
    first = spectrum.fragments[0]
    for peak in other.fragments:
        pass
    heights = [p.intensity for p in spectrum.fragments]
    biggest = max(p.intensity for p in other.fragments)
    pairs = list(zip(spectrum.fragments, other.fragments))
    kept = spectrum.fragments
"""
    assert [line for line, _ in fragment_peak_reads(source)] == [5, 6, 8, 9, 10, 10, 11]


def inference_encode_batch_calls(source):
    """(line, code) of each ``encode_batch`` call that does not pass
    ``mode="train"``: an inference encode outside ``encode_many`` and
    ``encode_spectrum``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if getattr(node.func, "id", getattr(node.func, "attr", None)) != "encode_batch":
            continue
        modes = [k.value for k in node.keywords if k.arg == "mode"]
        if not (len(modes) == 1 and isinstance(modes[0], ast.Constant) and modes[0].value == "train"):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.rglob("*.py") if p != PACKAGE / "encoder.py"),
    ids=lambda p: str(p.relative_to(PACKAGE)),
)
def test_encode_batch_is_called_only_to_train(path):
    # Inference goes through encode_many or encode_spectrum, the one
    # inference path; only encoder.py calls encode_batch to infer.
    assert inference_encode_batch_calls(path.read_text(encoding="utf-8")) == []


def test_inference_encode_check_sees_each_kind():
    source = """
def f(spectra, cfg, weights, rng, mode):
    a = encode_batch(spectra, cfg, weights, mode="train", rng=rng)
    b = encoder.encode_batch(spectra, cfg, weights, mode="train", rng=rng)
    c = encode_batch(spectra, cfg, weights)
    d = encoder.encode_batch(spectra, cfg, weights, mode="infer")
    e = encode_batch(spectra, cfg, weights, mode=mode, rng=rng)
"""
    assert [line for line, _ in inference_encode_batch_calls(source)] == [5, 6, 7]


def kind_comparisons(source):
    """(line, code) of each comparison with a ``.kind`` attribute on
    either side: a branch on the peak embedding kind."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and any(
            isinstance(side, ast.Attribute) and side.attr == "kind"
            for side in (node.left, *node.comparators)
        ):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


KIND_OWNERS = (PACKAGE / "embed" / "features.py", PACKAGE / "encoder.py")


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.rglob("*.py") if p not in KIND_OWNERS),
    ids=lambda p: str(p.relative_to(PACKAGE)),
)
def test_kind_is_compared_only_by_its_owners(path):
    # features.py embeds m/z for each kind and encoder.py lays out each
    # kind's weights; every other module calls them.
    assert kind_comparisons(path.read_text(encoding="utf-8")) == []


def test_kind_check_sees_each_compare():
    source = """
def f(cfg, kind):
    a = cfg.kind == "sin"
    b = "token" != cfg.encoder.kind
    c = kind == "sin"
    d = cfg.kind in ("sin", "token")
    e = cfg.kind
"""
    assert [line for line, _ in kind_comparisons(source)] == [3, 4, 6]


def scaler_literals(source):
    """(line, text) of each string literal naming a label-scaler record."""
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith("scaler.")
    )


SCALER_OWNER = PACKAGE / "properties.py"


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.rglob("*.py") if p != SCALER_OWNER),
    ids=lambda p: str(p.relative_to(PACKAGE)),
)
def test_scaler_records_are_named_only_by_their_owner(path):
    # properties.py lays out the scaler's checkpoint records
    # (SCALER_SHAPES) and writes and reads them; every other module
    # goes through it.
    assert scaler_literals(path.read_text(encoding="utf-8")) == []


def test_scaler_check_sees_each_literal():
    source = """
def f(records, name):
    a = records.pop("scaler.mean")
    b = {"scaler.std": 1}
    c = "scaler" + ".mean"
    d = f"scaler.{name}"
    e = name.startswith("scaler.")
"""
    assert scaler_literals(source) == [
        (3, "scaler.mean"), (4, "scaler.std"), (6, "scaler."), (7, "scaler."),
    ]


RANKERS = {"search_embedding", "top_k"}


def _repeated_parts(node):
    """The parts of a loop or comprehension that run once per iteration.
    A ``for`` loop's iterable and a comprehension's first iterable run
    once, so they are left out."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [*node.body, *node.orelse]
    if isinstance(node, ast.While):
        return [node.test, *node.body, *node.orelse]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        parts = [node.elt]
    elif isinstance(node, ast.DictComp):
        parts = [node.key, node.value]
    else:
        return []
    first, *rest = node.generators
    return parts + first.ifs + [part for g in rest for part in (g.iter, *g.ifs)]


def calls_in_loops(source, names):
    """(line, code) of each call of a function in ``names`` that runs
    once per iteration of a loop or comprehension: a caller doing one
    item at a time what the function does for a block."""
    found = set()
    for loop in ast.walk(ast.parse(source)):
        for part in _repeated_parts(loop):
            for node in ast.walk(part):
                if not isinstance(node, ast.Call):
                    continue
                if getattr(node.func, "id", getattr(node.func, "attr", None)) in names:
                    found.add((node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_ranking_is_one_call_per_block(path):
    # search_embedding and top_k rank a block of queries in one call;
    # no caller loops over its queries to rank them.
    assert calls_in_loops(path.read_text(encoding="utf-8"), RANKERS) == []


def test_ranking_loop_check_sees_each_kind():
    source = """
def f(queries, index, scores, ids):
    a = search_embedding(queries, index, 1, ids)
    for q in queries:
        b = search_embedding(q[None], index, 1, ["q"])
    c = [top_k(s[None], ids, 1) for s in scores]
    d = [r.hits for r in search_embedding(queries, index, 1, ids)]
    e = {i: search.top_k(s[None], ids, 1) for i, s in enumerate(scores)}
    for r in search_embedding(queries, index, 1, ids):
        pass
    while queries:
        queries = top_k(scores, ids, 1)
    g = [x for s in scores for x in top_k(s[None], ids, 1)]
    h = [s for s in scores if search_embedding(s[None], index, 1, ids)]
"""
    assert [line for line, _ in calls_in_loops(source, RANKERS)] == [5, 6, 8, 12, 13, 14]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_tanimoto_is_scored_per_block(path):
    # tanimoto_many scores a block of fingerprint pairs in one call; no
    # caller loops over its pairs to score them with tanimoto.
    assert calls_in_loops(path.read_text(encoding="utf-8"), {"tanimoto"}) == []


def test_tanimoto_loop_check_sees_each_kind():
    source = """
def f(molecules, pairs, bits):
    a = tanimoto_many(bits[0], bits)
    for x, y in pairs:
        b = tanimoto(molecules[x], molecules[y])
    c = [siamese.tanimoto(x, y) for x, y in pairs]
    d = [tanimoto_many(bits[i], bits[i:]) for i in range(len(bits))]
    e = {x: tanimoto(x, y) for x, y in pairs}
    for t in tanimoto_many(bits, bits):
        pass
    while pairs:
        pairs = tanimoto(bits[0], bits[1])
    g = [p for p in pairs if tanimoto(*p)]
"""
    assert [line for line, _ in calls_in_loops(source, {"tanimoto"})] == [5, 6, 8, 12, 13]


def oldest_python():
    """The (major, minor) of pyproject.toml's ``requires-python = ">=X.Y"``."""
    text = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    assert match, "pyproject.toml names no lowest Python version"
    return int(match[1]), int(match[2])


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_parses_on_the_oldest_supported_python(path):
    # Syntax only: a library call added in a later version goes unseen.
    ast.parse(path.read_text(encoding="utf-8"), feature_version=oldest_python())


def test_oldest_python_check_refuses_newer_syntax():
    # except* came with Python 3.11.
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    assert oldest_python() < (3, 11)
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse(source, feature_version=oldest_python())
    ast.parse(source, feature_version=(3, 11))
