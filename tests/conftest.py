"""Shared synthetic-data builders and the acceptance summary hook."""

import gc
import os
import types

import numpy as np
import pytest

# pyproject.toml puts src/ on this process's path only; tests that start
# a fresh interpreter (python -m mzembed.cli) need it in the environment.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

from mzembed.data import MoleculeRecord, Peak, Spectrum
from mzembed.embed import normalize_intensities


def toy_molecule(structure_id, rng, n_bits=64, density=0.3):
    fingerprint = (rng.random(n_bits) < density).astype(np.uint8)
    properties = rng.normal(0.0, 2.0, 10)
    return MoleculeRecord(
        structure_id=structure_id, fingerprint=fingerprint, properties=properties
    )


def toy_spectrum(
    spectrum_id,
    structure_id,
    rng,
    n_peaks=(6, 12),
    mz_range=(80.0, 900.0),
    normalize=True,
    mz_decimals=4,
):
    n = int(rng.integers(*n_peaks))
    mz = np.sort(rng.uniform(*mz_range, n))
    mz = np.round(mz, mz_decimals)
    intensity = rng.uniform(0.05, 1.0, n)
    fragments = tuple(Peak(float(m), float(v)) for m, v in zip(mz, intensity))
    spectrum = Spectrum(
        id=spectrum_id,
        precursor=Peak(float(np.round(rng.uniform(900.0, 1100.0), mz_decimals)), 1.0),
        fragments=fragments,
        structure_id=structure_id,
        mz_decimals=(mz_decimals,) * (n + 1),
    )
    return normalize_intensities(spectrum) if normalize else spectrum


def toy_dataset(n_structures=5, spectra_per=4, seed=42, **spectrum_kw):
    """Labeled spectra plus their molecule records."""
    rng = np.random.default_rng(seed)
    molecules = {
        f"m{i}": toy_molecule(f"m{i}", rng) for i in range(n_structures)
    }
    spectra = [
        toy_spectrum(f"s{i}_{j}", f"m{i}", rng, **spectrum_kw)
        for i in range(n_structures)
        for j in range(spectra_per)
    ]
    return spectra, molecules


def bin_one(spectrum, bin_width, max_mz):
    """One spectrum's binned vector, binned on its own: the reference
    that every row of ``bin_spectra`` must equal bit for bit."""
    n_bins = round(max_mz / bin_width)
    mz, intensity = spectrum.fragment_arrays()
    idx = np.floor(mz / bin_width)
    inside = idx < n_bins
    out = np.zeros(n_bins, dtype=np.float64)
    np.add.at(out, idx[inside].astype(np.intp), intensity[inside])
    np.minimum(out, 1.0, out=out)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def no_cycle_collector():
    """Only reference counting frees objects within the test."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


# ------------------------------------------------------------------
# Autodiff graph inspection
# ------------------------------------------------------------------


def graph_nodes(root):
    """Every graph node reachable from ``root``, a tensor or a node:
    through node parents, and through the nodes a backward function
    holds, directly or in a list or tuple (the encoder's units' graphs).
    Anything else a backward holds, a pending recompute included, is not
    entered."""
    from mzembed.tensor import Node

    seen, stack, nodes = set(), [getattr(root, "_node", root)], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node.parents)
        stack.extend(v for v in closure_values(node) if isinstance(v, Node))
    return nodes


def closure_values(node):
    """What the node's backward function holds: the contents of its
    closure cells, with lists and tuples unpacked one level."""
    values = []
    for cell in getattr(node.backward, "__closure__", None) or ():
        value = cell.cell_contents
        values.extend(value if isinstance(value, (list, tuple)) else [value])
    return values


def saved_arrays(node):
    """The arrays the node's backward function keeps."""
    return [v for v in closure_values(node) if isinstance(v, np.ndarray)]


def held_arrays(root, stop=None):
    """Every array a graph holds: those reachable from tensor ``root``'s
    node through node parents and backward functions, following closures
    into nested functions, lists, tuples and dicts. The walk does not
    enter the node ``stop``."""
    from mzembed.tensor import Node

    seen, stack, arrays = {id(stop)}, [root._node], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, Node):
            stack.extend(obj.parents)
            stack.append(obj.backward)
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
    return arrays


# ------------------------------------------------------------------
# Acceptance reporting: one pass/fail line per numbered criterion.
# ------------------------------------------------------------------

_ACCEPTANCE_RESULTS = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py::test_criterion_" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1].split("[")[0]
    if report.when == "call":
        _ACCEPTANCE_RESULTS[name] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _ACCEPTANCE_RESULTS[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        number = int(name.split("_")[2])
        outcome = _ACCEPTANCE_RESULTS[name]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        label = name.split("_", 3)[3].replace("_", " ")
        terminalreporter.write_line(f"criterion {number:2d} [{verdict}] {label}")
