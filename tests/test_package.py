"""The package's public export list and its zero-dependency start-up."""

import json
import os
import subprocess
import sys
from pathlib import Path

import treereg

SRC = Path(treereg.__file__).resolve().parents[1]

# Runs an enumeration and a one-process sweep in a bare interpreter, then a
# sweep with two workers, and lists, in the file named by its second
# argument, the modules loaded before and after that last sweep.
_PROBE = """
import sys
bare = set(sys.modules)
sys.path.insert(0, sys.argv[1])
out = sys.argv[2]
import os
sys.stdout = open(os.devnull, "w")
from treereg.cli import main
assert main(["enumerate", "--order", "3", "--codes-only"]) == 0
assert main(["verify", "--max-order", "3", "--jobs", "1",
             "--out", out + "/r.csv", "--violations", out + "/v.jsonl"]) == 0
serial = sorted(set(sys.modules) - bare)
assert main(["verify", "--max-order", "3", "--jobs", "2",
             "--out", out + "/r.csv", "--violations", out + "/v.jsonl"]) == 0
import json
with open(out + "/modules.json", "w") as f:
    json.dump({"serial": serial, "jobs": sorted(set(sys.modules) - bare)}, f)
"""


PUBLIC_API = [
    "BettiTable",
    "BoundSet",
    "Graph",
    "IndependentSetCertificate",
    "InvariantRecord",
    "MatchingCertificate",
    "TreeWitness",
    "Violation",
    "WhiskerVector",
    "betti_table",
    "canonical_code",
    "count_trees",
    "enumerate_trees",
    "evaluate_bounds",
    "from_edge_list",
    "graph_from_code",
    "independence_number",
    "induced_matching_number",
    "multi_whisker",
    "path_graph",
    "record_for_tree",
    "regularity",
    "tree_from_code",
    "verify_record",
]


def test_the_export_list_is_the_public_api():
    # test-only builders and oracles live in tests/conftest.py, not here
    assert sorted(treereg.__all__) == PUBLIC_API


def test_the_benchmark_imports_resolve():
    # perfbench's setup, oracle and seeded-input units import these names
    from treereg import from_edge_list, homology, induced_matching_number, path_graph

    for fn in (from_edge_list, homology.betti_table, induced_matching_number, path_graph):
        assert callable(fn)


def test_every_exported_name_resolves():
    # A stale string in __all__ breaks only `from treereg import *`.
    missing = []
    for name in treereg.__all__:
        try:
            getattr(treereg, name)
        except AttributeError:
            missing.append(name)
    assert missing == []


def test_enumerate_and_verify_load_only_the_standard_library(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    subprocess.run([sys.executable, "-S", "-c", _PROBE, str(SRC), str(tmp_path)],
                   env=env, check=True, timeout=120)
    loaded = json.loads((tmp_path / "modules.json").read_text())
    serial, jobs = set(loaded["serial"]), set(loaded["jobs"])
    assert "treereg.census" in serial
    foreign = [
        name for name in jobs
        if name.partition(".")[0] not in sys.stdlib_module_names
        and name.partition(".")[0] != "treereg"
    ]
    assert foreign == []
    # a one-process sweep starts no worker, a worker is a plain fork whose
    # results are pickled, and a run id needs no uuid
    assert {"multiprocessing", "pickle", "uuid"} & serial == set()
    assert {"multiprocessing", "uuid"} & jobs == set()
    assert "pickle" in jobs
