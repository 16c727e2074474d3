"""Checks of the workload generators (no sirsql needed).

    python3 -m pytest perfbench/test_workloads.py
"""

import hashlib
import itertools
import sqlite3

from workloads import WORKLOADS, SupplierParts

OPS_CHECKED = 400


def workload_text(name: str, seed: int) -> bytes:
    """Set-up text plus the first operations' text, as the program sees it."""
    workload = WORKLOADS[name](seed)
    ops = itertools.islice(workload.ops(), OPS_CHECKED)
    parts = workload.setup_texts() + [f"{op.kind}:{op.text}" for op in ops]
    return "\n".join(parts).encode()


def test_same_seed_gives_identical_text():
    for name in sorted(WORKLOADS):
        first = hashlib.sha256(workload_text(name, 7)).hexdigest()
        second = hashlib.sha256(workload_text(name, 7)).hexdigest()
        assert first == second, name


def test_different_seeds_give_different_text():
    for name in sorted(WORKLOADS):
        assert workload_text(name, 7) != workload_text(name, 8), name


def test_model_weight_rounding_matches_the_kernel():
    # the model computes WEIGHT_KG with Python's round(); the kernel with SQLite's
    model = SupplierParts(1, n_s=1, n_p=400, n_sp=0, computed=True)
    weights = sorted({int(row[2]) for row in model.p.values()})
    with sqlite3.connect(":memory:") as db:
        for weight in weights:
            kernel = db.execute("SELECT round(? / 2.1, 1)", (str(weight),)).fetchone()[0]
            assert kernel == round(weight / 2.1, 1), weight
    db.close()
