"""Every function the benchmark's tracer wraps exists in the package.

perfbench/spans.py resolves each TARGETS entry with getattr when a traced
run starts, so a rename in the package would break traced runs only; this
test makes it fail here instead.
"""

import importlib.util
from pathlib import Path

import pytest

import pieces_lab

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: f"{t[0]}.{t[1]}")
def test_bench_target_resolves(target):
    mod_name, attr = target[:2]
    obj = getattr(pieces_lab, mod_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
