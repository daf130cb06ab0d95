"""Self-time arithmetic and the outside-in wrapping of a package."""

import importlib
import sys
import types

import pytest

import tracer as tracing


def span(name, start, end, parent=-1, request=0):
    return [name, start, end, parent, request]


def test_covered_merges_overlaps():
    assert tracing.covered([(1, 3), (2, 5), (7, 8)]) == 5
    assert tracing.covered([(0, 10), (2, 3)]) == 10
    assert tracing.covered([]) == 0


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 3.0, parent=0),
        span("b", 2.0, 5.0, parent=0),  # overlaps its sibling
        span("c", 9.0, 12.0, parent=0),  # runs past the parent's end
        span("d", 1.5, 2.5, parent=1),  # grandchild: not subtracted from "a" again
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_summarize_counts_calls_and_does_not_double_count_recursion():
    spans = [span("f", 0.0, 4.0), span("f", 1.0, 2.0, parent=0), span("g", 5.0, 6.0)]
    out = tracing.summarize(spans)
    assert out["f"] == {"calls": 2, "s": 4.0, "self_s": pytest.approx(4.0)}
    assert out["g"]["calls"] == 1
    assert tracing.group(spans, lambda n: n in ("f", "g")) == (3, 5.0)


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "low.py").write_text(
        "def kernel(x):\n    return x + 1\n\n"
        "def helper(x):\n    return kernel(x) * 2\n"
    )
    (pkg / "high.py").write_text(
        "from . import low as _low\n"
        "from .low import kernel\n\n"
        "def solve(x):\n    return _low.helper(x) + kernel(x)\n\n"
        "def _private(x):\n    return x\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    yield importlib.import_module("fakepkg"), importlib.import_module("fakepkg.high")
    for name in [n for n in sys.modules if n.startswith("fakepkg")]:
        del sys.modules[name]


def test_install_wraps_every_binding_and_uninstall_restores(fake_package):
    pkg, high = fake_package
    original = high.kernel
    tr = tracing.Tracer()
    tr.install(pkg)
    try:
        tr.request = 7
        assert high.solve(1) == 6
    finally:
        tr.uninstall()
    names = [s[tracing.NAME] for s in tr.spans]
    # helper's internal call to kernel and high's from-import binding are both caught
    assert names == ["high.solve", "low.helper", "low.kernel", "low.kernel"]
    assert [s[tracing.PARENT] for s in tr.spans] == [-1, 0, 1, 0]
    assert {s[tracing.REQUEST] for s in tr.spans} == {7}
    assert "high._private" not in names
    assert high.kernel is original
    high.solve(1)
    assert len(tr.spans) == 4


def test_tally_and_classmethod_wrapping(monkeypatch):
    empty = types.ModuleType("emptypkg")
    monkeypatch.setitem(sys.modules, "emptypkg", empty)

    class Model:
        @classmethod
        def load(cls, n):
            return n

        def sample(self, rng, size):
            return size

    tr = tracing.Tracer()
    tr.install(empty, methods=[(Model, "load", "m.load"), (Model, "sample", "m.sample")],
               tallies={"m.sample": lambda a, k: ("m.draws", a[2])})
    try:
        assert Model.load(3) == 3
        assert Model().sample(None, 5) == 5
    finally:
        tr.uninstall()
    assert [s[tracing.NAME] for s in tr.spans] == ["m.load", "m.sample"]
    assert tr.counts["m.draws"] == 5
    assert isinstance(Model.__dict__["load"], classmethod)
    assert Model.load(4) == 4 and len(tr.spans) == 2
