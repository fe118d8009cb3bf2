import types

import pytest

from seqbench.tracer import Span, Tracer, group_under, install, self_times


def span(id_, parent, name, start, end):
    s = Span(id_, parent, name, start)
    s.end = end
    return s


def test_self_time_subtracts_nested_children():
    spans = [span(0, None, "step", 0.0, 10.0),
             span(1, 0, "forward", 1.0, 4.0),
             span(2, 1, "mha", 1.5, 3.0),
             span(3, 0, "loss", 5.0, 9.0)]
    st = self_times(spans)
    assert st == pytest.approx({0: 3.0, 1: 1.5, 2: 1.5, 3: 4.0})


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, None, "parent", 0.0, 10.0),
             span(1, 0, "a", 1.0, 5.0),
             span(2, 0, "b", 3.0, 7.0),      # overlaps a on [3, 5]
             span(3, 0, "c", 6.0, 6.5),      # inside b
             span(4, 0, "d", 9.0, 12.0)]     # runs past the parent's end
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_parents_and_group_under_finds_roots():
    now = [0.0]

    def clock():
        now[0] += 1.0
        return now[0]

    tr = Tracer(clock)
    for _ in range(2):
        with tr.span("step"):
            with tr.span("fwd"):
                with tr.span("mha"):
                    pass
            with tr.span("loss"):
                pass
    with tr.span("eval"):
        pass
    names = [(s.name, s.parent) for s in tr.spans]
    assert names[:4] == [("step", None), ("fwd", 0), ("mha", 1), ("loss", 0)]
    groups = group_under(tr.spans, "step")
    assert sorted(groups) == [0, 4]
    assert [s.name for s in groups[4]] == ["fwd", "mha", "loss"]


def test_install_wraps_where_the_caller_looks_and_restores(monkeypatch):
    mod = types.ModuleType("fake_layer")
    mod.double = lambda x: 2 * x

    class Opt:
        def step(self, x):
            return x + 1

    mod.Opt = Opt
    monkeypatch.setitem(__import__("sys").modules, "fake_layer", mod)
    original = mod.double
    seen = []
    tr = Tracer()
    wraps = [("fake_layer", "double", "layer.double",
              lambda s, args, kwargs, result: seen.append((args, result))),
             ("fake_layer:Opt", "step", "optim.step", None)]
    with install(tr, wraps):
        assert mod.double(3) == 6
        assert Opt().step(1) == 2
    assert mod.double is original and "step" in vars(Opt)
    assert [s.name for s in tr.spans] == ["layer.double", "optim.step"]
    assert seen == [((3,), 6)]
    assert mod.Opt().step(1) == 2 and len(tr.spans) == 2


def test_install_restores_after_an_error(monkeypatch):
    mod = types.ModuleType("fake_err")
    mod.f = lambda: 1
    monkeypatch.setitem(__import__("sys").modules, "fake_err", mod)
    original = mod.f
    with pytest.raises(RuntimeError):
        with install(Tracer(), [("fake_err", "f", "f", None)]):
            raise RuntimeError
    assert mod.f is original
