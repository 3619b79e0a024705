"""Self-time arithmetic and installation of the tracer, on synthetic code.

Run with: python3 -m pytest perfbench/test_tracer.py
"""

import sys
import types

import pytest

from tracer import Tracer, install


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tr = Tracer(clock)
    fns = {}

    def leaf():
        clock.advance(2)

    def mid():
        clock.advance(1)
        fns["leaf"]()
        clock.advance(3)
        fns["leaf"]()

    def root():
        clock.advance(5)
        fns["mid"]()
        clock.advance(1)
        return "done"

    fns.update(leaf=tr.wrap("leaf", leaf), mid=tr.wrap("mid", mid),
               root=tr.wrap("root", root, count=lambda a, k, v: len(v)))
    assert fns["root"]() == "done"
    stats = tr.stats
    assert (stats["leaf"].calls, stats["leaf"].self_s) == (2, 4)
    assert (stats["mid"].calls, stats["mid"].self_s) == (1, 4)
    assert (stats["root"].calls, stats["root"].self_s) == (1, 6)
    assert stats["root"].extra == 4
    assert clock.now == sum(s.self_s for s in stats.values())


def test_generator_charged_only_while_running():
    clock = FakeClock()
    tr = Tracer(clock)
    fns = {}

    def leaf():
        clock.advance(0.5)

    def gen(k):
        for i in range(k):
            clock.advance(1)
            fns["leaf"]()
            yield i
        clock.advance(2)

    def consumer():
        out = []
        for item in fns["gen"](3):
            clock.advance(10)
            out.append(item)
        return out

    fns.update(leaf=tr.wrap("leaf", leaf),
               gen=tr.wrap("gen", gen, count=lambda a, k, v: 1),
               consumer=tr.wrap("consumer", consumer))
    assert fns["consumer"]() == [0, 1, 2]
    stats = tr.stats
    assert (stats["gen"].calls, stats["gen"].self_s, stats["gen"].extra) == (1, 5, 3)
    assert stats["leaf"].self_s == 1.5
    assert stats["consumer"].self_s == 30
    assert clock.now == sum(s.self_s for s in stats.values())


def test_exception_closes_span():
    clock = FakeClock()
    tr = Tracer(clock)

    def boom():
        clock.advance(1)
        raise ValueError("x")

    traced = tr.wrap("boom", boom)
    with pytest.raises(ValueError):
        traced()
    assert (tr.stats["boom"].calls, tr.stats["boom"].self_s) == (1, 1)
    assert tr._stack == []


def test_install_replaces_every_binding_and_reports_missing():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f():
        return 1

    a.f = f
    b.f_alias = f          # as after `from .a import f as f_alias`
    pkg.f = f
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    try:
        tr = Tracer()
        missing = install(tr, [("a", "f", None), ("a", "gone", None), ("c", "h", None)],
                          package="fakepkg")
        assert missing == ["a.gone", "c.h"]
        assert a.f is not f and a.f is b.f_alias is pkg.f
        assert b.f_alias() == 1
        assert tr.stats["a.f"].calls == 1
    finally:
        for name in mods:
            del sys.modules[name]
