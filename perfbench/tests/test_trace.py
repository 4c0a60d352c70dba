"""Tracer arithmetic and the probes' install/restore cycle."""

import importlib
import itertools

import numpy as np
import pytest

from perfbench import probes
from perfbench.trace import Span, Tracer


def ticking_clock(step=1.0):
    counter = itertools.count()
    return lambda: next(counter) * step


def test_self_time_of_nested_spans():
    # clock ticks once per open/close: a[0..7] holds b[1..4] (holds c[2..3]) and d[5..6]
    tr = Tracer(clock=ticking_clock())
    a = tr.open("a")
    b = tr.open("b")
    c = tr.open("c")
    tr.close(c)
    tr.close(b)
    d = tr.open("d")
    tr.close(d)
    tr.close(a)
    assert [s.parent for s in tr.spans] == [-1, 0, 1, 0]
    assert tr.self_times() == {"a": 7 - 3 - 1, "b": 3 - 1, "c": 1, "d": 1}


def test_self_time_sums_repeated_names():
    tr = Tracer(clock=ticking_clock())
    for _ in range(3):
        outer = tr.open("outer")
        tr.close(tr.open("inner"))
        tr.close(outer)
    assert tr.self_times() == {"outer": 3 * 2, "inner": 3 * 1}


def test_covered_time_counts_overlap_once_and_clips_to_parent():
    tr = Tracer()
    tr.spans = [Span("p", 0.0, 10.0, -1),
                Span("x", 2.0, 5.0, 0), Span("y", 4.0, 6.0, 0), Span("z", 9.0, 12.0, 0)]
    # union of children inside [0, 10]: [2, 6] and [9, 10] -> 5
    assert tr.self_times()["p"] == pytest.approx(5.0)


def test_out_of_order_close_is_an_error():
    tr = Tracer()
    a = tr.open("a")
    tr.open("b")
    with pytest.raises(RuntimeError):
        tr.close(a)


def test_wrap_records_span_and_counts_and_restores():
    mod = importlib.import_module("planefinder.codebook")
    original = mod.quantize
    tr = Tracer()
    tr.wrap(mod, "quantize", "codebook.quantize",
            lambda t, a, k, r: t.count("codebook.empty_histograms", int(r.empty)))
    assert mod.quantize is not original
    cb = mod.Codebook(centroids=np.eye(2))
    mod.quantize([], cb)
    mod.quantize([np.array([1.0, 0.0])], cb)
    tr.restore()
    assert mod.quantize is original
    assert [s.name for s in tr.spans] == ["codebook.quantize"] * 2
    assert tr.counts == {"codebook.quantize.calls": 2, "codebook.empty_histograms": 1}


def test_wrapped_exception_closes_span_and_propagates():
    mod = importlib.import_module("planefinder.codebook")
    tr = Tracer()
    tr.wrap(mod, "quantize", "codebook.quantize")
    try:
        with pytest.raises(mod.CodebookError):
            mod.quantize([np.ones(3)], mod.Codebook(centroids=np.eye(2)))
    finally:
        tr.restore()
    assert tr.spans[0].end >= tr.spans[0].start
    assert tr._stack == []
    assert "codebook.quantize.calls" not in tr.counts


def test_install_then_restore_puts_every_original_back():
    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a, _, _ in probes.PROBES}
    tr = Tracer()
    probes.install(tr)
    try:
        for (m, a), fn in originals.items():
            assert getattr(importlib.import_module(m), a) is not fn, (m, a)
    finally:
        tr.restore()
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn, (m, a)


def test_probes_wrap_the_name_the_caller_looks_up():
    # pipeline binds imported names at import time, so a probe on the home
    # module alone would never see the pipeline's calls
    for module, attr, name, _ in probes.PROBES:
        home = ".".join(name.split(".")[:1])
        fn = getattr(importlib.import_module(module), attr)
        assert fn.__module__ == "planefinder." + home, (module, attr, name)


def test_overhead_is_wrapper_time_outside_the_span():
    mod = importlib.import_module("planefinder.codebook")
    tr = Tracer(clock=ticking_clock())
    tr.wrap(mod, "quantize", "codebook.quantize")
    try:
        mod.quantize([], mod.Codebook(centroids=np.eye(2)))
    finally:
        tr.restore()
    # ticks: entry 0, span start 1, span end 2, exit 3
    assert (tr.spans[0].start, tr.spans[0].end) == (1, 2)
    assert tr.overhead_s == 2
