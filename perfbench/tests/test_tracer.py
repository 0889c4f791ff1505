"""The tracer sees calls through every by-name import, restores the
originals, and its counters repeat exactly; the workloads bypass the layers
they are meant to bypass."""

import vancyc.groebner
import vancyc.singularity

import run
from tracer import Tracer


def _traced(items):
    with Tracer() as tracer:
        result = run.run_pass(items, tracer)
    assert result.failures == []
    return tracer


def _calls(tracer, name):
    """Spans of one function, or of a whole module when name ends with '.'."""
    return sum(1 for s in tracer.finished_spans()
               if s.name == name or (name.endswith(".") and s.name.startswith(name)))


def test_elimination_uses_groebner_and_no_monodromy(pick):
    tracer = _traced(pick("elimination", 0, "al-n3"))
    assert _calls(tracer, "groebner.eliminate") == 1  # reached via singularity's import
    assert tracer.counts["poly.grevlex_key.calls"] > 0
    assert _calls(tracer, "monodromy.") == 0


def test_milnor_uses_no_monodromy(pick):
    tracer = _traced(pick("milnor", 0, "A3-0", "D4-1", "BP234-0", "nonisolated-xyz-0"))
    assert _calls(tracer, "groebner.quotient_dimension") > 0
    assert _calls(tracer, "groebner.eliminate") == 0
    assert _calls(tracer, "monodromy.") == 0


def test_reflection_uses_no_elimination(pick):
    tracer = _traced(pick("reflection", 0, "order-A3", "braid-A3", "coxeter-element-A3",
                          "order-B2", "braid-B2", "coxeter-element-B2", "fold-A3-flip"))
    assert _calls(tracer, "groebner.") == 0
    assert _calls(tracer, "monodromy.group_order_bfs") == 3  # two orders, one fold
    assert tracer.layer_metrics()["monodromy.group_elements"] == 24 + 8 + 2


def test_counters_repeat_exactly_and_originals_come_back(pick):
    original = vancyc.groebner.eliminate
    items = (pick("elimination", 4, "al-n3", "al-n4")
             + pick("reflection", 4, "order-A3", "braid-A3", "coxeter-element-A3"))
    counters = ("groebner.spairs", "groebner.normal_form.calls",
                "poly.grevlex_key.calls", "monodromy.group_elements")
    first, second = (_traced(items).layer_metrics() for _ in range(2))
    assert all(first[name] > 0 for name in counters)
    assert {name: first[name] for name in counters} == \
        {name: second[name] for name in counters}
    assert vancyc.groebner.eliminate is original
    assert vancyc.singularity.eliminate is original


def test_self_time_excludes_children(pick):
    tracer = _traced(pick("elimination", 0, "al-n3"))
    spans = tracer.finished_spans()
    outer = next(s for s in spans if s.name == "singularity.discriminant")
    assert outer.parent is None and outer.item == "al-n3"
    metrics = tracer.layer_metrics()
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0 < metrics["singularity.discriminant.self_s"] < outer.end - outer.start
    assert self_total <= outer.end - outer.start + 1e-9
