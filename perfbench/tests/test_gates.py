"""Each correctness gate catches an injected wrong expected value."""

from dataclasses import replace

import run
import workloads as w
from vancyc import singularity


def _one_failure(item, wrong):
    assert run.run_pass([item]).failures == []
    result = run.run_pass([replace(item, expected=wrong)])
    assert len(result.failures) == 1
    return result


def test_elimination_gates(pick):
    al, basic, pair, fold = pick("elimination", 0, "al-n3", "germ-basic.germ",
                                 "germ-canonical_pair.germ", "germ-fold.germ")
    _one_failure(al, "mult=4")
    _one_failure(basic, "mult=2")
    _one_failure(pair, "mult=1")
    _one_failure(fold, "reduced=s1^2")


def test_milnor_gates(pick):
    a2, x2y = pick("milnor", 1, "A2-0", "nonisolated-x2y-1")
    _one_failure(a2, 3)
    _one_failure(x2y, 0)


def test_reflection_gates(pick):
    order, braid, coxeter, fold = pick("reflection", 2, "order-B2", "braid-B2",
                                       "coxeter-element-B2", "fold-D4-triality")
    _one_failure(order, 6)
    _one_failure(braid, (False, (0, 1)))
    _one_failure(coxeter, 3)
    _one_failure(fold, ("G2", 6, False, True))


def test_paper_suite_gate_counts_each_check():
    item, = w.paper_suite_items(0)
    wrong = dict(item.expected, involutivity="fail")
    result = run.run_pass([replace(item, expected=wrong)])
    assert result.attempted == 13
    assert [f["outcome"] for f in result.failures] == ["involutivity"]


def test_exceptions_and_budget_stops_count_as_failures():
    germ = singularity.action_coordinates_germ(3, 2, [[1, 1, 0], [0, 1, 1]])
    stopped = w.Item("budget", lambda: singularity.discriminant(germ, max_pairs=1),
                     "mult=3")
    result = run.run_pass([stopped, w.Item("raises", lambda: 1 // 0, 0)])
    assert result.attempted == 2
    assert [f["item"] for f in result.failures] == ["budget", "raises"]
    assert "ResourceLimitExceeded" in result.failures[0]["got"]
