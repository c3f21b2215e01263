"""Tests for the project call graph: resolution kinds, per-function
summary bits, and the graph's shape (counts, known targets, the
reverse caller index) on small trees and the self-hosted package."""

from __future__ import annotations

import pytest

from repro.privlint import run_lint


def _graph(lint_tree, files):
    return lint_tree(files).context.callgraph


def _node(graph, qualname):
    hits = [
        n for n in graph.nodes.values() if n.qualname == qualname
    ]
    assert len(hits) == 1, (qualname, sorted(graph.nodes))
    return hits[0]


def _site(node, name):
    hits = [s for s in node.calls if s.name == name]
    assert len(hits) == 1, (name, node.calls)
    return hits[0]


class TestResolution:
    def test_local_bare_name(self, lint_tree):
        graph = _graph(
            lint_tree,
            {
                "mod.py": '''
                def helper(x):
                    return x

                def caller(x):
                    return helper(x)
                '''
            },
        )
        site = _site(_node(graph, "caller"), "helper")
        assert site.kind == "local"
        assert site.targets == (_node(graph, "helper").node_id,)
        assert graph.callers_of(
            _node(graph, "helper").node_id
        ) == (_node(graph, "caller").node_id,)

    def test_local_class_resolves_to_constructor(self, lint_tree):
        graph = _graph(
            lint_tree,
            {
                "mod.py": '''
                class Thing:
                    def __init__(self, x):
                        self.x = x

                def make(x):
                    return Thing(x)
                '''
            },
        )
        site = _site(_node(graph, "make"), "Thing")
        assert site.kind == "local"
        assert site.targets == (
            _node(graph, "Thing.__init__").node_id,
        )

    def test_self_method(self, lint_tree):
        graph = _graph(
            lint_tree,
            {
                "mod.py": '''
                class Service:
                    def _inner(self):
                        return 1

                    def outer(self):
                        return self._inner()
                '''
            },
        )
        site = _site(_node(graph, "Service.outer"), "_inner")
        assert site.kind == "self"
        assert site.targets == (
            _node(graph, "Service._inner").node_id,
        )

    def test_import_alias_cross_module(self, lint_tree):
        graph = _graph(
            lint_tree,
            {
                "pkg/__init__.py": "",
                "pkg/helper.py": '''
                def compute(x):
                    return x
                ''',
                "pkg/caller.py": '''
                from . import helper

                def run(x):
                    return helper.compute(x)
                ''',
            },
        )
        site = _site(_node(graph, "run"), "compute")
        assert site.kind == "import"
        assert site.targets == (_node(graph, "compute").node_id,)

    def test_reexport_hop_through_package_init(self, lint_tree):
        graph = _graph(
            lint_tree,
            {
                "pkg/__init__.py": '''
                from .impl import compute
                ''',
                "pkg/impl.py": '''
                def compute(x):
                    return x
                ''',
                "pkg/consumer.py": '''
                from . import compute

                def run(x):
                    return compute(x)
                ''',
            },
        )
        site = _site(_node(graph, "run"), "compute")
        assert site.kind == "import"
        assert site.targets == (_node(graph, "compute").node_id,)

    def test_unknown_receiver_joins_by_method_name(self, lint_tree):
        graph = _graph(
            lint_tree,
            {
                "mod.py": '''
                class A:
                    def estimate(self):
                        return 1

                class B:
                    def estimate(self):
                        return 2

                def run(backend):
                    return backend.estimate()
                '''
            },
        )
        site = _site(_node(graph, "run"), "estimate")
        assert site.kind == "join"
        assert set(site.targets) == {
            _node(graph, "A.estimate").node_id,
            _node(graph, "B.estimate").node_id,
        }

    def test_unknown_callee_is_opaque(self, lint_tree):
        graph = _graph(
            lint_tree,
            {
                "mod.py": '''
                def run(x):
                    return external(x)
                '''
            },
        )
        site = _site(_node(graph, "run"), "external")
        assert site.kind == "opaque"
        assert site.targets == ()

    def test_dunder_calls_never_join(self, lint_tree):
        graph = _graph(
            lint_tree,
            {
                "mod.py": '''
                class A:
                    def __len__(self):
                        return 0

                def run(x):
                    return x.__len__()
                '''
            },
        )
        site = _site(_node(graph, "run"), "__len__")
        assert site.kind == "opaque"
        assert site.targets == ()

    def test_call_sites_kept_in_source_order(self, lint_tree):
        graph = _graph(
            lint_tree,
            {
                "mod.py": '''
                def a():
                    return 1

                def b():
                    return 2

                def run():
                    x = b()
                    return a() + x
                '''
            },
        )
        assert [s.name for s in _node(graph, "run").calls] == [
            "b",
            "a",
        ]


class TestSummaryBits:
    def test_weight_read_and_return(self, lint_tree):
        graph = _graph(
            lint_tree,
            {
                "repro/graphs/mod.py": '''
                def total(graph):
                    return graph.total_weight()
                '''
            },
        )
        node = _node(graph, "total")
        assert node.reads == ("total_weight",)
        assert node.reads_weights
        assert node.returns_value
        assert node.escapes
        assert not node.serializes

    def test_serialize_noise_draw_spend_bits(self, lint_tree):
        graph = _graph(
            lint_tree,
            {
                "mod.py": '''
                def report(value, ledger, eps, rng):
                    ledger.spend(eps)
                    noisy = value + rng.laplace(1.0 / eps)
                    print(noisy)
                    return noisy
                '''
            },
        )
        node = _node(graph, "report")
        assert node.serializes
        assert node.noises
        assert node.draws
        assert node.spends

    def test_pure_laplace_helpers_do_not_draw(self, lint_tree):
        graph = _graph(
            lint_tree,
            {
                "mod.py": '''
                def bound(q, scale):
                    return laplace_quantile(q, scale)
                '''
            },
        )
        node = _node(graph, "bound")
        assert not node.draws
        # Still a recognized noising-family call for PL1 purposes.
        assert node.noises

    def test_bare_return_none_is_not_a_value(self, lint_tree):
        graph = _graph(
            lint_tree,
            {
                "mod.py": '''
                def bail(flag):
                    if flag:
                        return
                    return None
                '''
            },
        )
        assert not _node(graph, "bail").returns_value


@pytest.fixture(scope="module")
def self_host_graph():
    """The call graph of the real package."""
    return run_lint().context.callgraph


def _edges(graph):
    """Every ``(caller id, target id)`` edge, once per call site."""
    return [
        (node.node_id, target)
        for node in graph.nodes.values()
        for site in node.calls
        for target in site.targets
    ]


class TestDocument:
    def test_stats_agree_with_functions(self, lint_tree):
        graph = _graph(
            lint_tree,
            {
                "a.py": '''
                def helper(x):
                    return x

                def caller(x):
                    return helper(len(x))
                ''',
                "b.py": '''
                from .a import helper

                def outer(x):
                    return unknown(helper(x))
                ''',
            },
        )
        sites = [site for node in graph.nodes.values() for site in node.calls]
        helper = _node(graph, "helper").node_id
        assert len(graph.nodes) == 3
        assert len({node.module for node in graph.nodes.values()}) == 2
        # Calls the resolver cannot name stay as sites without edges.
        assert len(sites) == 4
        assert sorted(site.kind for site in sites) == [
            "import",
            "local",
            "opaque",
            "opaque",
        ]
        assert sorted(_edges(graph)) == [
            (_node(graph, "caller").node_id, helper),
            (_node(graph, "outer").node_id, helper),
        ]

    def test_self_host_document_validates(self, self_host_graph):
        # The real package is big enough that an empty graph would
        # mean the builder silently broke.
        assert len(self_host_graph.nodes) > 500
        assert len(_edges(self_host_graph)) > 1000

    def test_self_host_targets_are_known_functions(self, self_host_graph):
        assert {
            target for _, target in _edges(self_host_graph)
        } <= set(self_host_graph.nodes)

    def test_self_host_callers_reverse_the_edges(self, self_host_graph):
        reverse = {}
        for caller, target in _edges(self_host_graph):
            reverse.setdefault(target, set()).add(caller)
        assert {
            target: set(callers)
            for target, callers in self_host_graph.callers.items()
        } == reverse
