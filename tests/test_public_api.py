"""Contract tests for the public API surface.

A downstream user should be able to rely on everything in ``__all__``
existing, being importable, and carrying a docstring.  These tests also
pin the privacy-parameter plumbing conventions shared by all releases.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import typing

import pytest

import repro


def _defined_in(module):
    """Every function, method and property getter ``module`` defines."""
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield value
        elif inspect.isclass(value):
            for member in vars(value).values():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield member


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.graphs",
            "repro.graphs.graph",
            "repro.graphs.multigraph",
            "repro.graphs.tree",
            "repro.graphs.generators",
            "repro.graphs.io",
            "repro.algorithms",
            "repro.algorithms.traversal",
            "repro.algorithms.shortest_paths",
            "repro.algorithms.spanning_tree",
            "repro.algorithms.matching",
            "repro.algorithms.covering",
            "repro.engine",
            "repro.engine.csr",
            "repro.engine.kernels",
            "repro.dp",
            "repro.dp.params",
            "repro.dp.mechanisms",
            "repro.dp.composition",
            "repro.dp.accountant",
            "repro.dp.bounds",
            "repro.core",
            "repro.core.distance_oracle",
            "repro.core.synthetic_graph",
            "repro.core.private_paths",
            "repro.core.tree_distances",
            "repro.core.path_hierarchy",
            "repro.core.bounded_weight",
            "repro.core.cycle_distances",
            "repro.core.mst",
            "repro.core.matching",
            "repro.core.lower_bounds",
            "repro.workloads",
            "repro.workloads.traffic",
            "repro.workloads.queries",
            "repro.mechanisms",
            "repro.serving",
            "repro.serving.synopsis",
            "repro.serving.service",
            "repro.serving.ledger",
            "repro.serving.batching",
            "repro.serving.config",
            "repro.serving.estimates",
            "repro.serving.sharding",
            "repro.serving.routing",
            "repro.serving.simulate",
            "repro.analysis",
            "repro.analysis.errors",
            "repro.analysis.tables",
            "repro.privlint",
            "repro.privlint.engine",
            "repro.privlint.findings",
            "repro.privlint.report",
            "repro.privlint.rules",
            "repro.privlint.suppressions",
            "repro.documents",
        ],
    )
    def test_submodules_import_and_are_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    def test_type_hints_resolve(self):
        # Annotations are strings under ``from __future__ import
        # annotations``: one naming something its module never
        # imports only fails when a tool resolves it.
        unresolved = []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            for obj in _defined_in(module):
                try:
                    typing.get_type_hints(obj)
                except NameError as error:
                    unresolved.append(f"{obj.__qualname__}: {error}")
        assert not unresolved, unresolved

    def test_public_callables_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(name)
        assert not undocumented, f"missing docstrings: {undocumented}"


class TestReleaseConventions:
    """Every release object exposes ``.params`` with its guarantee."""

    def test_all_releases_report_params(self, rng):
        from repro.graphs import RootedTree, generators

        grid = generators.grid_graph(4, 4)
        tree = generators.random_tree(10, rng)
        cycle = generators.cycle_graph(8)
        path = generators.path_graph(8)
        releases = [
            repro.release_synthetic_graph(grid, 1.0, rng),
            repro.release_private_paths(grid, 1.0, 0.1, rng),
            repro.release_tree_single_source(tree, 1.0, rng, root=0),
            repro.release_tree_all_pairs(RootedTree(tree, 0), 1.0, rng),
            repro.release_path_hierarchy(path, 1.0, rng),
            repro.release_bounded_weight(grid, 1.0, 1.0, rng),
            repro.release_cycle_distances(cycle, 1.0, rng),
            repro.release_private_mst(grid, 1.0, rng),
        ]
        for release in releases:
            assert release.params.eps == 1.0
            assert release.params.delta == 0.0

    def test_exception_hierarchy(self):
        assert issubclass(repro.GraphError, repro.ReproError)
        assert issubclass(repro.PrivacyError, repro.ReproError)
        assert issubclass(repro.BudgetExceededError, repro.PrivacyError)
        assert issubclass(repro.VertexNotFoundError, repro.GraphError)
        assert issubclass(repro.NotATreeError, repro.GraphError)
