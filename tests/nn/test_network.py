"""Tests for the Sequential and Graph containers."""

import pytest

from repro.errors import ShapeError
from repro.nn import (Concat, Conv2d, Linear, ReLU, Sequential)
from repro.nn.network import Graph


class TestSequential:
    def test_parameters_collected(self):
        model = Sequential(Conv2d(1, 2, 3), Linear(4, 2))
        assert len(model.parameters()) == 4

    def test_shape_walk(self):
        model = Sequential(Conv2d(3, 8, 3), ReLU())
        walk = model.shape_walk((1, 3, 8, 8))
        assert len(walk) == 2
        assert walk[0][2] == (1, 8, 6, 6)
        assert walk[1][2] == (1, 8, 6, 6)

    def test_add_rejects_non_layer(self):
        with pytest.raises(TypeError):
            Sequential().add("not a layer")

    def test_len_and_iter(self):
        model = Sequential(ReLU(), ReLU(), ReLU())
        assert len(model) == 3
        assert len(list(model)) == 3


class TestGraph:
    def build_branchy(self):
        """input -> conv -> {branch a: relu, branch b: conv} -> concat."""
        g = Graph()
        g.add("stem", Conv2d(1, 2, 3))
        g.add("a", ReLU(), "stem")
        g.add("b", Conv2d(2, 3, 1), "stem")
        g.add("merge", Concat(), ["a", "b"])
        return g

    def test_insertion_order_enforced(self):
        g = Graph()
        with pytest.raises(ShapeError):
            g.add("x", ReLU(), "later")

    def test_duplicate_name_rejected(self):
        g = Graph()
        g.add("x", ReLU())
        with pytest.raises(ShapeError):
            g.add("x", ReLU())

    def test_multi_input_requires_concat(self):
        g = Graph()
        g.add("a", ReLU())
        g.add("b", ReLU())
        with pytest.raises(ShapeError):
            g.add("c", ReLU(), ["a", "b"])

    def test_set_output(self):
        g = Graph()
        g.add("a", ReLU())
        g.add("b", ReLU(), "a")
        g.set_output("a")
        assert g.output_node == "a"

    def test_parameters_collected(self):
        g = self.build_branchy()
        assert len(g.parameters()) == 4  # two convs x (w, b)


class TestConcat:
    def test_mismatched_spatial_rejected(self):
        with pytest.raises(ShapeError):
            Concat().output_shape([(1, 1, 2, 2), (1, 1, 3, 3)])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            Concat().output_shape([])
