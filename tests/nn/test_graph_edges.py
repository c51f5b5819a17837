"""Edge cases of the Graph container: deep fan-in, GoogLeNet-shaped
structures, nesting."""

from repro.nn import Concat, Conv2d, ReLU, Sequential
from repro.nn.network import Graph


class TestDeepFanIn:
    def test_three_way_concat_of_input(self):
        g = Graph()
        g.add("r1", ReLU())
        g.add("r2", ReLU(), "input")
        g.add("r3", ReLU(), "input")
        g.add("cat", Concat(), ["r1", "r2", "r3"])
        assert g.output_shape((2, 2, 3, 3)) == (2, 6, 3, 3)

    def test_inception_like_module_shapes(self):
        """A miniature inception block: four branches, concat."""
        g = Graph()
        g.add("b1", Conv2d(8, 4, 1))
        g.add("b2a", Conv2d(8, 2, 1), "input")
        g.add("b2b", Conv2d(2, 6, 3, padding=1), "b2a")
        g.add("b3a", Conv2d(8, 2, 1), "input")
        g.add("b3b", Conv2d(2, 3, 5, padding=2), "b3a")
        g.add("b4", Conv2d(8, 3, 1), "input")
        g.add("out", Concat(), ["b1", "b2b", "b3b", "b4"])
        assert g.output_shape((2, 8, 7, 7)) == (2, 4 + 6 + 3 + 3, 7, 7)

    def test_shape_walk_covers_all_nodes(self):
        g = Graph()
        g.add("a", ReLU())
        g.add("b", ReLU(), "a")
        walk = g.shape_walk((1, 2, 3, 3))
        assert len(walk) == 2


class TestContainersNesting:
    def test_sequential_inside_graph(self):
        inner = Sequential(ReLU(), ReLU(), name="tower")
        g = Graph()
        g.add("tower", inner)
        assert g.output_shape((1, 2, 3, 3)) == (1, 2, 3, 3)
