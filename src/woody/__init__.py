"""Strongly woody edge colorings: verifiers, constructions, exact solvers,
and a batch conjecture-hunting harness.

An edge coloring is woody when every color class induces a forest, and
strongly woody when additionally no broken cycle (a cycle minus one edge)
is monochromatic; the strong arboricity of a graph is the least palette
size of a strongly woody coloring.

Every name is imported from its module (woody.graphs, woody.verify, ...);
the package itself re-exports none.
"""

__version__ = "0.1.0"
