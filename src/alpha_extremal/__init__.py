"""Alpha-index toolkit.

Spectra of the convex blend a*D + (1-a)*A of a graph's degree and adjacency
matrices, the extremal join constructions for clique-minor-free,
biclique-minor-free and star-forest-free graphs, every closed-form bound on
their largest eigenvalue, exact forbidden-structure predicates with
certificates, and an exhaustive small-order harness that tests the extremal
claims against brute force.
"""

from .bounds import StarForestSpec
from .graph6 import decode_graph6, encode_graph6
from .graphs import Graph
from .minors import BicliqueMinor, CliqueMinor, is_minor_free
from .spectral import alpha_index
from .star_forests import is_star_forest_free

__version__ = "0.1.0"
