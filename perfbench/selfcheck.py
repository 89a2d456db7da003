"""Test every oracle in oracles.py against the program on every graph of order <= 7.

    python3 perfbench/selfcheck.py

The graphs come from networkx's graph atlas (all 1,252 graphs of order 1 to
7), not from the program's enumeration. For each graph the script compares
K4- and K_{2,3}-minor-freeness, (2,2)-star-forest-freeness and the alpha
index at two weights with the program's answers, and round-trips graph6
between networkx and the program. Exits 1 on the first disagreement.
"""

from __future__ import annotations

import sys

import networkx as nx

import oracles
from worker import load_program

TOL = 1e-9


def main() -> int:
    load_program()
    import alpha_extremal as ae

    k4, k23 = ae.CliqueMinor(4), ae.BicliqueMinor(2, 3)
    spec = ae.StarForestSpec((2, 2))
    counts = {"graphs": 0, "k4_free": 0, "k23_free": 0, "star_free": 0}
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if n == 0:
            continue
        ours = ae.Graph.from_edges(n, g.edges())
        text = ae.encode_graph6(ours)
        decided = {
            "k4_free": (oracles.k4_minor_free(g), ae.is_minor_free(ours, k4)),
            "k23_free": (oracles.k23_minor_free(g), ae.is_minor_free(ours, k23)),
            "star_free": (oracles.star_forest_free(g, (2, 2)), ae.is_star_forest_free(ours, spec)),
        }
        for name, (oracle, program) in decided.items():
            if oracle != program:
                print(f"{name}: oracle {oracle}, program {program} on {text}", file=sys.stderr)
                return 1
            counts[name] += oracle
        for alpha in (0.3, 0.5):
            want = oracles.alpha_index(g, alpha)
            got = ae.alpha_index(ours, alpha).alpha_index
            if abs(want - got) > TOL:
                print(f"alpha index at {alpha}: eigvalsh {want}, program {got} on {text}",
                      file=sys.stderr)
                return 1
        back = nx.to_graph6_bytes(g, header=False).decode().strip()
        if not nx.utils.edges_equal(oracles.from_graph6(text).edges(), g.edges()) \
                or ae.decode_graph6(back) != ours:
            print(f"graph6 round trip differs on {text}", file=sys.stderr)
            return 1
        counts["graphs"] += 1
    print("oracles agree with the program:", ", ".join(f"{k} {v}" for k, v in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
