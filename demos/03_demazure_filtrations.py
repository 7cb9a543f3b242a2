"""Demazure-edge filtrations and the C2 paper-figure crystals: remove the
non-level-1 Demazure 0-arrows, split into components, and exhibit the
isomorphism between the two minimal components.

Run:  python3 demos/03_demazure_filtrations.py
"""

from krcrystals import (build_cartan, check_bmin, check_reduction,
                        fixture_C2, kr_C_onebox)
from krcrystals.crystals import (components, demazure_filter, explore_tensor,
                                 graphs_equal, iso_check)

ct = build_cartan("C", 2)
box = kr_C_onebox(2)
full = explore_tensor(ct, [box, box])
print("full B^{1,1} (x) B^{1,1}: %d nodes, %d zero-edges"
      % (len(full), len(full.edges_of_color(0))))

filtered = demazure_filter(full, 1, "head")
zero = filtered.edges_of_color(0)
print("after removing non-level-1 Demazure arrows: %d zero-edge(s):"
      % len(zero),
      [(filtered.reprs[s], filtered.reprs[d]) for s, d in zero])
print("matches the transcribed figure fixture:",
      graphs_equal(filtered, fixture_C2("tensor11")))

# a component is a (graph, ids) pair: its node ids in the filtered graph
comps = components(filtered)
print("components:", [len(ids) for _, ids in comps])

fb = fixture_C2("B12")
_, big = comps[1]
mapping = iso_check(filtered, fb, "min", big)
print("11-node component isomorphic to filtered B^{1,2}:",
      mapping is not None)
print("  the empty column of B^{1,2} corresponds to",
      filtered.reprs[{v: k for k, v in mapping.items()}[fb.index[()]]])

print()
print("=== the same statement through the named checks ===")
rep = check_reduction(ct, [(1, 1), (1, 1)], [(1, 2)], 1, "head")
print("reduction:", rep.status, rep.witnesses["component_sizes"])
rep = check_bmin(ct, [(1, 1), (1, 1)], 1)
print("bmin:", rep.status)
print("  component minima:", rep.witnesses["minima"])
print("  dominantized to:", rep.witnesses["lambda_classical"],
      "words:", rep.witnesses["words"])
print("  affine highest-weight census:", rep.witnesses["census"])
print("  census size equals component count:",
      len(rep.witnesses["census"]) == len(comps))
