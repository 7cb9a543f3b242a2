"""Build concrete KR crystals and tensor them with the signature rule.

Run:  python3 demos/02_crystals_and_tensors.py
"""

from krcrystals import build_cartan, kr_C_onebox, kr_typeA
from krcrystals.crystals import explore_tensor, hw_census
from krcrystals.kr import promotion

print("=== type A KR crystal B^{1,2} for n = 2 (row tableaux) ===")
g = kr_typeA(2, 1, 2)
print("nodes:", ", ".join(g.reprs))
print("0-edges (from promotion conjugation):",
      [(g.reprs[s], g.reprs[d]) for s, d in g.edges_of_color(0)])
print("promotion orbit of [[1,2]]:", end=" ")
t = ((1, 2),)
for _ in range(3):
    print(t, "->", end=" ")
    t = promotion(t, 2)
print(t)

print()
print("=== the C2 one-box crystal and a tensor square ===")
box = kr_C_onebox(2)
print("letters:", ", ".join(box.reprs), " (KN order 1 < 2 < -2 < -1)")
ct = build_cartan("C", 2)
graph = explore_tensor(ct, [box, box])


def f1(b):
    """f_1 on a pair of letters, read from the explored graph."""
    img = graph.f(graph.index[b], 1)
    return None if img is None else graph.nodes[img]


print("signature rule: f_1(1 (x) 1) =", f1((1, 1)))
print("                f_1(1 (x) 2) =", f1((1, 2)))
print("                f_1(2 (x) 1) =", f1((2, 1)),
      " (the '+-' pair cancels)")
print("explored B^{1,1} (x) B^{1,1}: %d nodes, %d edges"
      % (len(graph), graph.edge_count))
print("seminormality violations:", graph.seminormal())
print("classically highest weights:", hw_census(graph, (1, 2)))
print("u_max:", graph.reprs[graph.extremal('max')],
      " u_min:", graph.reprs[graph.extremal('min')])
