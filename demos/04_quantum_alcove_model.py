"""The quantum alcove model from the ground up: the lambda-chain, the
admissible subsets with their foldings, the height profiles driving the
operators, and the isomorphism with the dual-filtered tensor product.

Run:  python3 demos/04_quantum_alcove_model.py
"""

from krcrystals import build_cartan
from krcrystals.alcove import (alcove_crystal, build_lambda_chain,
                               enumerate_admissible, fold)
from krcrystals.crystals import components, demazure_filter, explore_tensor, \
    match_components
from krcrystals.kr import kr_typeA

a2 = build_cartan("A", 2)
lam = (1, 1)
chain = build_lambda_chain(a2, lam)
print("lambda =", lam, " lexicographic chain:", chain.roots)
print("initial levels l_i:", chain.l)

# each admissible subset -> the Weyl group element its QBG walk ends at
subsets = list(enumerate_admissible(chain))
print("admissible subsets (%d):" % len(subsets), subsets)



def root_of(g):
    """The root named by a signed root id: +-(k + 1) is +-beta_k."""
    beta = a2.positive_roots_list[abs(g) - 1]
    return beta if g > 0 else tuple(-x for x in beta)


print()
print("=== foldings and weights ===")
for J in subsets[:4]:
    fol = fold(chain, J)
    print("J =", J, " gamma =", tuple(map(root_of, fol.gamma)),
          " wt(J) =", fol.weight)

print()
print("=== a height profile and one operator application ===")
# g_{alpha_1} of the empty folding: the levels where |gamma| = alpha_1,
# ending at <wt, alpha_1^vee>; M is the largest of them
fol = fold(chain, ())
positions = tuple(i for i, g in enumerate(fol.gamma, 1)
                  if abs(g) == chain.alphas[1][1])
heights = tuple(fol.levels[i - 1] for i in positions)
print("g_{alpha_1} of the empty subset: positions", positions,
      "heights", heights, "endpoint", fol.weight[0],
      "M =", max(heights + (fol.weight[0],)))
# the operators are read off the crystal's tables, node ids over its subsets
alc = alcove_crystal(a2, lam, 1)
print("f_1(emptyset) =", alc.nodes[alc.fs[1][alc.index[()]]])
print("phi_0 of every subset:",
      {J: alc.phi(alc.index[J], 0) for J in subsets})

print()
print("=== the assembled crystal vs the dual filtration ===")
dual = demazure_filter(
    explore_tensor(a2, [kr_typeA(2, 1, 1), kr_typeA(2, 2, 1)]), 1, "tail")
print("A_1(Gamma): %d nodes; dual-filtered B^{1,1} (x) B^{2,1}: %d nodes"
      % (len(alc), len(dual)))
pairs = match_components(components(alc), components(dual), "max")
print("component-by-component isomorphism found:", pairs is not None)

print()
print("=== level-2 operators remove 0-string tails ===")
base = alcove_crystal(a2, (2, 0), 1)
lvl2 = alcove_crystal(a2, (2, 0), 2)
print("level 1 zero-edges:", len(base.edges_of_color(0)),
      " level 2 zero-edges:", len(lvl2.edges_of_color(0)))
