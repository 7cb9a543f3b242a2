"""Walk through the root-system layer: affine Cartan data, positive
roots, the finite Weyl group, and the quantum Bruhat graph.

Run:  python3 demos/01_cartan_weyl_qbg.py
"""

from krcrystals import build_cartan, c_value
from krcrystals.weyl import build_qbg, build_weyl_group, dominantize

print("=== Cartan data for C2~ ===")
ct = build_cartan("C", 2)
print("affine Cartan matrix:")
for row in ct.affine_cartan:
    print("   ", row)
print("Kac labels      a  =", ct.kac_labels)
print("dual Kac labels a^v=", ct.dual_kac_labels)
print("c_r = max(a_r/a_r^v, 1):", {r: c_value(ct, r) for r in (1, 2)})
print("highest root theta =", ct.theta, "(simple-root coordinates)")

print()
print("=== positive roots (simple-root coordinates) ===")
for beta in ct.positive_roots_list:
    print("   ", beta, " <beta^vee, rho> =", ct.pairing(beta, ct.rho))

print()
print("=== the Weyl group and its quantum Bruhat graph ===")
group = build_weyl_group(ct)
print("|W| =", len(group), " longest element length =",
      group.lengths[group.w0])
qbg = build_qbg(ct)
ups = sum(not e[1] for w in range(qbg.vertex_count)
          for k in range(len(ct.positive_roots_list))
          if (e := qbg.has_edge(w, k)))
downs = qbg.edge_count - ups
print("QBG: %d vertices, %d edges (%d covers, %d quantum)"
      % (qbg.vertex_count, qbg.edge_count, ups, downs))
print("strongly connected:", qbg.is_strongly_connected())

print()
print("=== level-1 dominantization of w0(2 pi_1) = -2 pi_1 ===")
(dom, level), word = dominantize(ct, (-2, 0), 1)
print("dominant representative:", dom, "at level", level)
print("minimal word (applied to Lambda, leftmost last):", word)
