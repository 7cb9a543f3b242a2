"""Q-system relations: the classical character identity and its crystal
refinement via level-bounded Demazure filtrations.

Run:  python3 demos/05_qsystem.py
"""

from collections import Counter

from krcrystals import (build_cartan, check_character_qsystem,
                        check_qsystem_typeA)
from krcrystals.kr import kr_typeA

print("=== character level: (Q_1^(1))^2 = Q_2^(1) Q_0^(1) + Q_1^(2) in A2 ===")
lhs = Counter(kr_typeA(2, 1, 1).weights)
print("ch B^{1,1} has %d monomials; squared: %d"
      % (sum(lhs.values()), sum(lhs.values()) ** 2))
rep = check_character_qsystem(build_cartan("A", 2), 1, 1)
print("monomial-exact identity 9 = 6 + 3:", rep.status,
      rep.witnesses["monomials_lhs"], "=", rep.witnesses["monomials_rhs"])

print()
print("=== crystal level at bounded level ===")
for (n, a, m, level) in [(2, 1, 2, 2), (2, 2, 2, 2), (3, 2, 2, 2)]:
    rep = check_qsystem_typeA(build_cartan("A", n), a, m, level)
    ledger = rep.witnesses["size_ledger"]
    print("A%d, a=%d, m=%d, level=%d: %s, sizes %d = %s, "
          "components %s ~ %s"
          % (n, a, m, level, rep.status, ledger[0],
             " + ".join(str(x) for x in ledger[1]),
             rep.witnesses["lhs_component_sizes"],
             rep.witnesses["rhs_component_sizes"]))
