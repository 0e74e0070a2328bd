"""Commitment benchmarks and the value of a deadline.

Three closures bound what the setter achieves: all majority chains
(full commitment), length-two chains (fixed agendas), and chains
following the favorite improvement (no commitment).  The first contains
the other two, which are not nested.  Against
these finite benchmarks, the no-deadline game is characterized by the
unique stable set: the setter's payoff is non-monotone in the horizon,
and the cycle fixture exhibits the strict pattern U_2 > U_1 > U_inf.
"""

from agendalab import (
    horizon_classify,
    horizon_payoffs,
    reachability,
    stable_set,
)
from agendalab.fixtures import majority_cycle_problem


def main():
    cycle = majority_cycle_problem()
    z = cycle.policy_index("z")

    print("== reachability closures from default z ==")
    for mode in ("reachable", "two_reachable", "credible"):
        report = reachability(cycle, z, mode)
        chain = " -> ".join(cycle.policies[i] for i in report.witness_chain)
        print(f"{report.mode:>15}: best {cycle.policies[report.best_for_setter]} "
              f"via {chain}")

    print()
    print("== the stable set and infinite-horizon outcomes ==")
    report = stable_set(cycle)
    print("stable set:", sorted(cycle.policies[i] for i in report.members),
          "| uniqueness certified:", report.uniqueness_certified)
    for x in range(4):
        print(f"no-deadline outcome from {cycle.policies[x]}: "
              f"{cycle.policies[report.psi_table[x]]}")

    print()
    print("== horizon comparison ==")
    for label in ("y", "w", "z"):
        rows = horizon_payoffs(cycle, cycle.policy_index(label), [1, 2, 3])
        finite = ", ".join(f"U_{t}={u}" for t, u in sorted(rows.u_table.items()))
        print(f"default {label}: {finite}, U_inf={rows.u_inf}")

    classified = horizon_classify(cycle)
    print(f"classification: case ({classified.case}), "
          f"witness default {cycle.policies[classified.witness]} "
          "prefers a medium deadline to both extremes")


if __name__ == "__main__":
    main()
