"""Walk through the four-policy cycle example.

The agenda setter ranks w > x > y > z but the initial default is z, her
least favorite.  Because the majority relation cycles, she can ride
one-step improvements all the way to w once she has three proposal
rounds — and the extensive-form oracle confirms that w is the unique
equilibrium outcome, not just one she can engineer.  Flipping three
majority edges blocks the ride at x forever.
"""

from agendalab import (
    GameSpec,
    VotingRule,
    equilibrium_outcome,
    is_manipulable,
    phi_iterates,
    solve_spe,
    unimprovable_set,
)
from agendalab.fixtures import (
    blocked_default_problem,
    blocked_default_realized,
    majority_cycle_problem,
)


def names(problem, indices):
    return [problem.policies[i] for i in indices]


def main():
    cycle = majority_cycle_problem()
    rule = VotingRule.simple_majority(3)
    z = cycle.policy_index("z")

    print("== the majority cycle fixture ==")
    print("favorite-improvement chain from z:",
          " -> ".join(names(cycle, phi_iterates(cycle, rule, z, 3))))
    print("unimprovable policies:", names(cycle, sorted(unimprovable_set(cycle, rule))))
    print("manipulable:", is_manipulable(cycle, rule).manipulable)

    for rounds in (1, 2, 3):
        trajectory = equilibrium_outcome(cycle, rule, z, rounds)
        oracle = solve_spe(GameSpec(problem=cycle, rule=rule, horizon=rounds,
                                    initial_default=z))
        print(f"T={rounds}: engine predicts {cycle.policies[trajectory.outcome]}, "
              f"oracle confirms {cycle.policies[oracle.outcome]}")

    print()
    print("== the blocked variant ==")
    blocked = blocked_default_problem()
    print("unimprovable policies:",
          names(blocked, sorted(unimprovable_set(blocked, rule))))
    report = is_manipulable(blocked, rule)
    print("manipulable:", report.manipulable,
          "| blocking:", names(blocked, sorted(report.blocking)))
    for rounds in (1, 3, 6):
        trajectory = equilibrium_outcome(blocked, rule, z, rounds)
        print(f"T={rounds}: outcome {blocked.policies[trajectory.outcome]} "
              "(stuck, whatever the horizon)")

    realized = blocked_default_realized()
    oracle = solve_spe(GameSpec(problem=realized,
                                rule=VotingRule.simple_majority(realized.n),
                                horizon=6, initial_default=z))
    print(f"a {realized.n}-voter realization of the same relation agrees: "
          f"{realized.policies[oracle.outcome]}")


if __name__ == "__main__":
    main()
