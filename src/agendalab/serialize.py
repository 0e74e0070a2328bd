"""JSON round-trips for problems, profiles, and oracle reports.

The problem schema:

    {"policies": ["w", ...],
     "voters": [["4", "1/2", ...], ...],
     "agenda_setter": ["4", ...],
     "majority_override": [["winner", "loser"], ...],   # optional
     "gfa": true}                                       # optional; true requires gfa

Policy labels, here and in tournament documents, are JSON strings.
Rationals serialize as reduced "p/q" or integer strings; decimal input
such as "0.5" is accepted and normalized.  Diagnostics carry row/column
locations.  Writing uses canonical field order so files are diffable.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from .engine import StrategyProfile
from .errors import ValidationError
from .oracle import CustomProtocol
from .problems import CollectiveChoiceProblem, TournamentSpec, VotingRule
from .rationals import format_rational, parse_rational
from .spatial import SpatialProfile


def problem_to_dict(problem: CollectiveChoiceProblem) -> dict:
    # from the problem's integers, so an integer-built problem makes no `Fraction` view
    ints = problem._ints
    rows = [[format_rational(Fraction(v, ints.scale)) for v in row]
            for row in ints.array.tolist()]
    out = {"policies": list(problem.policies), "voters": rows[:-1], "agenda_setter": rows[-1]}
    if problem.majority_override is not None:
        out["majority_override"] = sorted(
            [problem.policies[w], problem.policies[l]]
            for w, l in problem.majority_override.edges)
    out["gfa"] = problem.gfa
    return out


def read_json(path):
    """Parse a JSON file; an unreadable or malformed file is a ValidationError."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read ({exc.strerror or exc})") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None


@contextmanager
def _writing(path):
    """Write to `path` inside the block; an OSError there is a ValidationError."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"{path}: cannot write ({exc.strerror or exc})") from None


def _field(data, key: str, document: str):
    if not isinstance(data, dict):
        raise ValidationError(f"{document} document must be a JSON object")
    if key not in data:
        raise ValidationError(f"{document} document: missing required field {key!r}")
    return data[key]


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a JSON list, not {type(value).__name__}")
    return value


def _typed(value, kind: type, what: str):
    """`value` if its type is exactly `kind`, so no bool passes as an int."""
    if type(value) is not kind:
        raise ValidationError(f"{what} {value!r} is not of type {kind.__name__}")
    return value


def _rationals(row, where: str, entry: str) -> tuple[Fraction, ...]:
    """The rationals of the JSON list `row`; a bad one is located as
    "`where`, `entry` k" (1-based)."""
    out = []
    for k, cell in enumerate(_list(row, where)):
        try:
            out.append(parse_rational(cell))
        except ValidationError as exc:
            raise ValidationError(f"{where}, {entry} {k + 1}: {exc}") from None
    return tuple(out)


def _label(label) -> str:
    if not isinstance(label, str):
        raise ValidationError(f"policy label {label!r} is not a string")
    return label


def _policy_labels(data, document: str) -> list[str]:
    return [_label(label) for label in
            _list(_field(data, "policies", document), f"{document} policies")]


def _label_pairs(pairs, labels: list, what: str) -> list[tuple[int, int]]:
    """[[winner, loser], ...] over `labels` as index pairs; `what` names one entry."""
    index = {label: i for i, label in enumerate(labels)}
    edges = []
    for k, pair in enumerate(_list(pairs, f"{what} list")):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError(f"{what} {k + 1} is not a pair")
        for label in pair:
            if _label(label) not in index:
                raise ValidationError(f"{what} {k + 1} names unknown policy {label!r}")
        edges.append((index[pair[0]], index[pair[1]]))
    return edges


def problem_from_dict(data: dict) -> CollectiveChoiceProblem:
    labels = _policy_labels(data, "problem")
    voter_rows = _list(_field(data, "voters", "problem"), "problem voters")
    setter_row = _field(data, "agenda_setter", "problem")
    if len(set(labels)) != len(labels):
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        raise ValidationError(f"duplicate policy labels: {dupes}")

    def parse_row(row, where):
        if len(_list(row, where)) != len(labels):
            raise ValidationError(
                f"{where} has {len(row)} entries, expected {len(labels)}")
        return _rationals(row, where, "column")

    voters = tuple(parse_row(row, f"voter row {i + 1}")
                   for i, row in enumerate(voter_rows))
    setter = parse_row(setter_row, "agenda_setter row")

    override = None
    if data.get("majority_override") is not None:
        override = TournamentSpec.from_edges(
            len(labels), _label_pairs(data["majority_override"], labels, "override entry"))

    return CollectiveChoiceProblem(
        policies=tuple(labels), voter_utilities=voters, setter_utilities=setter,
        majority_override=override, gfa=_typed(data.get("gfa", False), bool, "problem gfa"))


def save_problem(problem: CollectiveChoiceProblem, path) -> None:
    with _writing(path):
        Path(path).write_text(json.dumps(problem_to_dict(problem), indent=2) + "\n")


def load_problem(path) -> CollectiveChoiceProblem:
    return problem_from_dict(read_json(path))


def tournament_from_dict(data: dict) -> tuple[list, TournamentSpec]:
    """Tournament document {"policies": [...], "edges": [[winner, loser], ...]}:
    its labels and the relation over their indices."""
    labels = _policy_labels(data, "tournament")
    edges = _label_pairs(_field(data, "edges", "tournament"), labels, "tournament edge")
    return labels, TournamentSpec.from_edges(len(labels), edges)


def spatial_profile_to_dict(profile: SpatialProfile) -> dict:
    """The profile document `spatial_profile_from_dict` reads: dim and ideal points."""
    # from the profile's integers, so a drawn profile makes no `Fraction` view
    ints = profile._ints
    return {"dim": profile.dim,
            "ideal_points": [[format_rational(Fraction(c, ints.scale)) for c in p]
                             for p in ints.array.tolist()]}


def spatial_profile_from_dict(data: dict) -> SpatialProfile:
    """Profile document {"dim": d, "ideal_points": [[...], ...]}, setter last,
    on the unit box."""
    dim = _typed(_field(data, "dim", "profile"), int, "profile dimension")
    rows = _list(_field(data, "ideal_points", "profile"), "profile ideal_points")
    points = tuple(_rationals(p, f"ideal point {k + 1}", "coordinate")
                   for k, p in enumerate(rows))
    # as wide as the rows: a `dim` they lack is refused before a box of it is built
    width = len(points[0]) if points else 0
    return SpatialProfile(dim=dim, ideal_points=points,
                          box=((Fraction(0), Fraction(1)),) * width)


# ---------------------------------------------------------------------------
# voting rules from CLI-style descriptors


def parse_rule(text: str, n: int) -> VotingRule:
    """Rule descriptor: "majority", "quota:K/N", or a JSON coalition file path."""
    body = text.strip()
    if body == "majority":
        return VotingRule.simple_majority(n)
    if body.startswith("quota:"):
        spec = body[len("quota:"):]
        try:
            q_text, n_text = spec.split("/")
            q, rule_n = int(q_text), int(n_text)
        except ValueError:
            raise ValidationError(f"malformed quota descriptor {text!r}") from None
        if rule_n != n:
            raise ValidationError(f"rule is for {rule_n} voters, problem has {n}")
        return VotingRule.quota_rule(n, q)
    path = Path(body)
    if path.exists():
        coalitions = _list(_field(read_json(path), "coalitions", "rule"), "rule coalitions")
        for k, coalition in enumerate(coalitions):
            if not all(type(voter) is int for voter in _list(coalition, f"coalition {k + 1}")):
                raise ValidationError(f"coalition {k + 1} must list integer voter indices")
        return VotingRule.explicit(n, coalitions)
    raise ValidationError(f"unrecognized rule descriptor {text!r}")


# ---------------------------------------------------------------------------
# strategy profiles


def profile_to_dict(profile: StrategyProfile,
                    problem: CollectiveChoiceProblem) -> dict:
    """Tabulate a profile over all (round, default) states of its horizon,
    each state's votes from one `ballots` block."""
    proposer = []
    votes = []
    m = problem.num_policies
    for t in range(1, profile.horizon + 1):
        for x in range(m):
            a, adjourn = profile.propose(t, x)
            proposer.append([t, problem.policies[x], problem.policies[a], adjourn])
            block = profile.ballots(t, x, range(m), problem.n)
            for cand, column in enumerate(block.T.tolist()):
                for i, vote in enumerate(column):
                    votes.append([i + 1, t, problem.policies[x],
                                  problem.policies[cand], vote])
    return {"horizon": profile.horizon, "label": profile.label,
            "proposer": proposer, "votes": votes}


def profile_from_dict(data: dict, problem: CollectiveChoiceProblem) -> StrategyProfile:
    """Profile document as `profile_to_dict` writes it: policy labels,
    integer rounds, voters 1..n, and bool adjournment flags and votes."""
    index = {label: i for i, label in enumerate(problem.policies)}
    horizon = _typed(_field(data, "horizon", "profile"), int, "profile horizon")
    proposer = _list(_field(data, "proposer", "profile"), "profile proposer")
    votes = _list(_field(data, "votes", "profile"), "profile votes")
    proposer_table, voter_tables = {}, [dict() for _ in range(problem.n)]
    try:
        for k, (t, x, a, adjourn) in enumerate(proposer):
            at = f"profile proposer entry {k + 1}:"
            state = (_typed(t, int, f"{at} round"), index[x])
            proposer_table[state] = (index[a], _typed(adjourn, bool, f"{at} adjournment flag"))
        for k, (voter, t, x, a, vote) in enumerate(votes):
            at = f"profile votes entry {k + 1}:"
            if not 1 <= _typed(voter, int, f"{at} voter") <= problem.n:
                raise ValidationError(f"{at} voter {voter} is outside 1..{problem.n}")
            key = (_typed(t, int, f"{at} round"), index[x], index[a])
            voter_tables[voter - 1][key] = _typed(vote, bool, f"{at} vote")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed profile document: {exc!r}") from None
    return StrategyProfile.from_tables(horizon, proposer_table, voter_tables,
                                       label=str(data.get("label", "")))


# ---------------------------------------------------------------------------
# custom adjournment protocols


def protocol_from_dict(data: dict, problem: CollectiveChoiceProblem) -> CustomProtocol:
    """Custom protocol document: {"label": ..., "table": [[t, default,
    [[policy, adjourn], ...]], ...]} with integer rounds and policy labels;
    `GameSpec` judges flags."""
    index = {label: i for i, label in enumerate(problem.policies)}
    try:
        table = {}
        for k, (t, default, actions) in enumerate(data["table"]):
            at = f"protocol table entry {k + 1}:"
            table[(_typed(t, int, f"{at} round"), index[default])] = tuple(
                (index[a], adjourn) for a, adjourn in actions)
        return CustomProtocol(label=str(data.get("label", "custom")), table=table)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed protocol document: {exc!r}") from None


def protocol_to_dict(protocol: CustomProtocol,
                     problem: CollectiveChoiceProblem) -> dict:
    rows = []
    for (t, default), actions in sorted(protocol.table.items()):
        rows.append([t, problem.policies[default],
                     [[problem.policies[a], adjourn] for a, adjourn in actions]])
    return {"label": protocol.label, "table": rows}
