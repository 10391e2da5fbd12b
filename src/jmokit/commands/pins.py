"""pins: the fewest pin moves for a target doubled area (Problem 4)."""

from __future__ import annotations

from .. import pinopt


def _solve(args) -> tuple[int, dict, list[str]]:
    cert = pinopt.min_moves(args.doubled_area)
    witness = [list(cert.witness.a_pin), list(cert.witness.b_pin), list(cert.witness.c_pin)]
    env_fields = {
        "lower_bound": cert.lower_bound,
        "cost": cert.witness.move_cost,
        "status": cert.status,
        "witness": witness,
        "witness_doubled_area": cert.witness.doubled_area,
    }
    human = [
        f"doubled area {args.doubled_area}: cost {cert.witness.move_cost} "
        f"({cert.status}, lower bound {cert.lower_bound})",
        f"witness pins: {witness[0]} {witness[1]} {witness[2]}",
    ]
    return 0, env_fields, human


def _oracle(args) -> tuple[int, dict, list[str]]:
    cost = pinopt.oracle_min_moves(args.doubled_area, args.radius)
    env_fields = {"cost": cost, "radius": args.radius}
    return 0, env_fields, [f"exhaustive minimum cost: {cost}"]


def add_actions(actions) -> None:
    p = actions.add_parser("solve", help="witness plus optimality certificate")
    p.add_argument("--doubled-area", type=int, required=True, dest="doubled_area")
    p = actions.add_parser("oracle", help="exhaustive scan near the origin")
    p.add_argument("--doubled-area", type=int, required=True, dest="doubled_area")
    p.add_argument("--radius", type=int, required=True)
