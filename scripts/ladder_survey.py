"""Survey ladder heights and closeness counts across the host zoo.

For every host the script re-derives the geodeticity constant, scans the
asynchronously disjoint geodesic pairs once, and for each of the widths 1
and 2 prints the ladders among them (pairs with a_m >= 1) with the largest
height next to the bound A(m, k), plus the largest c_m next to C(m, k).
The point of the exercise is how much slack the bounds leave on small hosts.
"""

import argparse
import random
from typing import NamedTuple

from geodetic import (
    CayleyBall,
    SearchScope,
    cayley_ball,
    close_bound_C,
    iter_disjoint_pairs,
    ladder_bound_A,
    min_geodetic_k,
)
from geodetic.zoo import (
    complete_bipartite,
    cycle_graph,
    cyclic_odd_powers,
    path_graph,
    petersen_graph,
    random_tree,
    star_graph,
)


class SurveyConfig(NamedTuple):
    seed: int = 0
    max_pairs: int = 2000
    max_geodesics: int = 50
    widths: tuple = (1, 2)


def build_hosts(cfg):
    rng = random.Random(cfg.seed)
    hosts = [
        ("path P8", path_graph(8)),
        ("star S6", star_graph(6)),
        ("tree n=20", random_tree(20, rng)),
        ("tree n=40", random_tree(40, rng)),
    ]
    hosts += [(f"cycle C{n}", cycle_graph(n)) for n in range(3, 10)]
    hosts += [
        (f"K_{a},{b}", complete_bipartite(a, b))
        for a in range(2, 5)
        for b in range(a, 5)
    ]
    hosts.append(("Petersen", petersen_graph()))
    for k in range(2, 6):
        ball = cayley_ball(*cyclic_odd_powers(k), 2)
        hosts.append((f"Z{2 * k} odd-gen ball", ball))
    return hosts


def survey_host(name, host, cfg, scope):
    if isinstance(host, CayleyBall):
        k, _ = host.min_geodetic_k()
    else:
        k, _ = min_geodetic_k(host)
    # The disjoint pairs and their distances do not depend on the width, so
    # one scan at the largest width gives every width's a_m, the number of
    # distances equal to m, and c_m, the number between 1 and m.
    pairs = iter_disjoint_pairs(host, max(cfg.widths), scope)
    distances = [stats.distances for _, _, stats in pairs]
    for m in cfg.widths:
        heights = [d.count(m) for d in distances]
        max_close = max((sum(map(d.count, range(1, m + 1))) for d in distances), default=0)
        print(
            f"{name}: k={k} m={m} ladders={len(heights) - heights.count(0)} "
            f"max_height={max(heights, default=0)} A={ladder_bound_A(m, k)} "
            f"max_c={max_close} C={close_bound_C(m, k)}"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-pairs", type=int, default=2000)
    parser.add_argument("--max-geodesics", type=int, default=50)
    args = parser.parse_args()
    cfg = SurveyConfig(
        seed=args.seed, max_pairs=args.max_pairs, max_geodesics=args.max_geodesics
    )
    try:
        scope = SearchScope(max_pairs=cfg.max_pairs, max_geodesics=cfg.max_geodesics)
    except ValueError as exc:
        parser.error(str(exc))
    for name, host in build_hosts(cfg):
        survey_host(name, host, cfg, scope)


if __name__ == "__main__":
    main()
