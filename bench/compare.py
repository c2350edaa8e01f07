"""Compare two sets of benchmark results.

    python3 bench/compare.py OLD_DIR NEW_DIR

Each directory is what ``bench/run.py --results DIR`` fills:
``<workload>/seed<N>-trace0.json`` per untraced run. For every workload
and end-to-end metric the command prints both sides' medians and
quartiles and a verdict against the bounds in BENCHMARK.json:

* ``worse``: NEW's median is worse than OLD's by more than the bound.
* ``unresolved``: either side's quartile spread is wider than the bound,
  and not every NEW run is better than every OLD run.
* ``better``: NEW wins at least nine in ten runs paired in seed order
  (ties count for neither), and the medians differ by more than OLD's
  quartile spread.
* ``same``: none of the above.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from stats import quartiles

ROOT = Path(__file__).resolve().parent.parent


def load(result_dir: Path) -> dict:
    """workload -> metric -> {seed: value} over the untraced runs."""
    out = {}
    for path in sorted(result_dir.glob("*/seed*-trace0.json")):
        record = json.loads(path.read_text())
        per_metric = out.setdefault(record["workload"], {})
        for name, m in record["result"]["metrics"].items():
            per_metric.setdefault(name, {})[record["seed"]] = m["value"]
    return out


def verdict(old: dict, new: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0  # sign * value: larger is better
    o_q1, o_med, o_q3 = quartiles(old.values())
    n_q1, n_med, n_q3 = quartiles(new.values())
    if sign * (n_med - o_med) < -bound * abs(o_med):
        return "worse"
    spread_old = (o_q3 - o_q1) / abs(o_med) if o_med else 0.0
    spread_new = (n_q3 - n_q1) / abs(n_med) if n_med else 0.0
    all_better = min(sign * v for v in new.values()) > max(sign * v for v in old.values())
    if max(spread_old, spread_new) > bound and not all_better:
        return "unresolved"
    # pair runs in seed order: by seed when both sides ran the same seeds
    pairs = list(zip((old[k] for k in sorted(old)), (new[k] for k in sorted(new))))
    wins = sum(sign * n > sign * o for o, n in pairs)
    if wins >= 0.9 * len(pairs) and sign * (n_med - o_med) > o_q3 - o_q1:
        return "better"
    return "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(Path(argv[0])), load(Path(argv[1]))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    print(f"{'workload':16} {'metric':14} {'old q1/med/q3':>32} {'new q1/med/q3':>32}  verdict")
    for workload in sorted(set(old) | set(new)):
        for name, (better, bound) in bounds.items():
            o = old.get(workload, {}).get(name)
            n = new.get(workload, {}).get(name)
            if not o or not n:
                print(f"{workload:16} {name:14} {'missing on one side':>66}")
                continue
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(
                f"{workload:16} {name:14} {fmt.format(*quartiles(o.values())):>32} "
                f"{fmt.format(*quartiles(n.values())):>32}  {verdict(o, n, better, bound)}"
                f" (n={len(o)}/{len(n)}, bound {bound:g})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
