#!/usr/bin/env python3
"""Hyperparameter grid experiment: accuracy and training cost over the
n_trees x max_depth surface, on a planted dataset that genuinely needs
depth. Writes a CSV suitable for surface plotting and prints the
depth-vs-trees variance comparison.

Usage: python scripts/grid_surface.py --out grid.csv [--trees 5..100:5] [--depth 5..30:5]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from windpdm.cli import _parse_range_spec
from windpdm.dataset import HorizonDataset
from windpdm.metrics import grid_search, spearman_rank_correlation, write_grid_csv

from conftest import T0, make_planted_grid_data


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="grid.csv")
    parser.add_argument("--trees", default="5..100:5")
    parser.add_argument("--depth", default="5..30:5")
    parser.add_argument("--rows", type=int, default=1200)
    parser.add_argument("--seed", type=int, default=2)
    args = parser.parse_args()

    trees_values = _parse_range_spec(args.trees)
    depth_values = _parse_range_spec(args.depth)
    X, y = make_planted_grid_data(n=args.rows)
    d = HorizonDataset(
        turbine_id="GRID", horizon_minutes=10,
        feature_names=[f"f{i}" for i in range(X.shape[1])],
        features=X, labels=y,
        origins=np.arange(len(y), dtype=np.int64) * 600 + T0,
        class_ids=[0, 1, 2])

    print(f"grid: {len(trees_values)} tree values x {len(depth_values)} depth values "
          f"= {len(trees_values) * len(depth_values)} cells on {args.rows} rows")
    result = grid_search(d, trees_values, depth_values, seed=args.seed)
    write_grid_csv(result, Path(args.out))
    print(f"wrote {args.out}")

    acc = {(c.n_trees, c.max_depth): c.accuracy for c in result.cells}
    cost = {(c.n_trees, c.max_depth): c.seconds for c in result.cells}
    depth_means = [float(np.mean([acc[(t, m)] for t in trees_values])) for m in depth_values]
    tree_means = [float(np.mean([acc[(t, m)] for m in depth_values])) for t in trees_values]
    mean_cost = [float(np.mean([cost[(t, m)] for m in depth_values])) for t in trees_values]
    print("mean accuracy by depth: "
          + "  ".join(f"{m}:{v:.3f}" for m, v in zip(depth_values, depth_means)))
    print(f"variance across depth values: {np.var(depth_means):.2e}")
    print(f"variance across tree counts:  {np.var(tree_means):.2e}")
    print(f"spearman(mean cost, n_trees): "
          f"{spearman_rank_correlation(trees_values, mean_cost):.3f}")


if __name__ == "__main__":
    main()
