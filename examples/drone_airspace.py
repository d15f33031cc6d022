#!/usr/bin/env python
"""Drone airspace: 3-dimensional continuous NN monitoring.

Footnote 3 of the paper notes CPM "can be applied to higher
dimensionality".  Here a control tower continuously monitors the 3
nearest drones in a 1 km x 1 km x 120 m airspace — a genuinely
3-dimensional problem (vertical separation matters).

The n-dimensional engine is the example package ``examples/ndim/``
(imported as ``ndim``: a script's own directory is on ``sys.path``).

Run:  python examples/drone_airspace.py
"""

from __future__ import annotations

import math
import random

from ndim import NdCPMMonitor
from repro.updates import ObjectUpdate

AIRSPACE = [(0.0, 1000.0), (0.0, 1000.0), (0.0, 120.0)]  # meters


def main() -> None:
    rng = random.Random(99)

    monitor = NdCPMMonitor(cells_per_axis=8, bounds=AIRSPACE)
    drones = {
        oid: (
            rng.uniform(0, 1000),
            rng.uniform(0, 1000),
            rng.uniform(10, 120),
        )
        for oid in range(200)
    }
    monitor.load_objects(drones.items())

    tower = (500.0, 500.0, 0.0)
    result = monitor.install_query(qid=0, point=tower, k=3)
    print("tower at (500, 500, 0): three nearest drones")
    for dist, oid in result:
        x, y, z = drones[oid]
        print(f"  drone {oid:3d} at ({x:6.1f}, {y:6.1f}, {z:5.1f}) m, range {dist:6.1f} m")

    print("\nsimulating 10 radar sweeps (40% of drones move each sweep):")
    for sweep in range(10):
        updates = []
        for oid in rng.sample(sorted(drones), 80):
            old = drones[oid]
            new = (
                min(max(old[0] + rng.uniform(-40, 40), 0.0), 1000.0),
                min(max(old[1] + rng.uniform(-40, 40), 0.0), 1000.0),
                min(max(old[2] + rng.uniform(-8, 8), 0.0), 120.0),
            )
            drones[oid] = new
            updates.append(ObjectUpdate(oid, old, new))
        changed = monitor.process(updates)
        nearest = monitor.result(0)[0]
        print(
            f"  sweep {sweep}: nearest = drone {nearest[1]:3d} at "
            f"{nearest[0]:6.1f} m ({'changed' if 0 in changed else 'stable'})"
        )

    # Brute-force verification in 3D.
    expected = sorted(
        (math.dist(p, tower), oid) for oid, p in drones.items()
    )[:3]
    assert monitor.result(0) == expected
    print("\nbrute-force verification (3D): OK")


if __name__ == "__main__":
    main()
