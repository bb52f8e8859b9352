"""Solvability and damping study on the bundled 4-source / 6-load grid.

For each operating point we print the four reference-voltage thresholds,
the dual bound below which no equilibrium exists and its relative gap to
tau2, the equilibrium load voltages when one is certified, and the paper's
damping bound b0 (the sufficient stability test holds for every b <= b0; it is
a lower bound on the largest such b, not that b itself) together with the
closed-loop spectral abscissa.

Usage: python3 scripts/threshold_study.py
"""

import dataclasses
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from dcgrid import analyze_stability, certify, load_network, prepare

GRID = pathlib.Path(__file__).resolve().parents[1] / "examples" / "paper_table1.json"

LIGHT = [1000.0, 1000.0, 1000.0, 500.0, 500.0, 500.0]
HEAVY = [2000.0, 2000.0, 2000.0, 1500.0, 1500.0, 1500.0]


def operating_point(spec, u_ref, P, label):
    loads = tuple(dataclasses.replace(l, P=p) for l, p in zip(spec.loads, P))
    control = dataclasses.replace(spec.control, u_ref=u_ref)
    grid = prepare(dataclasses.replace(spec, loads=loads, control=control))
    cert = certify(grid)
    print(f"\n== {label}: u_ref = {u_ref:.2f} V, total load = {sum(P):.0f} W ==")
    print(f"   tau1 (necessary)     = {cert.tau_necessary:9.4f} V")
    print(f"   tau2 (optimized)     = {cert.tau_optimized:9.4f} V")
    print(f"   tau3 (Perron vector) = {cert.tau_perron_vector:9.4f} V")
    print(f"   tau4 (contraction)   = {cert.tau_contraction:9.4f} V")
    gap = (cert.tau_optimized - cert.tau_dual) / cert.tau_dual
    print(f"   dual bound           = {cert.tau_dual:14.9f} V "
          f"(tau2 - dual = {gap:+.1e} relative)")
    print(f"   verdict: {cert.verdict}" + (f" ({cert.note})" if cert.note else ""))
    if cert.u_load is None:
        return
    with np.printoptions(precision=2, suppress=True):
        print(f"   u_load* = {cert.u_load} V   (residual {cert.residual:.2e})")
    report = analyze_stability(grid, cert.u_load)
    print(f"   damping lower bound b0 = {report.b0:.4e} s, spec b = {grid.spec.control.b:.1e} s")
    print(f"   abscissa = {report.abscissa:+.2f} 1/s -> {report.verdict}")


def main():
    spec = load_network(GRID)
    operating_point(spec, 89.64, LIGHT, "light profile at threshold")
    operating_point(spec, 89.60, LIGHT, "light profile just below threshold")
    operating_point(spec, 135.51, HEAVY, "heavy profile at threshold")
    operating_point(spec, 135.40, HEAVY, "heavy profile just below threshold")
    operating_point(spec, 200.0, LIGHT, "light profile, generous reference")


if __name__ == "__main__":
    main()
