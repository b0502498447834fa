"""Time-dependent coefficients, the money market account, and deflated growth.

Builds a three-piece coefficient schedule for a gamma-driven price, checks
that the deflated price pi_t S_t stays centred on S_0, and verifies that the
price grows relative to the money market at the rate exp(integral of R).
Finishes with a Gordon-style dividend valuation.
"""
import math

import numpy as np

import glevy as g


def main():
    model = g.Gamma(m=1.0)
    vglm = g.VectorGlm(components=(g.Component(model, 0.4, 0.3),), r=0.02, s0=2.0)
    sch = g.Schedule(
        breakpoints=[0.0, 1.0, 2.0, 3.0],
        r=[0.02, 0.04, 0.03],
        lam=[[0.4], [0.6], [0.3]],
        sig=[[0.3], [0.5], [0.2]],
    )

    print("=== Money market account ===")
    for t in (0.0, 0.5, 1.0, 2.0, 3.0):
        print(f"  B({t}) = {g.money_market(sch, t):.6f}")

    print("\n=== One sample path under the schedule ===")
    times, values = g.simulate_paths(model, horizon=3.0, steps=12, n=1, rng=g.Rng(5))
    driver = g.Path(times, values[0])
    spath = g.schedule_asset_path(vglm, sch, [driver])
    kpath = g.schedule_kernel_path(vglm, sch, [driver])
    print(f"{'t':>5} {'X_t':>9} {'S_t':>9} {'pi_t':>9} {'pi_t S_t':>9}")
    for j in range(0, 13, 2):
        print(f"{driver.times[j]:5.2f} {driver.values[j]:9.4f} "
              f"{spath.values[j]:9.4f} {kpath.values[j]:9.4f} "
              f"{kpath.values[j] * spath.values[j]:9.4f}")

    print("\n=== Deflated growth over [0.5, 3.0] ===")
    out = g.submartingale_check(vglm, sch, 0.5, 3.0, n=20_000, rng=g.Rng(6))
    print(f"  E[S_s/B_s] = {out['mean_s']:.4f} +/- {out['stderr_s']:.4f}")
    print(f"  E[S_t/B_t] = {out['mean_t']:.4f} +/- {out['stderr_t']:.4f}")
    print(f"  observed ratio {out['observed_ratio']:.4f}, "
          f"predicted exp(int R) = {out['predicted_ratio']:.4f}")
    print(f"  submartingale holds: {out['submartingale_ok']}")

    print("\n=== Dividend-stream valuation ===")
    spec = g.GlmSpec(model=g.Brownian(), r=0.02, lam=0.5, sig=0.4,
                     gamma_growth=0.1, d0=1.0)
    price, delta = g.gordon_valuation(spec)
    print(f"  dividend yield delta = {delta:.4f}")
    print(f"  implied price D0/delta = {price:.4f}")
    print(f"  check D0 = price * delta = {price * delta:.4f}")


if __name__ == "__main__":
    main()
