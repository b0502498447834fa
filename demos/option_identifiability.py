"""Show which parameter combinations option prices can and cannot identify.

For the diffusive model the call price is independent of the risk aversion
lambda (and equals the Black-Scholes price). For the Poisson model only the
product m e^{-lam} is priced; for the gamma model only the pair
(m, sig / (1 + lam)). Distinct parameter sets with matching reductions give
bitwise-close prices.
"""
import math

import glevy as g


def main():
    opt = g.OptionSpec(strike=1.05, expiry=1.0)

    print("=== Brownian: price is lambda-independent ===")
    specs = [g.GlmSpec(model=g.Brownian(), r=0.02, lam=lam, sig=0.25)
             for lam in (0.0, 0.5, 1.0, 2.0)]
    out = g.dependence_experiment(specs, opt, 1e-10)
    for row in out["rows"]:
        print(f"  lam={row['params']['lambda']:4.1f}  price={row['price']:.12f}")
    bs = g.bs_call_price(1.0, 0.02, 0.25, opt.strike, opt.expiry)
    print(f"  spread {out['spread']:.2e}; Black-Scholes {bs:.12f}")

    print("\n=== Poisson: only m e^{-lam} is identifiable ===")
    pairs = [(1.0, 0.0), (2.0, math.log(2.0)), (4.0, math.log(4.0))]
    specs = [g.GlmSpec(model=g.Poisson(m=m), r=0.02, lam=lam, sig=0.3) for m, lam in pairs]
    out = g.dependence_experiment(specs, opt, 1e-10)
    for row in out["rows"]:
        pr = row["params"]
        print(f"  m={pr['m']:4.1f} lam={pr['lambda']:6.4f} "
              f"m*e^-lam={pr['m'] * math.exp(-pr['lambda']):.4f} "
              f"price={row['price']:.12f}")
    print(f"  spread {out['spread']:.2e}")

    print("\n=== Gamma: only (m, sig/(1+lam)) is identifiable ===")
    triples = [(1.0, 0.0, 0.4), (1.0, 1.0, 0.8), (1.0, 0.5, 0.6)]
    specs = [g.GlmSpec(model=g.Gamma(m=m), r=0.02, lam=lam, sig=sig)
             for m, lam, sig in triples]
    out = g.dependence_experiment(specs, opt, 1e-8)
    for row in out["rows"]:
        pr = row["params"]
        print(f"  m={pr['m']:4.1f} lam={pr['lambda']:4.1f} sig={pr['sigma']:4.1f} "
              f"sig/(1+lam)={pr['sigma'] / (1 + pr['lambda']):.4f} "
              f"price={row['price']:.12f}")
    print(f"  spread {out['spread']:.2e}")

    print("\n=== Monte Carlo cross-check (gamma driver) ===")
    spec = g.GlmSpec(model=g.Gamma(m=1.0), r=0.02, lam=0.5, sig=0.6)
    exact = g.exact_call(spec, opt)
    res = g.mc_call_price(spec, opt, n=200_000, rng=g.Rng(20120229))
    print(f"  exact quadrature {exact:.6f}, MC {res.estimate:.6f} "
          f"+/- {res.stderr:.6f}")


if __name__ == "__main__":
    main()
