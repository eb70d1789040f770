"""Nominal run of the bundled 15-layer cross-section model.

Solves steady flow, checks the boundary outflow budget, then computes the
mean-lifetime-expectancy field and the target-zone response.  Writes the
cell-centered fields to CSV for external plotting.

Run:  python demos/02_aquifer_cross_section.py [output.csv]
"""

import sys

from pcesobol import aquifer as aq


def main():
    out_path = sys.argv[1] if len(sys.argv) > 1 else "aquifer_fields.csv"
    model = aq.default_model()
    print(f"grid: {model.nx} x {model.nz} cells "
          f"({model.dx:.0f} m x {model.dz:.0f} m)")
    print("layers (top to bottom):")
    for lay in model.layers:
        print(f"  {lay.name:<6s} {lay.bottom:6.0f}-{lay.top:6.0f} m   "
              f"phi={lay.phi_nominal:.4f}  Kx={lay.kx_nominal:.3g} m/s")

    params = aq.nominal_parameters(model)
    mp = aq.ModelParameters.from_vector(model, params)

    flow = aq.solve_flow(model, mp)
    budget = aq.outflow_budget(flow, model)
    print(f"\nflow residual {flow.residual:.1e}, "
          f"mass imbalance {budget.imbalance:.1e}")
    print("outflow split:", ", ".join(
        f"{k} {v:.1%}" for k, v in sorted(budget.fractions.items())))

    mle = aq.solve_mle(model, flow, mp)
    print(f"\ntarget-zone mean lifetime expectancy: {mle.response:,.0f} years")
    c2 = model.layer_named("C2")
    zsel = (model.z_centers() > c2.bottom) & (model.z_centers() < c2.top)
    print(f"lifetime inside C2: {mle.e_years[zsel].min():,.0f} "
          f"to {mle.e_years[zsel].max():,.0f} years")
    print(f"lifetime over the whole domain: up to {mle.e_years.max():,.0f} years")

    aq.write_fields(out_path, model, flow, mle)
    print(f"\nwrote {out_path} (x, z, head, lifetime)")


if __name__ == "__main__":
    main()
