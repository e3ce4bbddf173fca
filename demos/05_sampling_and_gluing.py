"""Random orders: the uniform law, coset extensions, and gluing.

Samples the uniform order and checks its ranking statistics, extends an
order on a subgroup to the whole window with iid coset labels, and glues
two orders so that each controls what a small probe set sees on its side
of the window.
"""

from grouporders import (
    ball,
    chi2_quantile,
    coset_extension,
    default_generators,
    lex_functional,
    shadowing_report,
    specification_glue,
    uniform_order,
    uniform_sampler,
    uniformity_chisq,
    window_from_elements,
    zn,
    zn_element,
)

w = ball(default_generators(zn(2)), 2)

print("== Uniform order: all rankings of a 3-set equally likely ==")
F = window_from_elements(zn(2), [zn_element(0, 0), zn_element(1, 0), zn_element(0, 1)])
rep = uniformity_chisq(uniform_sampler(w), F, 6000, seed=11)
print(f"  counts {rep.counts}; chi2 = {rep.statistic:.2f} on {rep.dof} dof "
      f"(0.999 quantile {chi2_quantile(0.999, rep.dof):.2f})")

print("\n== Coset extension: Z x {0} inside Z^2 ==")
inner_w = window_from_elements(zn(2), [zn_element(k, 0) for k in range(-2, 3)])
inner = lex_functional(2).window_order(inner_w)
ext = coset_extension(w, lambda g: g.payload[1] == 0, inner, seed=3)
ranks = ext.ranks()
row0 = sorted((g.payload for g in w if g.payload[1] == 0))
print("  x-axis elements, smallest to largest in the extension:")
print("   ", sorted(row0, key=lambda p: ranks[w.position(zn_element(*p))]))
print("  (within the subgroup the inner order survives exactly; rows are")
print("   then shuffled as blocks by iid labels)")

print("\n== Gluing two uniform orders along K and a probe set D ==")
m1 = uniform_order(w, 101)
m2 = uniform_order(w, 202)
D = window_from_elements(zn(2), [zn_element(0, 0), zn_element(1, 0)])
K = [zn_element(0, 1), zn_element(-1, 0)]
glued = specification_glue(m1, m2, K, D)
ok, rows = shadowing_report(glued, m1, m2, K, D)
inside = sum(1 for _, side, _ in rows if side == "inside")
outside = len(rows) - inside
print(f"  all shadowing checks pass: {ok} "
      f"({inside} elements see the first order, {outside} see the second)")
