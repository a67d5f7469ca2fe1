"""Numbers from the derived equations and the oracles they are checked against.

Each name lives in one submodule; ``rootode`` exports the public ones.

* ``series`` — exact rational branch series, and their residual against
  the derived linear equation.
* ``tracking`` — the branch root x(q) as a certified float, and branch
  points isolated exactly by Sturm's theorem.
* ``quadrature`` — tanh-sinh quadrature in floats, and the check of the
  integral identity.
* ``closedform`` — the classical radical and trigonometric root formulas,
  evaluated in floats.
"""
