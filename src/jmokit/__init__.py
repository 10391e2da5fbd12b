"""jmokit: solvers, exact checkers, and brute-force oracles for the six
problems of the 2021 USA Junior Mathematical Olympiad.

Modules
-------
kernel      lattice points, factorization, exact signs and floors in Q(sqrt(3))
funceq      the positive-integer functional equation (Problem 1)
rectconcur  rectangles on an acute triangle, concurrency certificates (Problem 2)
tripack     inverted-triangle packings and the 2/3 density bound (Problem 3)
pinopt      fewest pin moves for a target triangle area (Problem 4)
gcdperfect  gcd-perfect sets and the power-of-2 classification (Problem 5)
cyclic      the cyclic 2n-equation system and its unique solution (Problem 6)
cli         one command-line entry point over all of the above, with the
            envelope writer and the parser tree
commands    the subcommand handlers, one module per group, each imported
            only when its group runs
scan        cost-bounded lattice-triangle pair scan in plain integers, imported
            only when pins oracle runs
"""

__version__ = "0.1.0"
