"""Exact Jacobi-type continued fractions over the rational-function field Q(q).

The package builds the sequence family whose convergents generate the
q-Pochhammer ratio (a;q)_n/(b;q)_n, specializes it at (a,b) = (q,q^2) to
produce divisor-function and sums-of-divisors generating functions, and
verifies the structural expansion identities of the convergent polynomials by
exact arithmetic against independent brute-force oracles.

The names below are loaded on first use (PEP 562): `import qjfrac` imports no
submodule, so a CLI command compiles only the modules it runs, and only the
numeric `convergence` module pulls in mpmath.
"""

from importlib import import_module

_EXPORTS = {
    "exact": ("QPolynomial", "QRationalFn", "QSeries"),
    "parse": ("parse_ratfn",),
    "sequences": (
        "JFractionSpec",
        "PochhammerParams",
        "cfraction_coefficient",
        "divisor_spec",
        "pochhammer_spec",
    ),
    "jfraction": (
        "ConvergentPair",
        "convergent_coefficients",
        "convergent_pairs",
        "convergent_sum_decomposition",
        "convergents",
        "series_to_jfraction",
        "table1_preset",
        "telescoping_residual",
    ),
    "divisors": ("generating_series",),
    "stirling": (
        "first_column_formula_check",
        "nested_sum",
        "newton_girard_check",
        "tilde_D0j",
        "triangle_row",
        "verify_claim_relations",
        "verify_Ph_expansion",
        "verify_PQ_coefficient_relation",
        "verify_Qh_expansion",
    ),
    "convergence": ("numeric_convergence_probe", "pringsheim_margins", "threshold_radius"),
    "oracles": (
        "lambert_truncated",
        "pochhammer_ratio",
        "q_binomial",
        "q_binomial_theorem_check",
        "q_pochhammer",
        "sigma_alpha",
    ),
    "zalgebra": ("ZPolynomial", "ZSeries"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    # a submodule (qjfrac.stirling) or a name it exports (qjfrac.nested_sum)
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
