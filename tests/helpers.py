"""Constructions that only the tests need: no program changes a generator
or multiplies a series by an integer."""

from defectlab.series import EQUAL, Series


def as_generator_transform(theta: Series, i_code: int, c: Series) -> Series:
    """The generator change theta -> i*theta + c, i in the prime field.

    Any two generators of the same extension are related this way, so
    value-set invariants must agree across the orbit.
    """
    fld = theta.ctx.field
    if i_code == 0:
        raise ValueError("i must be a nonzero element of the prime field")
    if fld.frob(i_code) != i_code:  # the prime field is fixed by Frobenius
        raise ValueError("i must lie in the prime field")
    return theta.scale(i_code) + c


def int_scale(a: Series, n: int) -> Series:
    """n*a for an ordinary integer n >= 2."""
    ctx = a.ctx
    if ctx.mode == EQUAL:
        return a.scale(n % ctx.p)
    return Series.from_int(ctx, n) * a
