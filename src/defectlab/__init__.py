"""defectlab: exact-arithmetic laboratory for valued fields.

Cut algebra over exact rationals, truncated generalized power series in
equal and mixed characteristic, certified samples of v(a - K), and the
explicit transformations that manufacture pairwise-distinct families of
degree-p Artin-Schreier and Kummer extensions, with witness-carrying
certificates and search-free re-verification.

``import defectlab`` registers each submodule in ``sys.modules`` unexecuted
and binds its name; a module is compiled and run on its first attribute
access, so a process compiles only the modules its command runs.
"""

__version__ = "0.1.0"


def _register(name: str):
    """The submodule ``name``, registered through ``importlib.util.LazyLoader``."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


approx = _register("approx")
artin = _register("artin")
certfile = _register("certfile")
certread = _register("certread")
cuts = _register("cuts")
ffield = _register("ffield")
fields = _register("fields")
kummer = _register("kummer")
series = _register("series")
teichmueller = _register("teichmueller")
del _register
