"""numpy's ComplexWarning is an error under the test suite.

A product that drops an imaginary part (a complex array cast to float)
warns with ComplexWarning.  The class is a RuntimeWarning, which
pyproject.toml's filter already makes an error; it is named here too, so
the rule holds if that filter is ever narrowed.  numpy has the class in
numpy.exceptions from 1.25 and at the top level in 1.24, the stated floor,
so the filter takes the path from the class itself.
"""

try:
    from numpy.exceptions import ComplexWarning
except ImportError:  # numpy 1.24
    from numpy import ComplexWarning


def pytest_configure(config):
    name = f"{ComplexWarning.__module__}.{ComplexWarning.__qualname__}"
    config.addinivalue_line("filterwarnings", f"error::{name}")
