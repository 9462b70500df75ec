import os

import pytest
from hypothesis import settings

from crossed_desc import (
    constant_diagram,
    fatten_diagram,
    identity_diagram_morphism,
)
from crossed_desc.fixtures import (
    NAMED_CROSSED,
    fix_a,
    fix_a_core,
    fix_b,
    fix_c,
    fix_c_core,
    fix_cech,
)

from builders import disjoint_union

# HYPOTHESIS_PROFILE=ci fuzzes harder (CI runs it); local runs keep the default.
# It prints a failing example's @reproduce_failure line, so a failure seen once
# in a CI log can be replayed without waiting for it to recur
settings.register_profile("ci", max_examples=500, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def diag_a():
    return fix_a()


@pytest.fixture(scope="session")
def diag_b():
    return fix_b()


@pytest.fixture(scope="session")
def diag_c():
    return fix_c()


@pytest.fixture(scope="session")
def diag_cech():
    return fix_cech(2)


@pytest.fixture(scope="session")
def diag_s3():
    return constant_diagram(NAMED_CROSSED["inner-s3"]())


@pytest.fixture(scope="session")
def fat_a(diag_a):
    """(fattened diagram, inclusion) for the two-object copy of diag_a."""
    return fatten_diagram(diag_a, 2)


@pytest.fixture(scope="session")
def fat_cech(diag_cech):
    return fatten_diagram(diag_cech, 2)


@pytest.fixture(scope="session")
def fat_s3(diag_s3):
    return fatten_diagram(diag_s3, 2)


@pytest.fixture(scope="session")
def id_a(diag_a):
    return identity_diagram_morphism(diag_a)


@pytest.fixture(scope="session")
def diag_union():
    """Constant diagram of fix-a-core + fix-c-core: two gauge classes."""
    return constant_diagram(disjoint_union(fix_a_core(), fix_c_core()))


@pytest.fixture(scope="session")
def fat_union(diag_union):
    return fatten_diagram(diag_union, 2)
