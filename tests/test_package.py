"""The package's public names and its one list of design methods."""

import inspect

import pytest

import difint
from difint import DesignSpec, DomainError
from difint import design, discrete, errors, factored, frequency, identities, realization
from difint.design import METHODS

MODULES = (design, discrete, errors, factored, frequency, identities, realization)


def test_public_names_are_the_modules_all_lists():
    declared = [name for module in MODULES for name in module.__all__]
    public = {name for name, value in vars(difint).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(set(declared)) == len(declared)
    assert public == set(declared)
    assert sorted(difint.__all__) == sorted(declared)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(difint, name) is getattr(module, name), name


@pytest.mark.parametrize("kappa", METHODS)
def test_design_spec_accepts_every_method(kappa):
    assert DesignSpec(kappa, 0.3).kappa == kappa


@pytest.mark.parametrize("kappa", [-1, 0, 8, 9, 1.0, 2.5, True, "1", None])
def test_design_spec_rejects_anything_else(kappa):
    with pytest.raises(DomainError, match="method index must be 1..7"):
        DesignSpec(kappa, 0.3)
