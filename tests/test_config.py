"""Every run setting's default is declared once, in ``dedsid.config``."""

import inspect
from dataclasses import fields

import pytest

from dedsid.config import FitConfig, RunConfig, SpectrogramConfig, VifConfig
from dedsid.spectral import build_spectrogram
from dedsid.vif import select_features


def config_default(cls, *keys):
    """The field default of ``cls`` for each key; a single key gives a bare value."""
    defaults = {f.name: f.default for f in fields(cls)}
    values = tuple(defaults[key] for key in keys)
    return values[0] if len(values) == 1 else values


# Each parameter that takes a config key's value, and that key.
MIRRORS = [
    (select_features, "accept_below", VifConfig, ("accept_below",)),
    (build_spectrogram, "grid", SpectrogramConfig, ("rows", "cols")),
    (build_spectrogram, "cap_hz", SpectrogramConfig, ("cap_hz",)),
    (RunConfig, "standardize_inputs", FitConfig, ("standardize_inputs",)),
    (RunConfig, "standardize_observables", FitConfig, ("standardize_observables",)),
    (RunConfig, "svd_rank", FitConfig, ("svd_rank",)),
]


@pytest.mark.parametrize(
    "owner, parameter, cls, keys",
    MIRRORS,
    ids=[f"{owner.__name__}.{parameter}" for owner, parameter, _, _ in MIRRORS],
)
def test_parameter_defaults_to_its_config_key(owner, parameter, cls, keys):
    default = inspect.signature(owner).parameters[parameter].default
    assert default == config_default(cls, *keys)
