"""Built-in scenario presets for the figure configurations.

Each preset carries the coupling constants and input amplitudes of one
published plot, the mode selections that plot shows, and a z-range wide
enough to cover a few periods of the dynamics.  Inheritance chains
("the other parameters are the same as ...") are resolved here.
"""

from __future__ import annotations

from dataclasses import replace

from .exceptions import ValidationError
from .model import (
    CouplerParams,
    InputSpec,
    ModeId,
    ModeSelection,
    N_MODES,
    ScenarioConfig,
    VACUUM_INPUT,
)


def _inputs(**per_mode):
    out = [VACUUM_INPUT] * N_MODES
    for name, spec in per_mode.items():
        out[ModeId[name]] = spec
    return tuple(out)


def _obs(*entries):
    return tuple((tag, ModeSelection.parse(modes)) for tag, modes in entries)


def _cfg(params, inputs, observables, z_max, z_steps=500, n_max=64, k_max=5):
    return ScenarioConfig(
        params=params, inputs=inputs, observables=observables,
        z_max=z_max, z_steps=z_steps, n_max=n_max, k_max=k_max,
    )


def _fig2():
    return _cfg(
        CouplerParams(gS1=1, gA1=2),
        _inputs(S1=InputSpec(xi=2j), V1=InputSpec(xi=1)),
        _obs(("moments", "S1,A1")),
        z_max=10.0,
    )


def _fig3():
    return _cfg(
        CouplerParams(gS1=1, gA1=2, kappaS=-10),
        _inputs(S1=InputSpec(xi=2), V1=InputSpec(xi=1), S2=InputSpec(xi=2)),
        _obs(("moments", "S1,A1"), ("pn", "S1,A1"),
             ("quadratures", "S2,A1"), ("squeeze", "S2,A1")),
        z_max=2.0,
    )


def _fig4():
    return _cfg(
        CouplerParams(gS1=1, gA1=2, kappaS=-10),
        _inputs(S1=InputSpec(xi=-2j), A1=InputSpec(xi=2j),
                V1=InputSpec(xi=1), S2=InputSpec(xi=2)),
        _obs(("moments", "S2,A1"), ("pn", "S2,A1")),
        z_max=2.0,
    )


def _fig5():
    return _cfg(
        CouplerParams(gS1=1, gA1=2, gS2=1, gA2=2, kappaS=6j),
        _inputs(S1=InputSpec(xi=-2j), A1=InputSpec(xi=2j), V1=InputSpec(xi=1),
                S2=InputSpec(xi=-2j), A2=InputSpec(xi=2j), V2=InputSpec(xi=1)),
        _obs(("moments", "S1,A1"), ("moments", "S2,V1"), ("moments", "A1,A2")),
        z_max=3.0,
    )


def _fig6():
    base = _fig5()
    return replace(
        base,
        params=replace(base.params, kappaA=6j),
        observables=_obs(("moments", "S2,A1"),
                         ("quadratures", "S1,A1"), ("squeeze", "S1,A1")),
    )


def _fig7():
    return _cfg(
        CouplerParams(gS1=1, gA1=2),
        _inputs(S1=InputSpec(xi=-2j), A1=InputSpec(xi=2j), V1=InputSpec(n_ch=0.1)),
        _obs(("moments", "S1,A1"), ("pn", "S1,A1")),
        z_max=4.0,
    )


def _fig8():
    base = _fig7()
    return replace(
        base,
        inputs=_inputs(S1=InputSpec(xi=-2j), A1=InputSpec(xi=2j), V1=InputSpec(n_ch=1.0)),
        observables=_obs(("quadratures", "S1,V1"), ("squeeze", "S1,V1")),
    )


def _fig9():
    return _cfg(
        CouplerParams(gS1=1, gA1=2, gS2=1, gA2=2, kappaS=-6),
        _inputs(S1=InputSpec(xi=-2j), A1=InputSpec(xi=2j), V1=InputSpec(n_ch=0.1),
                S2=InputSpec(xi=2), V2=InputSpec(n_ch=0.1)),
        _obs(("moments", "A1,V2")),
        z_max=4.0,
    )


def _fig10():
    return _cfg(
        CouplerParams(gS1=1, gA1=2, gS2=1, gA2=2, kappaS=6j),
        _inputs(S1=InputSpec(xi=-2j), A1=InputSpec(xi=2j), V1=InputSpec(n_ch=0.1),
                S2=InputSpec(xi=-2j), A2=InputSpec(xi=2j), V2=InputSpec(n_ch=0.1)),
        _obs(("moments", "S1,V2"), ("moments", "S2,V1")),
        z_max=3.0,
    )


def _fig11():
    base = _fig10()
    return replace(
        base,
        params=replace(base.params, kappaA=6j),
        observables=_obs(("moments", "S1,A1")),
    )


_BUILDERS = {
    "fig2": _fig2, "fig3": _fig3, "fig4": _fig4, "fig5": _fig5,
    "fig6": _fig6, "fig7": _fig7, "fig8": _fig8, "fig9": _fig9,
    "fig10": _fig10, "fig11": _fig11,
}

PRESET_NAMES = tuple(_BUILDERS)


def load_preset(name: str) -> ScenarioConfig:
    try:
        builder = _BUILDERS[name]
    except (KeyError, TypeError):
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    return builder()
