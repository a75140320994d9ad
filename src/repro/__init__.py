"""DRAIN: Deadlock Removal for Arbitrary Irregular Networks (HPCA 2020).

A full Python reproduction: a cycle-level NoC simulator, the DRAIN
subactive deadlock-removal scheme, the escape-VC and SPIN baselines, a
coherence-protocol traffic model, an analytical area/power model, and one
experiment module per table/figure of the paper's evaluation.

The public names below, like those of ``repro.core``,
``repro.analysis``, ``repro.structcache``, ``repro.experiments`` and
``repro.faults``, resolve on first access (:func:`_lazy_exports`):
importing a package imports none of its submodules, so a run served
from the result cache never loads the simulator, the engine or numpy.
"""

import importlib
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Scheme",
    "SimConfig",
    "NetworkConfig",
    "DrainConfig",
    "SpinConfig",
    "ProtocolConfig",
    "drain_default",
    "NetworkStats",
    "Simulation",
    "DrainPath",
    "find_drain_path",
    "DrainController",
    "MessageClass",
    "Packet",
    "Link",
    "Topology",
    "make_mesh",
    "make_torus",
    "make_ring",
    "inject_link_faults",
    "random_fault_patterns",
]


def _lazy_exports(
    namespace: Dict[str, Any],
    exports: Mapping[str, Iterable[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` (PEP 562) for the package whose globals
    are *namespace*.

    *exports* maps a submodule path, relative to the package
    (``"core.config"``), to the public names it defines. A name equal to
    the submodule's own last component is the submodule itself. A
    resolved name is stored in *namespace*, so later reads are plain
    attribute lookups; an unknown name raises :class:`AttributeError`,
    so ``hasattr`` stays honest.
    """
    package = namespace["__name__"]
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = importlib.import_module(f"{package}.{module}")
        if module.rpartition(".")[2] != name:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), {
    "core.config": ("DrainConfig", "NetworkConfig", "ProtocolConfig",
                    "Scheme", "SimConfig", "SpinConfig", "drain_default"),
    "core.metrics": ("NetworkStats",),
    "core.simulator": ("Simulation",),
    "drain.controller": ("DrainController",),
    "drain.path": ("DrainPath", "find_drain_path"),
    "router.packet": ("MessageClass", "Packet"),
    "topology.graph": ("Link", "Topology"),
    "topology.irregular": ("inject_link_faults", "random_fault_patterns"),
    "topology.mesh": ("make_mesh", "make_ring", "make_torus"),
})
