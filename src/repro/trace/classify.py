"""Layer classification of trace references (the taxonomy of Table 1).

Code is classified into layers by a function→layer map.  Data is
classified by *first touch*: a cache line belongs to whichever layer's
function referenced it first during the trace, exactly as the paper
describes ("data is classified based on the function executing when it
was first accessed during the trace").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

#: Layer name used when a reference cannot be attributed.
UNCLASSIFIED = "unclassified"


@dataclass
class LayerClassifier:
    """Maps references to protocol-stack layers.

    Parameters
    ----------
    fn_to_layer:
        Mapping from function name to layer name.  Functions absent from
        the map classify as :data:`UNCLASSIFIED`.
    """

    fn_to_layer: Mapping[str, str] = field(default_factory=dict)

    def layer_of_fn(self, fn: str | None) -> str:
        if fn is None:
            return UNCLASSIFIED
        return self.fn_to_layer.get(fn, UNCLASSIFIED)

    def layers(self) -> list[str]:
        """All layer names in the map, in first-appearance order."""
        seen: dict[str, None] = {}
        for layer in self.fn_to_layer.values():
            seen.setdefault(layer)
        return list(seen)

