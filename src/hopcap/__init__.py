"""Transport-capacity optimization for single-cell multihop networks.

A fading model (`fading`) feeds the water-pouring solver (`waterfill`), whose
value function drives the hop-distance optimization (`hopopt`); `macmodel`
turns rates and powers into network units, and `simulator` checks the renewal
formulas.  The modules are the API: ``import hopcap`` loads none of them.
"""

__version__ = "0.1.0"
