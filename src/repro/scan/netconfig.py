"""Network-wide configuration over scan chains.

Machines built from METRO routers set Table 2 options through scan
(Section 5.3); this module is the glue: it organizes a network's
routers onto board-style daisy chains (one chain per stage, matching
how backplanes are laid out) and applies *policies* — "fast
reclamation everywhere except stage 1", "dilation 1 in the last
stage", "disable that port" — as scan traffic, never by poking the
config objects directly.
"""

from repro.scan.chain import ScanChain, set_fast_reclaim


class NetworkScanFabric:
    """Per-stage scan chains over every router of a network."""

    def __init__(self, network, port=0):
        self.network = network
        self.chains = []
        self._position = {}  # router key -> (chain_index, slot)
        for stage_index, stage_routers in enumerate(network.routers):
            chain = ScanChain(stage_routers, port=port)
            self.chains.append(chain)
            for slot, router in enumerate(stage_routers):
                key = _key_of(network, router)
                self._position[key] = (stage_index, slot)

    # ------------------------------------------------------------------

    def inventory(self):
        """(stage, chain length, IDCODEs) per chain — the board map."""
        rows = []
        for stage_index, chain in enumerate(self.chains):
            rows.append(
                {
                    "stage": stage_index,
                    "routers": len(chain),
                    "idcodes": chain.read_idcodes(),
                }
            )
        return rows

    def configure_router(self, key, mutate):
        """Apply ``mutate(config)`` to one router, by grid key, via scan."""
        stage_index, slot = self._position[key]
        self.chains[stage_index].configure(slot, mutate)

    def configure_stage(self, stage_index, mutate):
        """Apply ``mutate(config)`` to every router of one stage."""
        chain = self.chains[stage_index]
        for slot in range(len(chain)):
            chain.configure(slot, mutate)

    def configure_all(self, mutate):
        for stage_index in range(len(self.chains)):
            self.configure_stage(stage_index, mutate)

    # -- policies ---------------------------------------------------------

    def set_fast_reclaim_policy(self, detailed_stages=()):
        """Fast reclamation everywhere except the listed stages.

        The paper's mixed-mode operation (Section 5.1): detailed
        blocked replies only where diagnosis wants them.
        """
        detailed = set(detailed_stages)
        for stage_index, chain in enumerate(self.chains):
            # A stage's routers share one geometry; forward port ids are
            # the forward indices.
            forward = range(chain.routers[0].params.i)
            self.configure_stage(
                stage_index, set_fast_reclaim(forward, stage_index not in detailed)
            )


def _key_of(network, router):
    for key, candidate in network.router_grid.items():
        if candidate is router:
            return key
    raise KeyError(router.name)
