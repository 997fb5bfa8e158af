"""Router width cascading (Section 5.1).

Routing components are pin-limited: for a fixed pin budget, wider
datapaths mean fewer ports.  METRO instead lets ``c`` narrow routers
act as one logical router of width ``c * w``.  Two hooks make the
members behave identically:

* **Shared randomness** — every member draws its random selection bits
  from the same external stream (here a
  :class:`~repro.core.random_source.SharedRandomBus`), so identical
  connection requests produce identical backward-port allocations.

* **Wired-AND IN-USE pull-up** — each backward port exports an active-
  low "not in use" signal wired across the cascade.  Any allocation
  disagreement (possible only under faults, e.g. a corrupted header
  slice) is detected the moment it occurs and the connection is shut
  down on *all* members, containing the fault.  End-to-end checksums
  still back this up for the improbable cases the pull-up misses.

:class:`CascadeGroup` implements the pull-up as a post-tick cross
check; :func:`split_value` / :func:`join_slices` carve wide words into
per-member slices (routing headers are replicated into every slice,
which is why Table 4 multiplies ``hbits`` by ``c``).
"""

from repro.sim.component import Component


def split_value(value, w, c):
    """Slice a ``c*w``-bit value into ``c`` little-endian ``w``-bit words."""
    mask = (1 << w) - 1
    return [(value >> (index * w)) & mask for index in range(c)]


def join_slices(slices, w):
    """Inverse of :func:`split_value`."""
    value = 0
    for index, part in enumerate(slices):
        value |= (part & ((1 << w) - 1)) << (index * w)
    return value


class CascadeGroup(Component):
    """The wired-AND IN-USE consistency check across cascaded routers.

    Register this component *after* its members so it observes each
    cycle's allocations.  On any per-backward-port disagreement it
    force-tears-down the involved connections on every member.

    :param members: the cascaded :class:`~repro.core.router.MetroRouter`
        objects; they must share identical ``i``/``o`` geometry and are
        expected to share a :class:`~repro.core.random_source.SharedRandomBus`.
    """

    def __init__(self, members, name="cascade"):
        if len(members) < 2:
            raise ValueError("a cascade needs at least two members")
        geometry = {(m.params.i, m.params.o) for m in members}
        if len(geometry) != 1:
            raise ValueError("cascade members must share port geometry")
        self.members = list(members)
        self.name = name
        self.mismatches = 0

    def tick(self, cycle):
        reference = self.members[0]
        o = reference.params.o
        owner_ports = [m.backward_owner_ports() for m in self.members]
        for q in range(o):
            owners = {ports[q] for ports in owner_ports}
            if len(owners) == 1:
                continue
            # Disagreement: the IN-USE pull-up fires.  Kill every
            # connection touching this backward port, on every member.
            self.mismatches += 1
            for owner in owners:
                if owner is None:
                    continue
                for member in self.members:
                    member.force_teardown(owner)

    def consistent(self):
        """True when all members agree on every allocation."""
        reference = self.members[0].backward_owner_ports()
        return all(
            m.backward_owner_ports() == reference for m in self.members[1:]
        )
